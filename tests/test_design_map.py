"""DESIGN.md §2's module map and ``src/repro`` name the same modules."""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"


def _mapped_paths() -> set[str]:
    """Every ``.py`` path in §2's tree, relative to the repo root."""
    section = (REPO / "DESIGN.md").read_text().split("## 2. ", 1)[1]
    tree = section.split("```", 2)[1]
    dirs: list[tuple[int, str]] = []
    paths = set()
    for line in tree.splitlines():
        match = re.match(r"( *)(\S+\.py|\S+/)(?:\s|$)", line)
        if match is None:
            continue  # a description wrapped onto its own line
        indent, name = len(match.group(1)), match.group(2)
        while dirs and dirs[-1][0] >= indent:
            dirs.pop()
        if name.endswith("/"):
            dirs.append((indent, name.rstrip("/")))
        else:
            paths.add("/".join([d for _, d in dirs] + [name]))
    return paths


def test_every_module_is_mapped():
    modules = {
        path.relative_to(REPO).as_posix()
        for path in PACKAGE.rglob("*.py")
        if path.name not in ("__init__.py", "__main__.py")
    }
    assert sorted(modules - _mapped_paths()) == []


def test_every_mapped_path_exists():
    mapped = _mapped_paths()
    assert "src/repro/net/topology.py" in mapped  # the parse found the tree
    assert sorted(p for p in mapped if not (REPO / p).is_file()) == []
