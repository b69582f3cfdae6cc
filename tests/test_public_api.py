"""The public API surface: everything advertised must exist and be usable."""

import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

#: Run in a fresh interpreter: the quickstart below, with every
#: third-party package the simulator once needed made unimportable.
_STDLIB_ONLY_QUICKSTART = textwrap.dedent(
    """
    import sys

    for name in ("numpy", "scipy", "networkx"):
        sys.modules[name] = None  # any import of it now fails

    import repro
    from repro import compare, two_rack

    scenario = two_rack("small", throttle_mbps=50)
    hdfs, smarth, improvement = compare(
        scenario,
        "64MB",
        config=repro.SimulationConfig().with_hdfs(
            block_size=4 * repro.MB, packet_size=256 * repro.KB
        ),
    )
    assert hdfs.duration > smarth.duration
    assert improvement > 0
    """
)

#: Run in a fresh interpreter: the modules a sequential run imports load
#: no process pool and no pickle (``repro.pool`` imports the pool only
#: for ``jobs > 1``; snapshots import pickle only to save or load).
_SEQUENTIAL_IMPORTS = textwrap.dedent(
    """
    import sys

    import repro, repro.service, repro.faults.campaign
    import repro.workloads.sharded, repro.experiments.runner

    heavy = ("multiprocessing", "concurrent.futures", "pickle")
    loaded = sorted(set(heavy) & set(sys.modules))
    assert not loaded, loaded
    """
)


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this ``repro``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_every_public_callable_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name} lacks a docstring"

    def test_quickstart_snippet_from_module_docstring(self):
        """The README/docstring quickstart actually runs."""
        from repro import compare, two_rack

        scenario = two_rack("small", throttle_mbps=50)
        hdfs, smarth, improvement = compare(
            scenario,
            "64MB",
            config=repro.SimulationConfig().with_hdfs(
                block_size=4 * repro.MB, packet_size=256 * repro.KB
            ),
        )
        assert hdfs.duration > smarth.duration
        assert improvement > 0

    def test_quickstart_needs_only_the_standard_library(self):
        result = _run_fresh(_STDLIB_ONLY_QUICKSTART)
        assert result.returncode == 0, result.stderr

    def test_sequential_imports_load_no_process_pool_or_pickle(self):
        result = _run_fresh(_SEQUENTIAL_IMPORTS)
        assert result.returncode == 0, result.stderr


class TestSubpackageDocstrings:
    def test_every_module_has_a_docstring(self):
        import importlib
        import pkgutil

        missing = []
        for module_info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            if module_info.name == "repro.__main__":
                continue  # importing it runs the CLI
            module = importlib.import_module(module_info.name)
            if not module.__doc__:
                missing.append(module_info.name)
        assert missing == []
