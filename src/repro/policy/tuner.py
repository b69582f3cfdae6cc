"""Online per-client protocol tuning (Arslan & Kosar style).

*A Heuristic Approach to Protocol Tuning* tunes bulk-transfer parameters
(parallelism, pipelining, concurrency) by probing a small candidate grid
and then exploiting the best-measured setting, instead of trusting
analytically-fixed constants.  SMARTH has exactly such a constant: the
Algorithm 2 threshold, fixed at 0.8, which spends 20% of block starts on
exploration swaps.  On a *static heterogeneous* cluster that exploration
is pure cost once speeds are learned — swapping a measured-fast first
datanode for a random (often slow) one; on a *shifting* cluster it is
what keeps the speed records fresh.  The right threshold is
workload-dependent, which is the textbook case for probe-then-exploit.

:class:`OnlineTunerPolicy` keeps one arm-indexed throughput histogram
per client in a :class:`repro.obs.MetricsRegistry` (the observations
come from :meth:`observe_upload` feedback the SMARTH client sends at the
end of every ``put``).  The first ``probe_rounds`` passes over the grid
try each candidate :class:`~repro.policy.base.ClientTuning` in turn;
after that every upload uses the arm with the best mean observed
throughput (ties break toward the later, less-exploratory arm).  The
grid defaults to threshold candidates but can carry any tuning —
pipeline caps included.

The tuner's state lives on the *policy instance*, so passing one
instance across deployments (``resolve_policy`` re-binds rather than
copies) lets a client's learning persist across uploads that each build
a fresh cluster — the shape of the fig5 guard in
``tests/experiments/test_sim_time_floors.py``, which runs the whole
fig5 sweep under one tuner.
Everything is deterministic: no RNG, no wall clock, just simulated-time
throughput arithmetic.
"""

from __future__ import annotations

from typing import Optional

from ..obs import MetricsRegistry, labelled
from .base import ClientTuning, Policy
from .registry import register_policy

__all__ = ["OnlineTunerPolicy", "DEFAULT_GRID"]

#: Threshold candidates: the paper's 0.8, a milder 0.9, and pure
#: exploitation.  Kept small — each arm costs ``probe_rounds`` uploads
#: of probing per client.
DEFAULT_GRID: tuple[ClientTuning, ...] = (
    ClientTuning(local_opt_threshold=0.8),
    ClientTuning(local_opt_threshold=0.9),
    ClientTuning(local_opt_threshold=1.0),
)


@register_policy
class OnlineTunerPolicy(Policy):
    """Probe-then-exploit tuning of SMARTH knobs, per client."""

    name = "tuner"
    #: Candidate tunings (the "arms").  Class-level so a subclass can
    #: re-grid; instances may also overwrite before first use.
    grid: tuple[ClientTuning, ...] = DEFAULT_GRID
    #: Full passes over the grid before switching to exploitation.
    probe_rounds = 2

    def __init__(self, deployment=None):
        super().__init__(deployment)
        #: Arm-indexed upload-throughput histograms (bytes/sec), one per
        #: (client, arm) — the `repro.obs` observation store the tuner
        #: learns from.
        self.metrics = MetricsRegistry(enabled=True)
        self._uploads: dict[str, int] = {}

    # -- internals -----------------------------------------------------
    @staticmethod
    def _arm_metric(client: str, arm: int) -> str:
        return labelled("policy_upload_throughput", arm=arm, client=client)

    def _probe_budget(self) -> int:
        return len(self.grid) * self.probe_rounds

    def best_arm(self, client: str) -> int:
        """Arm with the best mean observed throughput for ``client``."""
        means = []
        for arm in range(len(self.grid)):
            histogram = self.metrics.histogram(self._arm_metric(client, arm))
            means.append(histogram.mean if histogram.count else -1.0)
        return max(range(len(self.grid)), key=lambda arm: (means[arm], arm))

    # -- Policy hooks --------------------------------------------------
    def tuning_for(self, client: str) -> ClientTuning:
        count = self._uploads.get(client, 0)
        if count < self._probe_budget():
            return self.grid[count % len(self.grid)]
        return self.grid[self.best_arm(client)]

    def observe_upload(
        self,
        client: str,
        path: str,
        nbytes: int,
        duration: float,
        tuning: ClientTuning,
    ) -> None:
        self._uploads[client] = self._uploads.get(client, 0) + 1
        try:
            arm = self.grid.index(tuning)
        except ValueError:
            return  # a foreign tuning (e.g. handed in by a subclass)
        if duration > 0:
            self.metrics.observe(
                self._arm_metric(client, arm), nbytes / duration
            )

    # -- reporting -----------------------------------------------------
    def chosen(self, client: str) -> Optional[ClientTuning]:
        """The exploitation arm, once probing finished (else ``None``)."""
        if self._uploads.get(client, 0) < self._probe_budget():
            return None
        return self.grid[self.best_arm(client)]

    def describe(self) -> dict:
        return {
            "name": self.name,
            "grid": [
                {
                    "local_opt_threshold": t.local_opt_threshold,
                    "max_pipelines": t.max_pipelines,
                }
                for t in self.grid
            ],
            "probe_rounds": self.probe_rounds,
        }
