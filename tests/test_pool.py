"""map_named — the worker-pool helper shared by run_all and the pod
executor: ordered results, no None holes, named failures."""

import pytest

from repro.pool import WorkerFailure, map_named


def square(x):
    return x * x


def fail_on_odd(x):
    if x % 2:
        raise RuntimeError(f"odd input {x}")
    return x


TASKS = [(f"t{i}", (i,)) for i in range(6)]


class TestValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            map_named(square, TASKS, jobs=0)

    def test_names_must_be_unique(self):
        with pytest.raises(ValueError, match="unique"):
            map_named(square, [("a", (1,)), ("a", (2,))], jobs=1)

    def test_empty_task_list(self):
        assert map_named(square, [], jobs=4) == []


class TestSequential:
    def test_results_in_input_order(self):
        assert map_named(square, TASKS, jobs=1) == [0, 1, 4, 9, 16, 25]

    def test_progress_called_per_task(self):
        seen = []
        map_named(square, TASKS, jobs=1, progress=seen.append)
        assert seen == [name for name, _ in TASKS]

    def test_failure_is_named(self):
        with pytest.raises(WorkerFailure) as exc_info:
            map_named(fail_on_odd, TASKS, jobs=1)
        failure = exc_info.value
        assert failure.name == "t1"
        assert isinstance(failure.cause, RuntimeError)
        assert "t1" in str(failure)


class TestParallel:
    def test_results_in_input_order_no_holes(self):
        results = map_named(square, TASKS, jobs=3)
        assert results == [0, 1, 4, 9, 16, 25]
        assert None not in results

    def test_progress_reports_every_task(self):
        seen = []
        map_named(square, TASKS, jobs=2, progress=seen.append)
        # Completion order may vary across workers; coverage may not.
        assert sorted(seen) == sorted(name for name, _ in TASKS)

    def test_failure_names_earliest_task_and_lists_all(self):
        with pytest.raises(WorkerFailure) as exc_info:
            map_named(fail_on_odd, TASKS, jobs=3)
        failure = exc_info.value
        # t1, t3, t5 all fail; the raised failure is the earliest in
        # input order and carries the full roster.
        assert failure.name == "t1"
        assert failure.failed_names == ("t1", "t3", "t5")
