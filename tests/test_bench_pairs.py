"""tools/bench_pairs.py: which runs its medians and pairs read."""

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def bench_pairs():
    path = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(seed, exit_code, correct=True, value=0.0, wall_s=1.0):
    result = None if exit_code else {
        "correct": correct, "attempted": 10, "failed": 0 if correct else 2,
        "metrics": {"jobs_per_s": {"value": value}}}
    return {"seed": seed, "exit_code": exit_code, "wall_s": wall_s, "result": result,
            "digest": "d", "rounds": 1, "machine": {}}


def test_incorrect_and_unfinished_runs_stay_out_of_the_medians(bench_pairs):
    # bench/run.py exits 0 with "correct": false when outputs fail their checks
    runs = [_run(1, 0, value=100.0), _run(2, 0, correct=False, value=900.0),
            _run(3, 0, value=120.0), _run(4, 1)]
    assert [bench_pairs.good(r) for r in runs] == [True, False, True, False]
    summary = bench_pairs.side_summary(runs, [{"name": "jobs_per_s", "bound": 0.25}])
    assert summary["incorrect_runs"] == 1 and summary["unfinished_runs"] == 1
    assert summary["failed"] == 2
    assert summary["end_to_end"]["jobs_per_s"]["values"] == [100.0, 120.0]
    assert summary["end_to_end"]["jobs_per_s"]["median"] == 110.0


def test_median_run_wall_counts_every_run(bench_pairs):
    # a run's wall time is what the check pays, finished or not
    runs = [_run(1, 0, wall_s=40.0), _run(2, 0, correct=False, wall_s=90.0),
            _run(3, 1, wall_s=5.0), _run(4, 0, wall_s=50.0)]
    summary = bench_pairs.side_summary(runs, [{"name": "jobs_per_s", "bound": 0.25}])
    assert summary["run_wall_s"] == [40.0, 90.0, 5.0, 50.0]
    assert summary["median_run_wall_s"] == 45.0
