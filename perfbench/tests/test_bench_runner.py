"""A job's peak RSS is the job's own, whatever the runner holds."""

import sys

import numpy as np

import run


def test_peak_rss_is_the_jobs_own(tmp_path):
    ballast = np.ones(100 * 2**20 // 8)  # 100 MiB resident in the runner
    res = run.run_fresh([sys.executable, "-c", "pass"], run.job_env(), tmp_path / "job")
    assert res["returncode"] == 0
    assert 0 < res["maxrss_mb"] < 0.5 * ballast.nbytes / 2**20


def test_metric_names_follow_benchmark_json():
    assert "setup_s" in run.E2E and run.E2E["peak_rss_mb"] == "MiB"
    assert run.PER_LAYER["gf.field_ops"] == "count" and "trace.overhead_s" in run.PER_LAYER


def test_pass_count_is_fixed_by_seconds_not_speed():
    budget = run.SPEC["run_seconds"]
    for name in run.workloads.WORKLOADS:
        n = run.workloads.passes(name, budget)
        assert n >= 2 and n * run.workloads.PASS_S[name] <= budget
    assert run.workloads.passes("large-graph", 1) == 2


def test_reference_task_runs_without_mosls(tmp_path):
    res = run.run_fresh([sys.executable, "-c", run.REFERENCE + "import sys; assert 'mosls' not in sys.modules"],
                        run.job_env(), tmp_path / "reference")
    assert res["returncode"] == 0, res["stderr"]
