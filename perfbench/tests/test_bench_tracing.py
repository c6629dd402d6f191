"""The traced pass sees calls through every alias and accounts for all of
each job's time."""

import json

import pytest

import checker
import run
import tracing
import workloads


def _traced(name, tmp_path, keep=lambda job: True):
    jobs = [job for job in workloads.make_jobs(name, tmp_path, 1) if keep(job)]
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps(jobs))
    report = run.inproc("traced", jobs_file, tmp_path, run.job_env())
    assert checker.tally(jobs, report["jobs"]) == (len(jobs), 0, [])
    return jobs, report


@pytest.fixture(scope="module")
def switch_certify(tmp_path_factory):
    return _traced("switch-certify", tmp_path_factory.mktemp("switch"))


@pytest.fixture(scope="module")
def spectrum_verify(tmp_path_factory):
    return _traced("spectrum-verify", tmp_path_factory.mktemp("spectrum"))


def test_aliases_are_wrapped():
    bound = {(mod.__name__, attr) for mod, attr, _, _ in tracing._bindings()}
    assert {("mosls.switching", "charpoly_exact"), ("mosls.switching", "build_mosls_graph"),
            ("mosls.spectra", "charpoly_exact"), ("mosls", "charpoly_exact")} <= bound


def test_two_charpolys_per_switch_and_compare_job(switch_certify):
    jobs, report = switch_certify
    for job in jobs:
        assert report["per_job"][job["id"]]["calls"]["spectra.charpoly_exact"] == 2, job["id"]


def test_no_jacobi_in_switch_certify(switch_certify):
    _, report = switch_certify
    assert report["metrics"]["spectra.jacobi_calls"] == 0
    assert report["metrics"]["spectra.jacobi_s"] == 0


def test_one_charpoly_per_spectrum_job(spectrum_verify):
    jobs, report = spectrum_verify
    assert len(jobs) == 8
    for job in jobs:
        calls = report["per_job"][job["id"]]["calls"]
        assert calls["spectra.charpoly_exact"] == 1, job["id"]
        assert calls.get("spectra.jacobi_eigenvalues", 0) == (0 if "--exact" in job["argv"] else 1), job["id"]


@pytest.mark.parametrize("fixture", ["switch_certify", "spectrum_verify"])
def test_layer_self_times_add_up_to_the_job(fixture, request):
    jobs, report = request.getfixturevalue(fixture)
    for job in jobs:
        record = report["per_job"][job["id"]]
        assert set(record["self"]) <= set(tracing.LAYERS)
        assert sum(record["self"].values()) == pytest.approx(record["time"], rel=1e-9)
        assert record["self"]["cli"] > 0


def test_every_traced_layer_metric_is_reported(spectrum_verify):
    _, report = spectrum_verify
    computed_elsewhere = {"gf.field_ops", "trace.overhead_s"}
    assert set(run.PER_LAYER) - computed_elsewhere <= set(report["metrics"])
    metrics = report["metrics"]
    assert metrics["spectra.crt_primes"] > 0 and metrics["graph.build_s"] > 0
    assert 0 < metrics["spectra.charpoly_s"] <= metrics["spectra.self_s"]
    assert metrics["construct.field_square_calls"] == 0


def test_library_job_root_and_counts(tmp_path):
    jobs, report = _traced("large-graph", tmp_path, lambda job: job["id"] == "graph-f16")
    record = report["per_job"]["graph-f16"]
    assert sum(record["self"].values()) == pytest.approx(record["time"], rel=1e-9)
    assert record["calls"]["job.libjob"] == 1
    # 256 vertices: commute (2 N^3) + srg (N^3) + quotient (N^2 * 16)
    n = 256
    assert report["metrics"]["graph.matmul_macs"] == 3 * n**3 + n * n * 16
    assert report["metrics"]["graph.srg_check_s"] > 0


def test_field_operations_are_counted(tmp_path):
    job = {"id": "c9", "kind": "cli", "argv": ["construct", "--p", "3", "--m", "1", "--n", "1"],
           "check": "construct", "expect": {}}
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps([job]))
    report = run.inproc("count", jobs_file, tmp_path, run.job_env())
    assert report["jobs"][0]["returncode"] == 0
    # 6 squares of 81 cells, one mul and one sub per cell, plus the coset sums
    assert report["counts"]["gf.mul"] == 6 * 81
    assert report["counts"]["gf.sub"] == 6 * 81
