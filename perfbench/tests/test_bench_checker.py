"""Each kind of wrong output counts as a failed job, hence in fail_ratio."""

import copy
import json

import numpy as np
import pytest

import checker
import gen
import inproc
import workloads


def _job(jid, argv, check, **expect):
    return {"id": jid, "kind": "cli", "argv": argv, "check": check, "expect": expect}


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """Small real jobs of every checked command, run once in-process."""
    work = tmp_path_factory.mktemp("jobs")
    fam = gen.scramble(gen.build([(2, 1, 2)]), np.random.default_rng(4))
    fam.save(work / "f8.txt")
    one = fam.subset([2])
    one.save(work / "one8.txt")
    switch = gen.valid_switches(one.squares[0], one.q, one.r)[0]
    kind, index, (k1, k2) = switch
    jobs = [
        _job("construct", ["construct", "--p", "2", "--m", "1", "--n", "2", "--out", str(work / "c8.txt")],
             "construct", out=str(work / "c8.txt"), q=2, r=4, factors=[[2, 1, 2]]),
        _job("check", ["check", "--in", str(work / "f8.txt")], "check", count=4),
        _job("spectrum", ["spectrum", "--in", str(work / "f8.txt"), "--verify-closed-form"], "spectrum",
             q=2, r=4, squares=4, mols_only=False, numeric=True),
        _job("spectrum-json", ["spectrum", "--in", str(work / "f8.txt"), "--verify-closed-form", "--json"],
             "spectrum", q=2, r=4, squares=4, mols_only=False, numeric=True),
        _job("switch", ["switch", "--in", str(work / "one8.txt"), f"--{kind}", str(index), "--symbols",
                        f"{k1},{k2}", "--out", str(work / "sw8.txt")],
             "switch", switch=list(switch), **{"in": str(work / "one8.txt"), "out": str(work / "sw8.txt")}),
        _job("compare", ["compare", "--a", str(work / "one8.txt"), "--b", str(work / "sw8.txt")], "compare",
             verdict="NOT-ISOMORPHIC"),
        _job("table", ["table"], "table"),
    ]
    return {job["id"]: (job, res) for job, res in zip(jobs, inproc.run_jobs(jobs))}


def _failed(job, res) -> tuple[int, list[str]]:
    attempted, failed, problems = checker.tally([job], [res])
    assert attempted == 1
    return failed, problems


def test_correct_outputs_pass(ran):
    jobs, results = zip(*ran.values())
    assert checker.tally(jobs, results) == (len(jobs), 0, [])


@pytest.mark.parametrize("jid", ["construct", "spectrum", "switch", "table"])
def test_nonzero_exit_fails(ran, jid):
    job, res = ran[jid]
    assert _failed(job, dict(res, returncode=1))[0] == 1


@pytest.mark.parametrize("jid, old, new", [
    ("spectrum", "closed form: MATCH", "closed form: MISMATCH"),
    ("spectrum-json", '"closed_form": "MATCH"', '"closed_form": "MISMATCH"'),
    ("switch", "certificate: NOT-ISOMORPHIC", "certificate: INCONCLUSIVE"),
    ("switch", "closed form: MATCH", "closed form: MISMATCH"),
    ("compare", "verdict: NOT-ISOMORPHIC", "verdict: INCONCLUSIVE"),
    ("check", "verdict: PASS", "verdict: FAIL"),
    ("table", "VERIFIED", "FAILED"),
])
def test_wrong_verdict_fails(ran, jid, old, new):
    job, res = ran[jid]
    assert old in res["stdout"]
    assert _failed(job, dict(res, stdout=res["stdout"].replace(old, new, 1)))[0] == 1


def test_wrong_multiplicity_fails(ran):
    job, res = ran["spectrum"]
    lines = res["stdout"].splitlines(keepends=True)
    k = next(i for i, ln in enumerate(lines) if ln.startswith("  ") and ln.rstrip().endswith(" x1"))
    lines[k] = lines[k].replace(" x1", " x2")
    failed, problems = _failed(job, dict(res, stdout="".join(lines)))
    assert failed == 1 and any("eigenvalue" in p for p in problems)


def test_wrong_json_multiplicity_fails(ran):
    job, res = ran["spectrum-json"]
    payload = json.loads(res["stdout"])
    payload["numeric"][0]["mult"] += 1
    failed, problems = _failed(job, dict(res, stdout=json.dumps(payload)))
    assert failed == 1 and any("eigenvalue" in p for p in problems)


@pytest.mark.parametrize("jid, key", [("construct", "out"), ("switch", "out")])
def test_truncated_family_file_fails(ran, jid, key, tmp_path):
    job, res = ran[jid]
    text = open(job["expect"][key]).read()
    cut = tmp_path / "cut.txt"
    cut.write_text(text[: len(text) // 2])
    bad_job = copy.deepcopy(job)
    bad_job["expect"][key] = str(cut)
    failed, problems = _failed(bad_job, res)
    assert failed == 1 and "unreadable output" in problems[0]


def test_switch_outside_the_band_fails(ran, tmp_path):
    job, res = ran["switch"]
    fam = checker.parse_family(open(job["expect"]["out"]).read())
    sq = fam.squares[0].copy()
    sq[[0, -1]] = sq[[-1, 0]]  # rows of different bands exchanged
    moved = tmp_path / "moved.txt"
    gen.Family(fam.q, fam.r, [sq]).save(moved)
    bad_job = copy.deepcopy(job)
    bad_job["expect"]["out"] = str(moved)
    assert _failed(bad_job, res)[0] == 1


def test_every_workload_job_has_a_checker(tmp_path):
    for name in workloads.WORKLOADS:
        for job in workloads.make_jobs(name, tmp_path / name, 0):
            assert job["check"] in checker.CHECKS
