"""Pipeline benchmark of the mosls command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The seed generates the workload's input
files (see workloads.py); orders, types and the job list do not depend on
it.  With --trace 0, jobs run as fresh processes, one after another (a
closed loop with one client), in passes over the job list, as many as fit
in S seconds on the host the benchmark was built on (workloads.PASS_S);
every job's output is checked (checker.py) outside the timed region, and
the end-to-end metrics are medians over passes; the wall-time ones are
given in units of a fixed reference task's time measured in the same run
(REFERENCE).  With --trace 1, the jobs run in-process three times, each in
a fresh process: untimed-plain, traced and counting (inproc.py), which
give the per-layer metrics and the tracing overhead.  The last stdout line
is one JSON object {correct, attempted, failed, metrics}; a fuller record,
with the environment and every sample, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

JOB_TIMEOUT_S = 120
INPROC_TIMEOUT_S = 150
SETUP_PER_PASS = 4

# metric names and units, as BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

sys.path.insert(0, str(HERE))
import checker  # noqa: E402
import workloads  # noqa: E402


def job_env() -> dict:
    env = dict(os.environ)
    # jobsite/ holds the start-up hook that reports a job's own peak RSS
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(HERE), str(HERE / "jobsite"), env.get("PYTHONPATH")]))
    return env


def run_fresh(cmd: list[str], env: dict, log: Path) -> dict:
    """Run one command as a fresh process; wall time covers fork to reap,
    CPU comes from the child's rusage and peak RSS from the child itself
    (jobsite/sitecustomize.py; 0 if it did not report one)."""
    peak = log.with_suffix(".rss")
    peak.unlink(missing_ok=True)
    env = {**env, "PERFBENCH_PEAK_RSS": str(peak)}
    with open(log.with_suffix(".out"), "w+") as out, open(log.with_suffix(".err"), "w+") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], JOB_TIMEOUT_S)[0]:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "returncode": proc.returncode, "stdout": out.read(), "stderr": err.read(), "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": int(peak.read_text()) / 1024 if peak.is_file() else 0.0,
        }


def job_command(job) -> list[str]:
    if job["kind"] == "cli":
        return [sys.executable, "-m", "mosls.cli", *job["argv"]]
    return [sys.executable, str(HERE / "libjob.py"), *job["argv"]]


def setup_sample(env: dict, work: Path) -> tuple[float, list[str]]:
    """One fresh-process `mosls --help`: interpreter, imports, parser."""
    res = run_fresh([sys.executable, "-m", "mosls.cli", "--help"], env, work / "help")
    ok = res["returncode"] == 0 and "usage: mosls" in res["stdout"]
    return res["wall"], [] if ok else [f"--help failed: {res['returncode']}"]


# A fixed interpreted task that imports nothing and does not touch mosls.
# The shared host's speed drifts by up to a third within minutes and moves
# every job with it; wall_rel and job_p50_rel divide by this task's median
# time, taken between the jobs of the same run, to cancel that drift.  It
# leaves out the numpy import on purpose: import time swung by a quarter
# between sets of runs while the jobs' wall time held.
REFERENCE = """\
t = 0
for i in range(40000):
    t += sum({k: k * i for k in range(8)}.values()) % 7 + len(str(i))
"""


def reference_sample(env: dict, work: Path) -> float:
    res = run_fresh([sys.executable, "-c", REFERENCE], env, work / "reference")
    if res["returncode"] != 0:
        raise RuntimeError(f"reference task failed: {res['stderr']}")
    return res["wall"]


def timed_run(jobs, n_passes: int, env: dict, work: Path) -> dict:
    """`n_passes` passes over the jobs.  The `--help` samples of setup_s and
    the reference task's samples are spread through each pass, so that
    they and the jobs see the same stretch of host load."""
    setup_sample(env, work)  # page cache warm-up, not reported
    stride = -(-len(jobs) // SETUP_PER_PASS)
    setup, reference, passes, problems = [], [], [], []
    failed = attempted = 0
    for _ in range(n_passes):
        results = []
        for i, job in enumerate(jobs):
            if i % stride == 0:
                wall, found = setup_sample(env, work)
                setup.append(wall)
                problems += found
                reference.append(reference_sample(env, work))
            results.append(run_fresh(job_command(job), env, work / job["id"]))
        tried, bad, found = checker.tally(jobs, results)
        attempted, failed, problems = attempted + tried, failed + bad, problems + found
        problems += [f"{job['id']}: no peak RSS reported" for job, res in zip(jobs, results) if not res["maxrss_mb"]]
        passes.append({job["id"]: {k: res[k] for k in ("wall", "cpu", "maxrss_mb")} for job, res in zip(jobs, results)})

    def per_job_median(key):
        # host interference only ever adds time; with an even pass count the
        # low median keeps one slowed sample out
        return [statistics.median_low(p[job["id"]][key] for p in passes) for job in jobs]

    # a median pass: each job's median over the passes, summed over the jobs
    metrics = {
        "wall_s": sum(per_job_median("wall")),
        "job_p50_s": statistics.median(p[job["id"]]["wall"] for p in passes for job in jobs),
        "reference_s": statistics.median(reference),
        "cpu_s": sum(per_job_median("cpu")),
        "peak_rss_mb": max(per_job_median("maxrss_mb")),
        "setup_s": statistics.median(setup),
    }
    metrics["wall_rel"] = metrics["wall_s"] / metrics["reference_s"]
    metrics["job_p50_rel"] = metrics["job_p50_s"] / metrics["reference_s"]
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "correct": failed == 0 and not problems, "problems": problems,
        "samples": {"passes": len(passes), "jobs_per_pass": len(jobs), "job_walls": len(passes) * len(jobs),
                    "setup": len(setup), "reference": len(reference)},
        "setup_walls": setup, "reference_walls": reference, "passes": passes,
    }


def inproc(mode: str, jobs_file: Path, work: Path, env: dict) -> dict:
    out = work / f"inproc-{mode}.json"
    cmd = [sys.executable, str(HERE / "inproc.py"), "--mode", mode, "--jobs", str(jobs_file), "--out", str(out)]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=INPROC_TIMEOUT_S)
    with open(out) as fh:
        return json.load(fh)


def traced_run(jobs, env: dict, work: Path) -> dict:
    jobs_file = work / "jobs.json"
    jobs_file.write_text(json.dumps(jobs))
    problems, attempted, failed, walls, reports = [], 0, 0, {}, {}
    for mode in ("plain", "traced", "count"):
        report = reports[mode] = inproc(mode, jobs_file, work, env)
        tried, bad, found = checker.tally(jobs, report["jobs"], f"{mode} ")
        attempted, failed, problems = attempted + tried, failed + bad, problems + found
        walls[mode] = sum(res["wall"] for res in report["jobs"])
    metrics = dict(reports["traced"]["metrics"])
    metrics["gf.field_ops"] = sum(reports["count"]["counts"].values())
    metrics["trace.overhead_s"] = walls["traced"] - walls["plain"]
    return {
        "metrics": {name: metrics[name] for name in PER_LAYER}, "attempted": attempted, "failed": failed,
        "correct": failed == 0, "problems": problems,
        "samples": {"passes": 1, "jobs_per_pass": len(jobs), "spans": reports["traced"]["spans"]},
        "in_process_wall": walls, "per_job": reports["traced"]["per_job"],
    }


def blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mosls" / "cli.py").is_file():
        print(f"error: no mosls sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    env = job_env()
    try:
        start = perf_counter()
        jobs = workloads.make_jobs(args.workload, work, args.seed)
        generate_s = perf_counter() - start
        if args.trace:
            result = traced_run(jobs, env, work)
        else:
            result = timed_run(jobs, workloads.passes(args.workload, args.seconds), env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "generate_s": generate_s,
              "fail_ratio": result["failed"] / result["attempted"], **result}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    for problem in result["problems"][:20]:
        print(f"problem: {problem}")
    if not args.trace:
        print("seconds: " + ", ".join(f"{k}={result['metrics'][k]:.4f}" for k in ("wall_s", "job_p50_s", "reference_s")))
    units = PER_LAYER if args.trace else E2E
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
