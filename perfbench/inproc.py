"""Run a workload's jobs one after another inside this process.

    python perfbench/inproc.py --mode plain|traced|count --jobs JOBS.json --out RESULT.json

CLI jobs call `mosls.cli.main(argv)` and library jobs `libjob.main(argv)`,
with their output captured.  `plain` only times the jobs, `traced` also
records the layer spans (see tracing.py), `count` counts field operations.
Each mode runs in a fresh process, so all three pay the same one-off costs.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import traceback
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from time import perf_counter

import libjob
import tracing


def run_jobs(jobs, tracer=None) -> list[dict]:
    """Run every job; returns returncode, stdout, stderr and wall per job."""
    import mosls.cli

    results = []
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = job["id"]
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                if job["kind"] == "cli":
                    code = mosls.cli.main(job["argv"])
                else:
                    with tracer.span("job.libjob") if tracer else nullcontext():
                        code = libjob.main(job["argv"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crashing job fails, as its own process would
                traceback.print_exc()
                code = 1
        results.append({
            "id": job["id"], "returncode": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "wall": perf_counter() - start,
        })
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["plain", "traced", "count"], required=True)
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.jobs) as fh:
        jobs = json.load(fh)

    report = {"mode": args.mode}
    if args.mode == "traced":
        tracer = tracing.Tracer()
        report["patched"] = tracer.install()
        report["jobs"] = run_jobs(jobs, tracer)
        report["metrics"], report["per_job"] = tracing.analyse(tracer.spans)
        report["spans"] = len(tracer.spans)
    elif args.mode == "count":
        counts: Counter = Counter()
        report["patched"] = tracing.count_field_ops(counts)
        report["jobs"] = run_jobs(jobs)
        report["counts"] = dict(counts)
    else:
        report["jobs"] = run_jobs(jobs)
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
