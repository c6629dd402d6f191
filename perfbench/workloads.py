"""The four workloads: seeded input files and the jobs that use them.

A job is a dict with `id`, `kind` ("cli" runs `python -m mosls.cli argv`,
"lib" runs libjob.py with argv), `argv`, `check` (the checker to apply) and
`expect` (what the checker compares against).  The seed changes only the
inputs (relabellings, the square, subset and switch picked); orders, types
and the job list never change, so the work per pass is the same for every
seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import gen

ORDER_CAP = "81"


def _cli(jid, argv, check, **expect):
    return {"id": jid, "kind": "cli", "argv": [str(a) for a in argv], "check": check, "expect": expect}


def _factor_args(factors) -> list[str]:
    if len(factors) == 1 and min(factors[0][1:]) >= 1:
        p, m, n = factors[0]
        return ["--p", p, "--m", m, "--n", n]
    return [tok for f in factors for tok in ("--factor", ":".join(map(str, f)))]


def _save(fam: gen.Family, path: Path) -> str:
    fam.save(path)
    return str(path)


# construct-validate: field orders 25..81 and composite 36, 48, 50
CONSTRUCT_FAMILIES = [
    ("f25", [(5, 1, 1)]),
    ("f27-3x9", [(3, 1, 2)]),
    ("f27-9x3", [(3, 2, 1)]),
    ("f32", [(2, 3, 2)]),
    ("f49", [(7, 1, 1)]),
    ("f64", [(2, 3, 3)]),
    ("f81", [(3, 2, 2)]),
    ("c36", [(2, 1, 1), (3, 1, 1)]),
    ("c48", [(2, 2, 2), (3, 0, 1)]),
    ("c50", [(2, 1, 0), (5, 1, 1)]),
]


def construct_validate(work: Path, rng: np.random.Generator) -> list[dict]:
    constructs, checks = [], []
    for name, factors in CONSTRUCT_FAMILIES:
        fam = gen.build(factors)
        out = work / f"{name}.txt"
        constructs.append(
            _cli(f"construct-{name}", ["construct", *_factor_args(factors), "--order-cap", ORDER_CAP, "--out", out],
                 "construct", out=str(out), q=fam.q, r=fam.r, factors=factors)
        )
        path = _save(gen.scramble(fam, rng), work / f"{name}-in.txt")
        checks.append(_cli(f"check-{name}", ["check", "--in", path], "check", count=len(fam)))
    return constructs + checks + [_cli("table", ["table"], "table")]


def spectrum_verify(work: Path, rng: np.random.Generator) -> list[dict]:
    # Symbols only: a row permutation reorders the cell graph's vertices,
    # and cyclic Jacobi's work depends on that order (1.8 s against 3.8 s
    # for two orders of one 144-vertex graph), so it would make the work
    # depend on the seed.
    fams = {
        name: gen.relabel(gen.build(factors), rng)
        for name, factors in [
            ("f8", [(2, 1, 2)]),
            ("f9", [(3, 1, 1)]),
            ("c12-2x6", [(2, 1, 1), (3, 0, 1)]),
            ("c12-3x4", [(3, 1, 0), (2, 0, 2)]),
        ]
    }
    paths = {name: _save(fam, work / f"{name}.txt") for name, fam in fams.items()}

    def spectrum(jid, name, extra, squares=None, mols_only=False, numeric=True):
        fam = fams[name]
        return _cli(jid, ["spectrum", "--in", paths[name], "--verify-closed-form", *extra], "spectrum",
                    q=fam.q, r=fam.r, squares=squares or len(fam), mols_only=mols_only, numeric=numeric)

    jobs = [spectrum(f"verify-{name}", name, []) for name in fams]
    f9 = fams["f9"]
    one = f9.subset([int(rng.integers(1, len(f9) + 1))])
    paths["one9"] = _save(one, work / "one9.txt")
    fams["one9"] = one
    jobs.append(spectrum("srg-one9", "one9", ["--mols-only"], mols_only=True))
    subset = sorted(rng.choice(np.arange(1, len(f9) + 1), size=3, replace=False).tolist())
    jobs.append(spectrum("subset-f9", "f9", ["--subset", ",".join(map(str, subset))], squares=3))
    jobs.append(spectrum("json-f8", "f8", ["--json"]))
    jobs.append(spectrum("exact-c12-3x4", "c12-3x4", ["--exact"], numeric=False))
    return jobs


SWITCH_SQUARES = [
    ("o6", [(2, 1, 0), (3, 0, 1)]),
    ("o8", [(2, 1, 2)]),
    ("o9", [(3, 1, 1)]),
    ("o12-2x6", [(2, 1, 1), (3, 0, 1)]),
    ("o12-3x4", [(3, 1, 0), (2, 0, 2)]),
    ("o12-4x3", [(2, 2, 0), (3, 0, 1)]),
]


def switch_certify(work: Path, rng: np.random.Generator) -> list[dict]:
    switches, compares, squares = [], [], {}
    for name, factors in SWITCH_SQUARES:
        fam = gen.scramble(gen.build(factors), rng)
        one = fam.subset([int(rng.integers(1, len(fam) + 1))])
        src = _save(one, work / f"{name}.txt")
        squares[name] = (one, src)
        dst = str(work / f"{name}-switched.txt")
        valid = gen.valid_switches(one.squares[0], one.q, one.r)
        kind, index, (k1, k2) = valid[int(rng.integers(len(valid)))]
        switches.append(
            _cli(f"switch-{name}", ["switch", "--in", src, f"--{kind}", index, "--symbols", f"{k1},{k2}", "--out", dst],
                 "switch", switch=[kind, index, [k1, k2]], **{"in": src, "out": dst})
        )
        compares.append(_cli(f"compare-{name}", ["compare", "--a", src, "--b", dst], "compare", verdict="NOT-ISOMORPHIC"))
    one, src = squares["o9"]
    copy = _save(gen.scramble(one, rng), work / "o9-relabelled.txt")
    compares.append(_cli("compare-o9-relabelled", ["compare", "--a", src, "--b", copy], "compare", verdict="INCONCLUSIVE"))
    return switches + compares


def large_graph(work: Path, rng: np.random.Generator) -> list[dict]:
    jobs = []
    paths = {}
    for name, factors in [("f16", [(2, 2, 2)]), ("f25", [(5, 1, 1)]), ("f27-3x9", [(3, 1, 2)]), ("f27-9x3", [(3, 2, 1)])]:
        fam = gen.scramble(gen.build(factors), rng)
        paths[name] = (_save(fam, work / f"{name}.txt"), fam)
        square = int(rng.integers(1, len(fam) + 1))
        jobs.append({
            "id": f"graph-{name}", "kind": "lib", "argv": ["--in", paths[name][0], "--square", str(square)],
            "check": "graph", "expect": {"q": fam.q, "r": fam.r, "squares": len(fam)},
        })
    for name, fmt in [("f25", "edges"), ("f16", "matrix")]:
        path, fam = paths[name]
        out = work / f"{name}.{fmt}"
        jobs.append(_cli(f"export-{name}-{fmt}", ["graph-export", "--in", path, "--format", fmt, "--out", out],
                         "graph-export", out=str(out), format=fmt, q=fam.q, r=fam.r, squares=len(fam)))
    return jobs


WORKLOADS = {
    "construct-validate": construct_validate,
    "spectrum-verify": spectrum_verify,
    "switch-certify": switch_certify,
    "large-graph": large_graph,
}


# Seconds one pass takes on the 2-CPU host the benchmark was built on, with
# its `--help` and reference-task samples and output checks.  A run makes
# --seconds // PASS_S passes (at least two), so every run of a workload
# does the same work whatever the host load, and a faster program does not
# get more samples.
PASS_S = {
    "construct-validate": 12.0,
    "spectrum-verify": 14.0,
    "switch-certify": 11.0,
    "large-graph": 8.5,
}


def passes(workload: str, seconds: float) -> int:
    return max(2, int(seconds // PASS_S[workload]))


def make_jobs(workload: str, work: Path, seed: int) -> list[dict]:
    """Write the workload's seeded inputs under `work` and return its jobs."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](work, np.random.default_rng(seed))
