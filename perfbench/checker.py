"""Output checks that do not trust the program under test.

Every check returns a list of problems; an empty list means the job's
output is right.  Families are parsed and validated with numpy here, and
spectra are compared with the paper's closed forms, recomputed here.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from itertools import combinations

import numpy as np

from gen import Family, apply_switch, family_size


class CheckError(ValueError):
    """Malformed program output."""


# ---------------------------------------------------------------------------
# families


def parse_family(text: str) -> Family:
    """Strict reader of the `mosls v1` format; a truncated file raises."""
    lines = text.split("\n")
    if len(lines) < 3 or lines[0] != "mosls v1" or lines[-1] != "":
        raise CheckError("not a complete mosls v1 file")
    head = lines[1].split()
    if len(head) != 7 or head[0] != "order" or head[2] != "type" or head[5] != "count":
        raise CheckError(f"bad size line {lines[1]!r}")
    n, q, r, f = int(head[1]), int(head[3]), int(head[4]), int(head[6])
    body = lines[2:-1]
    if q * r != n or len(body) != f * n + f - 1:
        raise CheckError(f"expected {f} squares of order {n}, got {len(body)} lines")
    squares = []
    for k in range(f):
        rows = body[k * (n + 1) : k * (n + 1) + n]
        if k and body[k * (n + 1) - 1] != "":
            raise CheckError(f"missing blank line before square {k + 1}")
        sq = np.array([row.split() for row in rows], dtype=np.int64)
        if sq.shape != (n, n):
            raise CheckError(f"square {k + 1} is not {n}x{n}")
        squares.append(sq)
    return Family(q, r, squares)


def is_latin(sq: np.ndarray) -> bool:
    want = np.arange(1, sq.shape[0] + 1)
    return bool((np.sort(sq, axis=0) == want[:, None]).all() and (np.sort(sq, axis=1) == want).all())


def _blocks(sq: np.ndarray, q: int, r: int) -> np.ndarray:
    """(r*q, q*r) array: one row per block, block-row-major."""
    n = q * r
    return sq.reshape(r, q, q, r).transpose(0, 2, 1, 3).reshape(n, n)


def is_sudoku(sq: np.ndarray, q: int, r: int) -> bool:
    want = np.arange(1, q * r + 1)
    return is_latin(sq) and bool((np.sort(_blocks(sq, q, r), axis=1) == want).all())


def are_orthogonal(a: np.ndarray, b: np.ndarray) -> bool:
    n = a.shape[0]
    return bool((np.bincount(((a - 1) * n + b - 1).ravel(), minlength=n * n) == 1).all())


def is_block_permutational(sq: np.ndarray, q: int, r: int) -> bool:
    """Every block is a row and column permutation of the first: the map
    from a symbol's row (column) in the first block to its row (column) in
    any other block is a function."""
    blocks = _blocks(sq, q, r).reshape(-1, q, r)
    where = np.argsort(blocks.reshape(len(blocks), -1), axis=1)
    rows, cols = where // r, where % r
    for mine, base, size in ((rows, rows[0], q), (cols, cols[0], r)):
        pairs = mine * size + base
        if any(np.unique(p).size != size for p in pairs):
            return False
    return True


def family_problems(fam: Family, q: int, r: int, count: int) -> list[str]:
    """Type, size, Latin, Sudoku, block-permutational and pairwise
    orthogonal."""
    if (fam.q, fam.r) != (q, r):
        return [f"type ({fam.q}, {fam.r}), expected ({q}, {r})"]
    if len(fam) != count:
        return [f"{len(fam)} squares, expected {count}"]
    problems = []
    for k, sq in enumerate(fam.squares, start=1):
        if not is_sudoku(sq, q, r):
            problems.append(f"square {k} is not a Sudoku Latin square")
        elif not is_block_permutational(sq, q, r):
            problems.append(f"square {k} is not block-permutational")
    for (i, a), (j, b) in combinations(enumerate(fam.squares, start=1), 2):
        if not are_orthogonal(a, b):
            problems.append(f"squares {i},{j} are not orthogonal")
    return problems


# ---------------------------------------------------------------------------
# closed forms of the source paper


def mosls_spectrum(q: int, r: int, f: int) -> dict[int, int]:
    """Cell-graph spectrum of f block-permutational squares of type (q, r)."""
    e, n = (q - 1) * (r - 1), q * r
    lines = [
        (e + (n - 1) * (f + 2), 1),
        (e + n - 2 - f, q + r - 2),
        (e - 2 - f, e),
        (n - 1 - f, f * e),
        (n - q - 1 - f, (r - 1) * (q + f)),
        (n - r - 1 - f, (q - 1) * (r + f)),
        (-1 - f, e * (n - f)),
        (-q - 1 - f, (r - 1) * (n - q - f)),
        (-r - 1 - f, (q - 1) * (n - r - f)),
    ]
    out: Counter = Counter()
    for value, mult in lines:
        out[value] += mult
    return {v: m for v, m in out.items() if m}


def latin_square_graph_spectrum(n: int) -> dict[int, int]:
    """One square without block edges: SRG(n^2, 3(n-1), n, 6)."""
    return {3 * (n - 1): 1, n - 3: 3 * (n - 1), -3: (n - 1) * (n - 2)}


def quotient_spectrum(q: int, r: int, f: int) -> dict[int, int]:
    n = q * r
    out: Counter = Counter()
    out[3 * n - q - r - 1 + f * (n - 1)] += 1
    out[2 * n - q - r - 1 - f] += q + r - 2
    out[n - q - r - 1 - f] += (q - 1) * (r - 1)
    return {v: m for v, m in out.items() if m}


def mosls_degree(q: int, r: int, f: int) -> int:
    return (f + 2) * (q * r - 1) + (q - 1) * (r - 1)


def charpoly_of(spectrum: dict[int, int]) -> list[int]:
    """Ascending integer coefficients of prod (t - value)^mult."""
    coeffs = [1]
    for value, mult in spectrum.items():
        for _ in range(mult):
            shifted = [0] + coeffs
            coeffs = [s - value * c for s, c in zip(shifted, coeffs + [0])]
    return coeffs


def spectrum_problems(groups, spectrum: dict[int, int], tol: float = 1e-6) -> list[str]:
    """Numeric (value, multiplicity) groups against a closed form."""
    got = sorted(groups, key=lambda g: -g[0])
    want = sorted(spectrum.items(), key=lambda g: -g[0])
    if len(got) != len(want):
        return [f"{len(got)} eigenvalue groups, expected {len(want)}"]
    problems = []
    for (value, mult), (exp_value, exp_mult) in zip(got, want):
        if abs(value - exp_value) > tol * max(1.0, abs(exp_value)) or mult != exp_mult:
            problems.append(f"eigenvalue {value} x{mult}, expected {exp_value} x{exp_mult}")
    return problems


# ---------------------------------------------------------------------------
# per-command output checks; `job` is a workload job dict, `out` its result


def _read(path) -> str:
    with open(path) as fh:
        return fh.read()


def _lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln.strip()]


def check_construct(job, out) -> list[str]:
    exp = job["expect"]
    problems = []
    if "validation PASS" not in out["stdout"]:
        problems.append("construct did not report validation PASS")
    fam = parse_family(_read(exp["out"]))
    return problems + family_problems(fam, exp["q"], exp["r"], family_size(exp["factors"]))


def check_check(job, out) -> list[str]:
    exp = job["expect"]
    lines = _lines(out["stdout"])
    f = exp["count"]
    squares = [ln for ln in lines if ln.startswith("square ")]
    pairs = [ln for ln in lines if ln.startswith("squares ")]
    problems = []
    if lines[-1:] != ["verdict: PASS"]:
        problems.append("check verdict is not PASS")
    if len(squares) != f or any(
        not ln.endswith("latin yes sudoku yes block-permutational yes") for ln in squares
    ):
        problems.append("per-square validation lines are wrong")
    if len(pairs) != f * (f - 1) // 2 or any(not ln.endswith("orthogonal yes") for ln in pairs):
        problems.append("pairwise orthogonality lines are wrong")
    return problems


# (order, q, r, count, status) of the paper's table of family sizes up to order 12
TABLE = [
    (2, 1, 2, 1, "VERIFIED"), (3, 1, 3, 2, "VERIFIED"), (4, 1, 4, 3, "VERIFIED"),
    (4, 2, 2, 2, "VERIFIED"), (5, 1, 5, 4, "VERIFIED"), (6, 1, 6, 1, "VERIFIED"),
    (6, 2, 3, 1, "VERIFIED"), (7, 1, 7, 6, "VERIFIED"), (8, 1, 8, 7, "VERIFIED"),
    (8, 2, 4, 4, "VERIFIED"), (9, 1, 9, 8, "VERIFIED"), (9, 3, 3, 6, "VERIFIED"),
    (10, 1, 10, 2, "SKIPPED"), (10, 2, 5, 1, "VERIFIED"), (11, 1, 11, 10, "VERIFIED"),
    (12, 1, 12, 5, "SKIPPED"), (12, 2, 6, 2, "VERIFIED"), (12, 3, 4, 2, "VERIFIED"),
]
_TABLE_LINE = re.compile(r"order +(\d+) type \((\d+), (\d+)\) count (?:>=)?(\d+) (VERIFIED|SKIPPED)")


def check_table(job, out) -> list[str]:
    rows = []
    for ln in _lines(out["stdout"]):
        m = _TABLE_LINE.match(ln)
        if not m:
            return [f"unexpected table line {ln!r}"]
        rows.append(tuple(int(x) for x in m.groups()[:4]) + (m.group(5),))
    return [] if rows == TABLE else ["table rows differ from the paper's table"]


def _spectrum_output(job, out) -> dict:
    if "--json" in job["argv"]:
        payload = json.loads(out["stdout"])
        payload["numeric"] = [(g["value"], g["mult"]) for g in payload["numeric"]]
        payload["charpoly"] = [int(c) for c in payload.get("charpoly", [])]
        return payload
    payload = {"numeric": [], "charpoly": []}
    for ln in out["stdout"].splitlines():
        if ln.startswith("graph: "):
            tok = ln.split()
            payload["squares"] = int(tok[tok.index("squares") + 1])
            payload["vertices"] = int(tok[tok.index("vertices") + 1])
        elif ln.startswith("charpoly: "):
            payload["charpoly"] = [int(c) for c in ln.split()[1:]]
        elif ln.startswith("  "):
            value, mult = ln.split()
            payload["numeric"].append((float(value), int(mult.lstrip("x"))))
        elif ln.startswith("closed form: "):
            payload["closed_form"] = ln[len("closed form: ") :]
    return payload


def check_spectrum(job, out) -> list[str]:
    exp = job["expect"]
    got = _spectrum_output(job, out)
    spectrum = (
        latin_square_graph_spectrum(exp["q"] * exp["r"])
        if exp["mols_only"]
        else mosls_spectrum(exp["q"], exp["r"], exp["squares"])
    )
    problems = []
    if got.get("closed_form") != "MATCH":
        problems.append(f"closed form verdict {got.get('closed_form')!r}, expected 'MATCH'")
    if got.get("squares") != exp["squares"]:
        problems.append(f"graph on {got.get('squares')} squares, expected {exp['squares']}")
    if got["charpoly"] != charpoly_of(spectrum):
        problems.append("charpoly differs from the closed form")
    if exp["numeric"]:
        problems += spectrum_problems(got["numeric"], spectrum)
    elif got["numeric"]:
        problems.append("numeric eigenvalues printed for an exact-only run")
    return problems


def check_switch(job, out) -> list[str]:
    exp = job["expect"]
    problems = []
    if "certificate: NOT-ISOMORPHIC" not in out["stdout"]:
        problems.append("switch certificate is not NOT-ISOMORPHIC")
    if "closed form: MATCH" not in out["stdout"]:
        problems.append("switch closed form is not MATCH")
    before = parse_family(_read(exp["in"]))
    after = parse_family(_read(exp["out"]))
    if len(after) != 1 or (after.q, after.r) != (before.q, before.r):
        return problems + ["switched file is not one square of the input type"]
    want = apply_switch(before.squares[0], before.q, before.r, exp["switch"])
    if not np.array_equal(after.squares[0], want):
        problems.append("switched square is not the input with the symbols exchanged in the band")
    if not is_sudoku(after.squares[0], after.q, after.r):
        problems.append("switched square is not Sudoku")
    return problems


def check_compare(job, out) -> list[str]:
    verdict = job["expect"]["verdict"]
    lines = _lines(out["stdout"])
    if not lines or lines[0] != f"verdict: {verdict}":
        return [f"compare verdict {lines[:1]}, expected {verdict}"]
    if verdict == "NOT-ISOMORPHIC" and not (len(lines) == 2 and lines[1].startswith("first differing coefficient: t^")):
        return ["compare did not name the first differing coefficient"]
    return []


def check_graph_job(job, out) -> list[str]:
    exp = job["expect"]
    q, r, f = exp["q"], exp["r"], exp["squares"]
    n = q * r
    got = json.loads(out["stdout"])
    problems = []
    k = mosls_degree(q, r, f)
    if got["vertices"] != n * n or got["degree"] != [k, k]:
        problems.append(f"graph has {got['vertices']} vertices of degree {got['degree']}, expected {n * n} of {k}")
    if got["commute"] is not True:
        problems.append("Latin and block adjacency reported as not commuting")
    if got["srg"] != [n * n, 3 * (n - 1), n, 6]:
        problems.append(f"SRG parameters {got['srg']}, expected {[n * n, 3 * (n - 1), n, 6]}")
    quot = np.array(got["quotient"], dtype=np.float64)
    if quot.shape != (n, n) or not (quot.sum(axis=1) == k).all() or not np.array_equal(quot, quot.T):
        problems.append("block quotient is not an n x n symmetric matrix with row sums k")
    else:
        values = np.linalg.eigvalsh(quot)[::-1]
        groups = Counter(np.round(values).astype(int).tolist())
        if np.abs(values - np.round(values)).max() > 1e-6:
            problems.append("block quotient has non-integer eigenvalues")
        problems += spectrum_problems(list(groups.items()), quotient_spectrum(q, r, f))
    return problems


def check_export(job, out) -> list[str]:
    exp = job["expect"]
    n = exp["q"] * exp["r"]
    nv, k = n * n, mosls_degree(exp["q"], exp["r"], exp["squares"])
    data = np.array(_read(exp["out"]).split(), dtype=np.int64)
    if exp["format"] == "edges":
        if data.size != nv * k:
            return [f"{data.size // 2} edges, expected n^2*k/2 = {nv * k // 2}"]
        u, v = data[0::2], data[1::2]
        if not ((1 <= u) & (u < v) & (v <= nv)).all():
            return ["edge endpoints out of order or range"]
        degree = np.bincount(np.concatenate([u, v]), minlength=nv + 1)[1:]
    else:
        if data.size != nv * nv:
            return [f"matrix has {data.size} entries, expected {nv * nv}"]
        adj = data.reshape(nv, nv)
        if not (np.array_equal(adj, adj.T) and set(np.unique(adj)) <= {0, 1} and not adj.diagonal().any()):
            return ["matrix is not a symmetric 0/1 adjacency without loops"]
        degree = adj.sum(axis=1)
    return [] if (degree == k).all() else [f"vertex degrees differ from k = {k}"]


CHECKS = {
    "construct": check_construct,
    "check": check_check,
    "table": check_table,
    "spectrum": check_spectrum,
    "switch": check_switch,
    "compare": check_compare,
    "graph": check_graph_job,
    "graph-export": check_export,
}


def tally(jobs, results, label: str = "") -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over jobs and their results, in order."""
    problems, failed = [], 0
    for job, out in zip(jobs, results, strict=True):
        bad = job_problems(job, out)
        failed += bool(bad)
        problems += [f"{label}{job['id']}: {p}" for p in bad]
    return len(results), failed, problems


def job_problems(job, out) -> list[str]:
    """Exit code plus the command's own output checks; any exception while
    reading the output is itself a problem."""
    if out["returncode"] != 0:
        return [f"exit code {out['returncode']}: {out['stderr'].strip()[-200:]}"]
    try:
        return CHECKS[job["check"]](job, out)
    except (CheckError, ValueError, KeyError, IndexError, OSError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
