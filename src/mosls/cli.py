"""Command-line interface.

Commands: construct, check, spectrum, graph-export, switch, compare,
table.  Exit codes: 0 when all requested checks pass, 1 when a
mathematical check or precondition fails (invalid square, verification
mismatch, invalid switch), 2 for usage, flag, or input format errors.
All outputs are deterministic for fixed inputs and flags.

A layer loads on its first use as `mosls.<layer>`; once argparse has read
argv, main loads the command's top layer (_TOP_LAYER), so --help and usage
errors load no layer and no numpy.  Its imports load the other layers
before designs imports numpy, whose import reuses their compile heap; run
from source, compiles after numpy kept 1.1-1.3 MiB in the peak RSS of
`spectrum`, `switch` and `compare`.  `check`, `construct` and `table` load
designs first: construct imports numpy, so designs' compile (0.97 MiB)
would follow it, not gf's (0.44).  tests/test_imports.py pins what each
command loads: designs always, construct and gf for `construct` and
`table` only, never graph, spectra or switching for `check`, `construct`
or `table`, json for --json.  Loading this module registers gc.freeze to
run at exit, so the exit-time collections skip the import heap.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys

import mosls

# numpy's bundled OpenBLAS starts one worker per extra CPU when it loads,
# and an idle worker busy-polls for 2**28 cycles (about 0.1 s) after the
# load and after every threaded product.  A command runs for about 0.2 s,
# so that spin was 37-39% of the CPU time of the spectrum, construct and
# switch benchmark jobs (2-CPU host, numpy 2.4.6).  4 is OpenBLAS's
# minimum, 2**4 cycles: an idle worker sleeps at once and the next
# threaded product wakes it, so the thread count and the split of every
# product stay as they are (OPENBLAS_NUM_THREADS=1 saves the same CPU but
# made order-49 `spectrum` 60% slower).  It must be set before numpy
# loads; a value the user set wins, and other BLAS builds ignore it.  Set
# here, not in the library, which leaves its host's environment alone.
_OPENBLAS_THREAD_TIMEOUT = "4"
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", _OPENBLAS_THREAD_TIMEOUT)


def _print_json(obj, file=None) -> None:
    import json

    print(json.dumps(obj, indent=2), file=file)


def _int_fields(flag: str, text: str, form: str = "") -> tuple[int, ...]:
    """The integers of a flag's text, split on the separator of form
    ('K1,K2' or 'p:m:n') and as many as its fields; without a form, a
    comma-separated list of at least one, empty fields skipped."""
    sep = ":" if ":" in form else ","
    parts = text.split(sep)
    if form and len(parts) != len(form.split(sep)):
        raise mosls.designs.FormatError(f"{flag} expects {form!r}, got {text!r}")
    try:
        values = tuple(int(tok) for tok in parts if form or tok)
    except ValueError:
        raise mosls.designs.FormatError(f"{flag} expects integers, got {text!r}") from None
    if not values:
        raise mosls.designs.FormatError(f"{flag} selects no square: {text!r}")
    return values


def _write_family(fam: mosls.designs.MoslsFamily, out):
    """Save fam to the file out, or write it to stdout without one; returns
    the stream for the summary, the one the family did not go to."""
    if out:
        mosls.designs.save_family(fam, out)
        return sys.stdout
    mosls.designs.write_family(fam, sys.stdout)
    return sys.stderr


def _composite(factors, order_cap):
    cap = mosls.construct.DEFAULT_ORDER_CAP if order_cap is None else order_cap
    return mosls.construct.composite_mosls(factors, cap)


def _family_checks(fam: mosls.designs.MoslsFamily) -> dict:
    squares = []
    for sq in fam.squares:
        latin = mosls.designs.is_latin(sq)
        sudoku = mosls.designs.is_sudoku(sq) if latin else False
        bp = mosls.designs.is_block_permutational(sq) if sudoku else False
        squares.append({"latin": latin, "sudoku": sudoku, "block_permutational": bp})
    # one pass: load_family and the constructors give symbols in 1..n, as _repeats needs
    pairs = mosls.designs._repeats([sq.entries for sq in fam.squares], fam.shape.order)
    orthogonal = [[i + 1, j + 1, not repeated] for i, j, repeated in pairs]
    return {
        "order": fam.shape.order,
        "type": [fam.shape.q, fam.shape.r],
        "count": len(fam),
        "squares": squares,
        "orthogonal": orthogonal,
        "pass": all(s["latin"] and s["sudoku"] for s in squares) and all(o[2] for o in orthogonal),
    }


def _print_checks(report: dict) -> None:
    q, r = report["type"]
    print(f"order {report['order']} type {q} {r} count {report['count']}")
    for k, s in enumerate(report["squares"], start=1):
        print(
            f"square {k}: latin {'yes' if s['latin'] else 'no'} "
            f"sudoku {'yes' if s['sudoku'] else 'no'} "
            f"block-permutational {'yes' if s['block_permutational'] else 'no'}"
        )
    for i, j, ok in report["orthogonal"]:
        print(f"squares {i},{j}: orthogonal {'yes' if ok else 'no'}")
    print(f"verdict: {'PASS' if report['pass'] else 'FAIL'}")


# ---------------------------------------------------------------------------
# commands


def cmd_construct(args) -> int:
    if args.factor:
        if args.p is not None or args.m is not None or args.n is not None:
            raise ValueError("use either --p/--m/--n or --factor, not both")
        factors = [_int_fields("--factor", tok, "p:m:n") for tok in args.factor]
    else:
        if args.p is None or args.m is None or args.n is None:
            raise ValueError("--p, --m and --n are required without --factor")
        factors = [(args.p, args.m, args.n)]
    fam = _composite(factors, args.order_cap)
    if args.count is not None:
        if not 1 <= args.count <= len(fam):
            raise ValueError(f"--count {args.count} outside 1..{len(fam)}")
        fam = mosls.designs.MoslsFamily(fam.shape, fam.squares[: args.count])
    report = _family_checks(fam)
    dest = _write_family(fam, args.out)
    print(
        f"constructed {report['count']} squares of order {report['order']} "
        f"type ({report['type'][0]}, {report['type'][1]}); "
        f"validation {'PASS' if report['pass'] else 'FAIL'}",
        file=dest,
    )
    return 0 if report["pass"] else 1


def cmd_check(args) -> int:
    fam = mosls.designs.load_family(args.input)
    report = _family_checks(fam)
    if args.json:
        _print_json(report)
    else:
        _print_checks(report)
    return 0 if report["pass"] else 1


def _build_graph(args):
    """The cell graph of the --in family over the --subset squares."""
    fam = mosls.designs.load_family(args.input)
    subset = None if args.subset is None else _int_fields("--subset", args.subset)
    build = mosls.graph.build_mols_graph if args.mols_only else mosls.graph.build_mosls_graph
    return build(fam, subset)


def cmd_spectrum(args) -> int:
    g = _build_graph(args)
    mosls.spectra._check_group_tol(args.group_tol)  # in every mode, --exact too
    if not args.exact:
        report = mosls.spectra.numeric_spectrum(
            g.adjacency, group_tol=args.group_tol, with_charpoly=not args.numeric
        )
    else:
        report = mosls.spectra.SpectrumReport([(mosls.spectra.charpoly_exact(g.adjacency), 1)], [], None)

    verdict = mosls.spectra._closed_form_verdict(g, report.factors) if args.verify_closed_form else None

    payload = report.to_json_dict()
    payload["flavor"] = g.flavor
    payload["order"] = g.order
    payload["type"] = [g.shape.q, g.shape.r]
    payload["squares"] = len(g.squares)
    if verdict is not None:
        payload["closed_form"] = verdict

    if args.json:
        _print_json(payload)
    else:
        print(
            f"graph: flavor {g.flavor} order {g.order} type {g.shape.q} {g.shape.r} "
            f"squares {len(g.squares)} vertices {g.num_vertices}"
        )
        if report.charpoly is not None:
            print("charpoly: " + " ".join(report.charpoly.decimal_strings()))
        if report.numeric:
            print("numeric:")
            for value, mult in report.numeric:
                print(f"  {value:.10g} x{mult}")
        if report.residual is not None:
            print(f"residual: {report.residual:.3e}")
        if verdict is not None:
            print(f"closed form: {verdict}")
    if verdict is not None and verdict.startswith("MISMATCH"):
        return 1
    return 0


def cmd_graph_export(args) -> int:
    g = _build_graph(args)
    write = mosls.graph.edge_lines if args.format == "edges" else mosls.graph.matrix_lines
    if args.out:
        with open(args.out, "w") as fh:
            write(g, fh)
    else:
        write(g, sys.stdout)
    return 0


def cmd_switch(args) -> int:
    fam = mosls.designs.load_family(args.input)
    if len(fam) != 1:
        raise ValueError("switch expects a single-square family file")
    if (args.row_block is None) == (args.col_block is None):
        raise ValueError("exactly one of --row-block or --col-block is required")
    symbols = _int_fields("--symbols", args.symbols, "K1,K2")
    kind, index = ("row-block", args.row_block) if args.row_block is not None else ("col-block", args.col_block)
    spec = mosls.switching.SwitchSpec(kind, index, symbols)

    square = fam.squares[0]
    switched = mosls.switching.sudoku_symbol_switch(square, spec)
    # certify before writing, so a square whose charpoly is refused writes nothing
    cert = mosls.switching.nonisomorphism_certificate(square, switched)
    dest = _write_family(mosls.designs.MoslsFamily(fam.shape, (switched,)), args.out)
    theorem = mosls.switching._theorem_verdict(square, spec, cert)
    print(f"certificate: {cert.verdict}", file=dest)
    print(f"closed form: {theorem}", file=dest)
    if args.json:
        payload = cert.to_json_dict()
        payload["closed_form"] = theorem
        _print_json(payload, file=dest)
    return 1 if theorem.startswith("MISMATCH") else 0


def cmd_compare(args) -> int:
    fam_a = mosls.designs.load_family(args.a)
    fam_b = mosls.designs.load_family(args.b)
    if len(fam_a) != 1 or len(fam_b) != 1:
        raise ValueError("compare expects single-square family files")
    cert = mosls.switching.nonisomorphism_certificate(fam_a.squares[0], fam_b.squares[0])
    if args.json:
        _print_json(cert.to_json_dict())
    else:
        print(f"verdict: {cert.verdict}")
        if cert.differing_coefficient_index is not None:
            print(f"first differing coefficient: t^{cert.differing_coefficient_index}")
    return 0


# order, q, r, factors (None = not constructible here), family size or bound
_TABLE_ROWS = [
    (2, 1, 2, [(2, 0, 1)], 1),
    (3, 1, 3, [(3, 0, 1)], 2),
    (4, 1, 4, [(2, 0, 2)], 3),
    (4, 2, 2, [(2, 1, 1)], 2),
    (5, 1, 5, [(5, 0, 1)], 4),
    (6, 1, 6, [(2, 0, 1), (3, 0, 1)], 1),
    (6, 2, 3, [(2, 1, 0), (3, 0, 1)], 1),
    (7, 1, 7, [(7, 0, 1)], 6),
    (8, 1, 8, [(2, 0, 3)], 7),
    (8, 2, 4, [(2, 1, 2)], 4),
    (9, 1, 9, [(3, 0, 2)], 8),
    (9, 3, 3, [(3, 1, 1)], 6),
    (10, 1, 10, None, 2),
    (10, 2, 5, [(2, 1, 0), (5, 0, 1)], 1),
    (11, 1, 11, [(11, 0, 1)], 10),
    (12, 1, 12, None, 5),
    (12, 2, 6, [(2, 1, 1), (3, 0, 1)], 2),
    (12, 3, 4, [(3, 1, 0), (2, 0, 2)], 2),
]


def verified_table_rows(max_order: int, order_cap: int | None):
    """Build and validate each constructible family; yield result rows."""
    for order, q, r, factors, count in _TABLE_ROWS:
        if order > max_order:
            continue
        if factors is None:
            yield {
                "order": order,
                "type": [q, r],
                "count": count,
                "status": "SKIPPED (external construction)",
            }
            continue
        fam = _composite(factors, order_cap)
        report = _family_checks(fam)
        ok = (
            report["pass"]
            and all(s["block_permutational"] for s in report["squares"])
            and len(fam) == count
            and fam.shape.q == q
            and fam.shape.r == r
        )
        yield {
            "order": order,
            "type": [q, r],
            "count": len(fam),
            "status": "VERIFIED" if ok else "FAILED",
        }


def cmd_table(args) -> int:
    rows = list(verified_table_rows(args.max_order, args.order_cap))
    if args.json:
        _print_json(rows)
    else:
        for row in rows:
            q, r = row["type"]
            bound = ">=" if row["status"].startswith("SKIPPED") else ""
            print(
                f"order {row['order']:>2} type ({q}, {r}) "
                f"count {bound}{row['count']} {row['status']}"
            )
    return 1 if any(row["status"] == "FAILED" for row in rows) else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mosls",
        description="Construct and spectrally analyse mutually orthogonal "
        "Sudoku Latin squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a family and write it out")
    p.add_argument("--p", type=int, help="prime for a field family")
    p.add_argument("--m", type=int, help="row-block exponent: q = p**m")
    p.add_argument("--n", type=int, help="column-block exponent: r = p**n")
    p.add_argument(
        "--factor",
        action="append",
        help="repeatable p:m:n factor for composite orders",
    )
    p.add_argument("--count", type=int, help="keep only the first COUNT squares")
    p.add_argument("--order-cap", type=int)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("check", help="validate a family file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("spectrum", help="exact and numeric cell-graph spectrum")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--subset", help="comma-separated 1-based square indices")
    p.add_argument("--mols-only", action="store_true", help="omit block edges")
    only = p.add_mutually_exclusive_group()
    only.add_argument("--exact", action="store_true", help="exact charpoly only")
    only.add_argument("--numeric", action="store_true", help="numeric eigenvalues only")
    p.add_argument("--group-tol", type=float, default=1e-6, help="eigenvalue grouping")
    p.add_argument(
        "--verify-closed-form",
        action="store_true",
        help="compare against the predicted closed-form spectrum",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("graph-export", help="write the cell graph")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--subset")
    p.add_argument("--mols-only", action="store_true")
    p.add_argument("--format", choices=["edges", "matrix"], default="edges")
    p.add_argument("--out")
    p.set_defaults(func=cmd_graph_export)

    p = sub.add_parser("switch", help="symbol switch inside one band")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--row-block", type=int, help="band of q rows, index 1..r")
    p.add_argument("--col-block", type=int, help="band of r columns, index 1..q")
    p.add_argument("--symbols", required=True, help="K1,K2 to exchange")
    p.add_argument("--out", help="switched family file (default stdout)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_switch)

    p = sub.add_parser("compare", help="spectral non-isomorphism certificate")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("table", help="verify the constructible family sizes")
    p.add_argument("--max-order", type=int, default=12)
    p.add_argument("--order-cap", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)

    return parser


_TOP_LAYER = {"spectrum": "spectra", "graph-export": "graph", "switch": "switching", "compare": "switching"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)  # exits on help and usage errors, loading no layer
    getattr(mosls, _TOP_LAYER.get(args.command, "designs"))  # its layers compile, then numpy loads
    failed = mosls.designs.CheckFailed
    try:
        return args.func(args)
    except failed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


# At exit CPython runs full cyclic collections over every object still
# alive: for a command, the import heap of numpy and the mosls layers,
# about 21,600 tracked objects, and 3.5-7.4 ms for the first collection.
# gc.freeze moves them into the permanent generation, which those
# collections skip; every atexit callback, the flushes of stdout and
# stderr and the teardown of modules still run.  It took 9-12% off the
# wall time of the benchmark's spectrum, switch, compare, construct and
# check jobs in fresh processes, and moved no job's peak RSS by more than
# 0.1 MiB (2 CPUs, Python 3.11.7, numpy 2.4.6).  Registered once, when
# this module loads, never per main call; the library leaves the
# collector alone.
atexit.register(gc.freeze)


if __name__ == "__main__":
    sys.exit(main())
