"""Command-line interface.

Commands: construct, check, spectrum, graph-export, switch, compare,
table.  Exit codes: 0 when all requested checks pass, 1 when a
mathematical check or precondition fails (invalid square, verification
mismatch, invalid switch), 2 for usage, flag, or input format errors.
All outputs are deterministic for fixed inputs and flags.

Each command imports the layers it calls when it runs, so `construct`,
`check` and `table` never load graph, spectra or switching, and json is
loaded only for --json output.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

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

from . import construct, designs  # noqa: E402  (loads numpy)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_json(obj, file=None) -> None:
    import json

    print(json.dumps(obj, indent=2), file=file)


def _parse_symbols(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise designs.FormatError(f"--symbols expects 'K1,K2', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise designs.FormatError(f"--symbols expects integers, got {text!r}") from None


def _parse_subset(text: str):
    if text is None:
        return None
    try:
        picked = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise designs.FormatError(f"--subset expects integers, got {text!r}") from None
    if not picked:
        raise designs.FormatError(f"--subset selects no square: {text!r}")
    return picked


def _parse_factor(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise designs.FormatError(f"--factor expects 'p:m:n', got {text!r}")
    try:
        return int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError:
        raise designs.FormatError(f"--factor expects integers, got {text!r}") from None


def _family_checks(fam: designs.MoslsFamily) -> dict:
    squares = []
    for sq in fam.squares:
        latin = designs.is_latin(sq)
        sudoku = designs.is_sudoku(sq) if latin else False
        bp = designs.is_block_permutational(sq) if sudoku else False
        squares.append({"latin": latin, "sudoku": sudoku, "block_permutational": bp})
    orthogonal = [
        [i + 1, j + 1, designs.are_orthogonal(a, b)]
        for (i, a), (j, b) in itertools.combinations(enumerate(fam.squares), 2)
    ]
    ok = all(s["latin"] and s["sudoku"] for s in squares) and all(
        o[2] for o in orthogonal
    )
    return {
        "order": fam.shape.order,
        "type": [fam.shape.q, fam.shape.r],
        "count": len(fam),
        "squares": squares,
        "orthogonal": orthogonal,
        "pass": ok,
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
        factors = [_parse_factor(tok) for tok in args.factor]
    else:
        if args.p is None or args.m is None or args.n is None:
            raise ValueError("--p, --m and --n are required without --factor")
        factors = [(args.p, args.m, args.n)]
    fam = construct.composite_mosls(factors, order_cap=args.order_cap)
    if args.count is not None:
        if not 1 <= args.count <= len(fam):
            raise ValueError(f"--count {args.count} outside 1..{len(fam)}")
        fam = designs.MoslsFamily(fam.shape, fam.squares[: args.count])
    report = _family_checks(fam)
    _emit(designs.format_family(fam), args.out)
    dest = sys.stdout if args.out else sys.stderr
    print(
        f"constructed {report['count']} squares of order {report['order']} "
        f"type ({report['type'][0]}, {report['type'][1]}); "
        f"validation {'PASS' if report['pass'] else 'FAIL'}",
        file=dest,
    )
    return 0 if report["pass"] else 1


def cmd_check(args) -> int:
    fam = designs.load_family(args.input)
    report = _family_checks(fam)
    if args.json:
        _print_json(report)
    else:
        _print_checks(report)
    return 0 if report["pass"] else 1


def _build_graph(args):
    """The cell graph of the --in family over the --subset squares."""
    from . import graph

    fam = designs.load_family(args.input)
    subset = _parse_subset(args.subset)
    if args.mols_only:
        return graph.build_mols_graph(fam, subset)
    return graph.build_mosls_graph(fam, subset)


def cmd_spectrum(args) -> int:
    from . import spectra

    g = _build_graph(args)
    nv = g.num_vertices
    want_exact = not args.numeric
    want_numeric = not args.exact
    if want_exact and nv > spectra.EXACT_SIZE_CAP:
        if args.exact:
            raise ValueError(f"{nv} vertices exceed the exact cap {spectra.EXACT_SIZE_CAP}")
        print(
            f"warning: {nv} vertices exceed the exact cap {spectra.EXACT_SIZE_CAP}; "
            "falling back to numeric-only",
            file=sys.stderr,
        )
        want_exact = False

    if want_numeric:
        report = spectra.numeric_spectrum(
            g.adjacency, group_tol=args.group_tol, with_charpoly=want_exact
        )
    else:
        report = spectra.SpectrumReport(spectra.charpoly_exact(g.adjacency), [], 0.0)

    verdict = None
    if args.verify_closed_form:
        verdict = _closed_form_verdict(g, report)

    payload = report.to_json_dict()
    payload["flavor"] = g.flavor
    payload["order"] = g.order
    payload["type"] = [g.shape.q, g.shape.r]
    payload["squares"] = g.family_size
    if verdict is not None:
        payload["closed_form"] = verdict

    if args.json:
        _print_json(payload)
    else:
        print(
            f"graph: flavor {g.flavor} order {g.order} type {g.shape.q} {g.shape.r} "
            f"squares {g.family_size} vertices {nv}"
        )
        if report.charpoly is not None:
            print("charpoly: " + " ".join(report.charpoly.decimal_strings()))
        if report.numeric:
            print("numeric:")
            for value, mult in report.numeric:
                print(f"  {value:.10g} x{mult}")
        if report.charpoly is not None and report.numeric:
            print(f"residual: {report.residual:.3e}")
        if verdict is not None:
            print(f"closed form: {verdict}")
    if verdict is not None and verdict.startswith("MISMATCH"):
        return 1
    return 0


def _closed_form_verdict(g, report) -> str:
    """Compare the closed form with the exact charpoly, or, when none was
    computed (above the exact cap, or under --numeric), certify the closed
    form on the graph itself."""
    from . import graph, spectra

    n, f = g.order, g.family_size
    if g.flavor == "mols":
        try:
            closed = spectra.srg_spectrum(
                n * n, (f + 2) * (n - 1), n - 2 + f * (f + 1), (f + 1) * (f + 2)
            )
        except spectra.SrgParameterError as exc:
            return f"INAPPLICABLE ({exc})"
    else:
        if not graph.commute_check(g):
            return "INAPPLICABLE (adjacency layers do not commute)"
        closed = spectra.mosls_graph_spectrum(g.shape.q, g.shape.r, f)
    if report.charpoly is None:
        match = spectra.certify_charpoly(g.adjacency, closed)
    else:
        match = spectra.poly_product(closed).coeffs == report.charpoly.coeffs
    return "MATCH" if match else "MISMATCH"


def cmd_graph_export(args) -> int:
    from . import graph

    g = _build_graph(args)
    if args.format == "edges":
        _emit(graph.edge_lines(g), args.out)
    else:
        _emit(graph.matrix_lines(g), args.out)
    return 0


def cmd_switch(args) -> int:
    from . import switching

    fam = designs.load_family(args.input)
    if len(fam) != 1:
        raise ValueError("switch expects a single-square family file")
    if (args.row_block is None) == (args.col_block is None):
        raise ValueError("exactly one of --row-block or --col-block is required")
    if args.row_block is not None:
        spec = switching.SwitchSpec("row-block", args.row_block, _parse_symbols(args.symbols))
    else:
        spec = switching.SwitchSpec("col-block", args.col_block, _parse_symbols(args.symbols))

    square = fam.squares[0]
    switched = switching.sudoku_symbol_switch(square, spec)
    # certify before writing, so a square above the exact cap writes nothing
    cert = switching.nonisomorphism_certificate(square, switched)
    _emit(designs.format_family(designs.MoslsFamily(fam.shape, (switched,))), args.out)
    q, r = fam.shape.q, fam.shape.r
    # a column-band switch is a row-band switch of the transpose
    eff_q, eff_r = (q, r) if spec.kind == "row-block" else (r, q)
    theorem = _switch_theorem_verdict(square, cert, eff_q, eff_r)

    dest = sys.stdout if args.out else sys.stderr
    print(f"certificate: {cert.verdict}", file=dest)
    print(f"closed form: {theorem}", file=dest)
    if args.json:
        payload = cert.to_json_dict()
        payload["closed_form"] = theorem
        _print_json(payload, file=dest)
    return 1 if theorem.startswith("MISMATCH") else 0


def _switch_theorem_verdict(square, cert, eff_q: int, eff_r: int) -> str:
    from . import switching

    if eff_q < 2 or eff_r < 2:
        return "INAPPLICABLE (needs q, r >= 2)"
    # The Latin and block layers of a block-permutational Sudoku square
    # always commute, so no commute_check is needed.  With S, R, C, K the
    # same-symbol, same-row, same-column and same-block relations and o
    # the entrywise product: S @ K = J, as each block holds each symbol
    # once; S @ (R o K) and S @ (C o K) are symmetric exactly when every
    # block splits the symbols into the same row sets and the same column
    # sets; and R and C commute with every block term.
    if not designs.is_block_permutational(square):
        return "INAPPLICABLE (square is not block-permutational)"
    try:
        expected = switching.switched_charpoly_expected(cert.charpoly_a, eff_q, eff_r)
    except switching.TheoremPreconditionError as exc:
        return f"INAPPLICABLE ({exc})"
    return "MATCH" if expected.coeffs == cert.charpoly_b.coeffs else "MISMATCH"


def cmd_compare(args) -> int:
    from . import switching

    fam_a = designs.load_family(args.a)
    fam_b = designs.load_family(args.b)
    if len(fam_a) != 1 or len(fam_b) != 1:
        raise ValueError("compare expects single-square family files")
    cert = switching.nonisomorphism_certificate(fam_a.squares[0], fam_b.squares[0])
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


def verified_table_rows(max_order: int, order_cap: int):
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
        fam = construct.composite_mosls(factors, order_cap=order_cap)
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
    return 0 if all(not row["status"] == "FAILED" for row in rows) else 1


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
    p.add_argument("--order-cap", type=int, default=construct.DEFAULT_ORDER_CAP)
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
    p.add_argument("--order-cap", type=int, default=construct.DEFAULT_ORDER_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except designs.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
