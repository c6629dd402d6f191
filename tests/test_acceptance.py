"""Acceptance gate: one test per headline capability, each printing one
ACCEPTANCE <k>: PASS/FAIL line (run with -s to see them on success).

All spectral comparisons are exact integer polynomial equalities unless a
tolerance is stated inline.
"""

from contextlib import contextmanager

import numpy as np

from mosls import (
    MoslsFamily,
    RowCycle,
    SudokuShape,
    build_mols_graph,
    build_mosls_graph,
    charpoly_exact,
    commute_check,
    composite_mosls,
    family_pairwise_orthogonal,
    is_sudoku,
    mosls_graph_spectrum,
    nonisomorphism_certificate,
    numeric_spectrum,
    poly_product,
    quotient_matrix,
    quotient_spectrum,
    row_cycle_decompose,
    row_cycle_switch,
    srg_check,
    srg_spectrum,
    sudoku_symbol_switch,
    switched_charpoly_expected,
    transpose,
)
from mosls import gf
from mosls.cli import verified_table_rows
from mosls.designs import LatinSquare
from mosls.spectra import IntPolynomial, poly_divmod
from mosls.switching import SwitchSpec
from fixtures import (
    NINE,
    NINE_SWITCHED,
    SPECTRUM_FOUR_F2,
    SPECTRUM_SIX_F1,
    SPECTRUM_SWITCH4_A,
    SPECTRUM_SWITCH4_B_INT,
    SWITCH4_A,
    SWITCH4_B,
    single,
)


@contextmanager
def criterion(k: int):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'}")


def closed_from_ints(table: dict) -> list[tuple[IntPolynomial, int]]:
    return [(IntPolynomial((-v, 1)), m) for v, m in table.items()]


def graph_poly(fam: MoslsFamily):
    return charpoly_exact(build_mosls_graph(fam).adjacency)


SWEEP = [(2, 1, 1), (3, 1, 1), (2, 1, 2)]  # factors (p, m, n)


def truncations(fam: MoslsFamily):
    for f in range(1, len(fam) + 1):
        yield f, MoslsFamily(fam.shape, fam.squares[:f])


def test_acceptance_1_order4_spectrum():
    with criterion(1):
        fam = composite_mosls([(2, 1, 1)])
        assert len(fam) == 2
        poly = graph_poly(fam)
        assert poly.coeffs == poly_product(closed_from_ints(SPECTRUM_FOUR_F2)).coeffs
        assert poly.coeffs == poly_product(mosls_graph_spectrum(2, 2, 2)).coeffs


def test_acceptance_2_order6_spectrum():
    with criterion(2):
        fam = composite_mosls([(2, 1, 0), (3, 0, 1)])
        assert fam.shape == SudokuShape(2, 3) and len(fam) == 1
        poly = graph_poly(fam)
        assert poly.coeffs == poly_product(closed_from_ints(SPECTRUM_SIX_F1)).coeffs
        assert poly.coeffs == poly_product(mosls_graph_spectrum(2, 3, 1)).coeffs


def test_acceptance_3_closed_form_sweep():
    with criterion(3):
        for factor in SWEEP:
            fam = composite_mosls([factor])
            for f, sub in truncations(fam):
                assert commute_check(sub)
                closed = mosls_graph_spectrum(sub.shape.q, sub.shape.r, f)
                assert graph_poly(sub).coeffs == poly_product(closed).coeffs


def test_acceptance_4_srg_sweep():
    with criterion(4):
        for factor in SWEEP:
            fam = composite_mosls([factor])
            n = fam.shape.order
            for f, sub in truncations(fam):
                g = build_mols_graph(sub)
                params = (
                    n * n,
                    (f + 2) * (n - 1),
                    n - 2 + f * (f + 1),
                    (f + 1) * (f + 2),
                )
                assert srg_check(g) == params
                closed = srg_spectrum(*params)
                assert charpoly_exact(g.adjacency).coeffs == poly_product(closed).coeffs


def test_acceptance_5_quotient_divisibility():
    with criterion(5):
        families = [composite_mosls([factor]) for factor in SWEEP]
        families.append(composite_mosls([(2, 1, 0), (3, 0, 1)]))
        families.append(composite_mosls([(2, 0, 2)]))
        families.append(composite_mosls([(3, 0, 2)]))
        for fam in families:
            if fam.shape.order > 9:
                continue
            for f, sub in truncations(fam):
                g = build_mosls_graph(sub)
                quo = quotient_matrix(g)  # raises if not equitable
                closed = quotient_spectrum(sub.shape.q, sub.shape.r, f)
                assert charpoly_exact(quo.entries).coeffs == poly_product(closed).coeffs
                _, rem = poly_divmod(graph_poly(sub), poly_product(closed))
                assert rem.coeffs == (0,)


def test_acceptance_6_order4_switching():
    with criterion(6):
        cycles = row_cycle_decompose(SWITCH4_A, 2, 4)
        assert RowCycle(2, 4, (3, 4)) in cycles
        switched = row_cycle_switch(SWITCH4_A, RowCycle(2, 4, (3, 4)))
        assert switched == SWITCH4_B

        poly_a = graph_poly(single(SWITCH4_A))
        want_a = poly_product(closed_from_ints(SPECTRUM_SWITCH4_A))
        assert poly_a.coeffs == want_a.coeffs

        poly_b = graph_poly(single(SWITCH4_B))
        surds = [(IntPolynomial((-4, 2, 1)), 2)]  # -1 +- sqrt 5, twice each
        # (t^2 + 2t - 4)^2 times the integer part
        want_b = poly_product(closed_from_ints(SPECTRUM_SWITCH4_B_INT) + surds)
        assert poly_b.coeffs == want_b.coeffs


def test_acceptance_7_order9_switching():
    with criterion(7):
        switched = sudoku_symbol_switch(NINE, SwitchSpec("col-block", 3, (1, 2)))
        assert switched == NINE_SWITCHED
        base = graph_poly(single(NINE))
        got = graph_poly(single(NINE_SWITCHED))
        assert got.coeffs == switched_charpoly_expected(base, 3, 3).coeffs
        cert = nonisomorphism_certificate(NINE, NINE_SWITCHED)
        assert cert.verdict == "NOT-ISOMORPHIC"


def test_acceptance_8_family_size_table():
    with criterion(8):
        expected = {
            (2, 1, 2): (1, "VERIFIED"),
            (3, 1, 3): (2, "VERIFIED"),
            (4, 1, 4): (3, "VERIFIED"),
            (4, 2, 2): (2, "VERIFIED"),
            (5, 1, 5): (4, "VERIFIED"),
            (6, 1, 6): (1, "VERIFIED"),
            (6, 2, 3): (1, "VERIFIED"),
            (7, 1, 7): (6, "VERIFIED"),
            (8, 1, 8): (7, "VERIFIED"),
            (8, 2, 4): (4, "VERIFIED"),
            (9, 1, 9): (8, "VERIFIED"),
            (9, 3, 3): (6, "VERIFIED"),
            (10, 1, 10): (2, "SKIPPED (external construction)"),
            (10, 2, 5): (1, "VERIFIED"),
            (11, 1, 11): (10, "VERIFIED"),
            (12, 1, 12): (5, "SKIPPED (external construction)"),
            (12, 2, 6): (2, "VERIFIED"),
            (12, 3, 4): (2, "VERIFIED"),
        }
        rows = list(verified_table_rows(12, 16))
        assert len(rows) == len(expected)
        for row in rows:
            key = (row["order"], row["type"][0], row["type"][1])
            count, status = expected[key]
            assert row["count"] == count, key
            assert row["status"] == status, key


# ---------------------------------------------------------------------------
# criterion 9 helpers: the spectrum-preserving symmetries


def relabel_symbols(fam: MoslsFamily, rng) -> MoslsFamily:
    squares = []
    for sq in fam.squares:
        mapping = rng.permutation(fam.shape.order) + 1
        squares.append(LatinSquare(mapping[sq.entries - 1], fam.shape))
    return MoslsFamily(fam.shape, tuple(squares))


def block_respecting_perm(count: int, size: int, rng) -> np.ndarray:
    """Permutation of count*size lines permuting the count bands and the
    lines inside each band."""
    order = rng.permutation(count)
    out = []
    for band in order:
        within = rng.permutation(size)
        out.extend(int(band) * size + within)
    return np.array(out)


def permute_lines(fam: MoslsFamily, rng) -> MoslsFamily:
    rows = block_respecting_perm(fam.shape.r, fam.shape.q, rng)
    cols = block_respecting_perm(fam.shape.q, fam.shape.r, rng)
    squares = tuple(
        LatinSquare(sq.entries[np.ix_(rows, cols)], fam.shape) for sq in fam.squares
    )
    return MoslsFamily(fam.shape, squares)


def transpose_family(fam: MoslsFamily) -> MoslsFamily:
    flipped = SudokuShape(fam.shape.r, fam.shape.q)
    return MoslsFamily(flipped, tuple(transpose(sq) for sq in fam.squares))


def test_acceptance_9_property_suites():
    with criterion(9):
        rng = np.random.default_rng(20240817)

        # field axioms on all fields of size <= 81, randomized triples
        for p, d in [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                     (3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2),
                     (7, 1), (7, 2), (11, 1), (13, 1)]:
            ctx = gf.make_field(p, d)
            add, neg, mul = ctx.add, ctx.neg, ctx.mul
            size = ctx.size
            assert size <= 81, (p, d)
            for _ in range(30):
                a, b, c = (int(rng.integers(size)) for _ in range(3))
                assert add[add[a, b], c] == add[a, add[b, c]]
                assert mul[mul[a, b], c] == mul[a, mul[b, c]]
                assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]
                assert mul[a, b] == mul[b, a]
                assert add[a, neg[a]] == 0
                assert mul[a, 1] == a

        # switching operations are involutions
        for cyc in row_cycle_decompose(SWITCH4_A, 2, 4):
            assert row_cycle_switch(row_cycle_switch(SWITCH4_A, cyc), cyc) == SWITCH4_A
        spec9 = SwitchSpec("col-block", 3, (1, 2))
        assert sudoku_symbol_switch(sudoku_symbol_switch(NINE, spec9), spec9) == NINE

        # spectrum invariance under relabelling, block-respecting row and
        # column permutations, and transposition, at orders 4 and 6
        base_families = [
            composite_mosls([(2, 1, 1)]),
            composite_mosls([(2, 1, 0), (3, 0, 1)]),
        ]
        for fam in base_families:
            reference = graph_poly(fam).coeffs
            for _ in range(3):
                relabeled = relabel_symbols(fam, rng)
                assert family_pairwise_orthogonal(relabeled)
                assert graph_poly(relabeled).coeffs == reference

                permuted = permute_lines(fam, rng)
                assert all(is_sudoku(sq) for sq in permuted)
                assert graph_poly(permuted).coeffs == reference
            assert graph_poly(transpose_family(fam)).coeffs == reference

        # numeric eigenvalues agree with the exact charpoly
        for fam in base_families + [composite_mosls([(3, 1, 1)])]:
            report = numeric_spectrum(build_mosls_graph(fam).adjacency)
            assert report.residual < 1e-4
            assert sum(m for _, m in report.numeric) == fam.shape.order ** 2
