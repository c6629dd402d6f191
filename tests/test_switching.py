import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest

from mosls import (
    Certificate,
    LatinSquare,
    MoslsFamily,
    RowCycle,
    SudokuShape,
    SwitchError,
    SwitchSpec,
    SwitchValidityError,
    TheoremPreconditionError,
    are_orthogonal,
    build_mols_graph,
    build_mosls_graph,
    charpoly_exact,
    commute_check,
    is_block_permutational,
    is_latin,
    is_sudoku,
    mosls_graph_spectrum,
    nonisomorphism_certificate,
    numeric_spectrum,
    row_cycle_decompose,
    row_cycle_switch,
    sudoku_symbol_switch,
    switched_charpoly_expected,
    switched_quartic,
    transpose,
)
from mosls import composite_mosls
from mosls.cli import _TABLE_ROWS
from mosls.spectra import IntPolynomial, poly_product
from graph_reference import layers_commute
from spectra_reference import poly_divexact, poly_divmod, row_cycles_by_symbol, switched_quartic_expanded
from fixtures import (
    FOUR_FAMILY,
    NINE,
    NINE_SWITCHED,
    ORTHO8_FAMILY,
    REMARK4,
    SIX,
    SIX_SWITCHED,
    SPECTRUM_SWITCH4_A,
    SPECTRUM_SWITCH4_B_INT,
    SWITCH4_A,
    SWITCH4_B,
    TABLE_ROWS,
    TEN,
    roots_poly,
    single,
    switch_chain,
    switches_of,
    table_graphs,
)
from hessenberg_reference import reference_charpoly


def graph_poly(square):
    return charpoly_exact(build_mosls_graph(single(square)).adjacency)


# ---------------------------------------------------------------------------
# row-cycle switching


def test_row_cycle_decompose_order4():
    cycles = row_cycle_decompose(SWITCH4_A, 2, 4)
    assert cycles == [RowCycle(2, 4, (1, 2)), RowCycle(2, 4, (3, 4))]


def test_row_cycle_decompose_full_cycle():
    # rows 1 and 2 of the order-6 square split into three transpositions;
    # rows 2 and 3 form a single 6-cycle
    assert row_cycle_decompose(SIX, 1, 2) == [
        RowCycle(1, 2, (1, 4)),
        RowCycle(1, 2, (2, 5)),
        RowCycle(1, 2, (3, 6)),
    ]
    cycles = row_cycle_decompose(SIX, 2, 3)
    assert cycles == [RowCycle(2, 3, (1, 5, 3, 4, 2, 6))]


def test_row_cycle_decompose_validation():
    with pytest.raises(SwitchError, match="differ"):
        row_cycle_decompose(SWITCH4_A, 2, 2)
    with pytest.raises(SwitchError, match="outside"):
        row_cycle_decompose(SWITCH4_A, 1, 5)


def _row_pair_outcome(decompose, square, a, b):
    try:
        return decompose(square, a, b)
    except SwitchError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("factors", [[(2, 1, 1)], [(2, 1, 0), (3, 0, 1)], [(3, 1, 1)], [(2, 1, 1), (3, 0, 1)]])
def test_row_cycle_decompose_matches_the_symbol_walk(factors):
    # the first square of the type (2, 2), (2, 3), (3, 3) or (2, 6) family,
    # a copy with rows and columns shuffled, and a copy whose row 1 repeats
    # a symbol: every ordered pair of distinct rows gives the same cycles,
    # in the same column order, or the same error
    square = composite_mosls(factors).squares[0]
    n = square.order
    rng = np.random.default_rng(7)
    shuffled = square.entries[rng.permutation(n)][:, rng.permutation(n)]
    repeated = square.entries.copy()
    repeated[0, 0] = repeated[0, 1]
    errors = 0
    for entries in (square.entries, shuffled, repeated):
        copy = LatinSquare(entries, square.shape)
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if a != b:
                    got = _row_pair_outcome(row_cycle_decompose, copy, a, b)
                    assert got == _row_pair_outcome(row_cycles_by_symbol, copy, a, b)
                    errors += isinstance(got, tuple)
    # exactly the pairs with row 1 of the last copy are refused
    assert errors == 2 * (n - 1)


def test_row_cycle_switch_produces_known_square():
    out = row_cycle_switch(SWITCH4_A, RowCycle(2, 4, (3, 4)))
    assert out == SWITCH4_B
    assert is_sudoku(out)


def test_row_cycle_switch_is_involution():
    cycle = RowCycle(2, 4, (3, 4))
    assert row_cycle_switch(row_cycle_switch(SWITCH4_A, cycle), cycle) == SWITCH4_A


def test_row_cycle_switch_can_leave_sudoku():
    # the column-2,3 cycle between rows 2 and 3 kills the block property
    cycles = row_cycle_decompose(SWITCH4_A, 2, 3)
    assert RowCycle(2, 3, (2, 3)) in cycles
    out = row_cycle_switch(SWITCH4_A, RowCycle(2, 3, (2, 3)))
    assert out == REMARK4
    assert is_latin(out) and not is_sudoku(out)


def test_row_cycle_switch_rejects_non_cycle():
    with pytest.raises(SwitchError, match="not Latin"):
        row_cycle_switch(SWITCH4_A, RowCycle(2, 4, (1, 3)))


def test_row_cycle_decompose_rejects_rows_that_are_not_permutations():
    # rows [1, 2, 3] and [1, 1, 1]: no permutation carries one to the other
    square = LatinSquare([[1, 2, 3], [1, 1, 1], [3, 1, 2]], SudokuShape(1, 3))
    for a, b in ((1, 2), (2, 1)):
        with pytest.raises(SwitchError, match=f"rows {a} and {b} do not hold the same 3 distinct symbols"):
            row_cycle_decompose(square, a, b)


@pytest.mark.parametrize(
    "cycle,message",
    [
        (RowCycle(1, 2, (1, 0)), "column 0 outside 1..4"),
        (RowCycle(1, 2, (1, 5)), "column 5 outside 1..4"),
        (RowCycle(0, 2, (1, 4)), "row 0 outside 1..4"),
        (RowCycle(1, 5, (1, 4)), "row 5 outside 1..4"),
        (RowCycle(2, 2, (1, 4)), "rows must differ"),
        # swapping columns 1 and 4 once leaves a Latin square
        (RowCycle(1, 2, (1, 4, 1)), "column 1 repeats in the cycle"),
    ],
)
def test_row_cycle_switch_checks_the_cycle(cycle, message):
    # on the first order-4 field square (1, 4) is a cycle of rows 1 and 2,
    # so reading column 0 as the last column would accept (1, 0) as it
    square = composite_mosls([(2, 1, 1)]).squares[0]
    assert RowCycle(1, 2, (1, 4)) in row_cycle_decompose(square, 1, 2)
    with pytest.raises(SwitchError, match=re.escape(message)):
        row_cycle_switch(square, cycle)


# ---------------------------------------------------------------------------
# Sudoku symbol switching


def test_symbol_switch_row_band_order6():
    out = sudoku_symbol_switch(SIX, SwitchSpec("row-block", 1, (1, 4)))
    assert out == SIX_SWITCHED
    assert is_sudoku(out)


def test_symbol_switch_col_band_order9():
    out = sudoku_symbol_switch(NINE, SwitchSpec("col-block", 3, (1, 2)))
    assert out == NINE_SWITCHED
    assert is_sudoku(out)


def test_symbol_switch_is_involution():
    spec = SwitchSpec("col-block", 3, (1, 2))
    assert sudoku_symbol_switch(sudoku_symbol_switch(NINE, spec), spec) == NINE


def test_symbol_switch_validity_error_names_line():
    with pytest.raises(SwitchValidityError, match="column 1") as exc:
        sudoku_symbol_switch(SIX, SwitchSpec("row-block", 1, (1, 2)))
    assert "symbol 1 lies inside" in str(exc.value)
    with pytest.raises(SwitchValidityError, match="row 1"):
        sudoku_symbol_switch(NINE, SwitchSpec("col-block", 3, (1, 5)))


def test_symbol_switch_spec_validation():
    with pytest.raises(SwitchError, match="block-row"):
        sudoku_symbol_switch(SIX, SwitchSpec("row-block", 4, (1, 4)))
    with pytest.raises(SwitchError, match="block-column"):
        sudoku_symbol_switch(SIX, SwitchSpec("col-block", 3, (1, 4)))
    with pytest.raises(SwitchError, match="kind"):
        sudoku_symbol_switch(SIX, SwitchSpec("diagonal", 1, (1, 4)))
    with pytest.raises(SwitchError, match="distinct"):
        sudoku_symbol_switch(SIX, SwitchSpec("row-block", 1, (4, 4)))
    with pytest.raises(SwitchError, match="distinct"):
        sudoku_symbol_switch(SIX, SwitchSpec("row-block", 1, (0, 4)))


def test_symbol_switch_requires_sudoku():
    with pytest.raises(SwitchError, match="Sudoku"):
        sudoku_symbol_switch(REMARK4, SwitchSpec("row-block", 1, (1, 2)))
    not_latin = LatinSquare([[1, 2, 3, 4], [3, 4, 1, 2]] * 2, SudokuShape(2, 2))
    with pytest.raises(SwitchError, match="requires a Sudoku square"):
        sudoku_symbol_switch(not_latin, SwitchSpec("row-block", 1, (1, 2)))


# ---------------------------------------------------------------------------
# spectral-change formula


def test_switched_quartic_order4():
    # (t^2 + 2t - 4)^2
    assert switched_quartic(2, 2).coeffs == (16, -16, -4, 4, 1)


def test_switched_quartic_order9_roots():
    quartic = switched_quartic(3, 3)
    assert quartic.coeffs == (424, 86, -39, -4, 1)
    for eps1 in (1, -1):
        for eps2 in (1, -1):
            root = (2 + eps2 * math.sqrt(90 + eps1 * 6 * math.sqrt(17))) / 2
            acc = 0.0
            for c in reversed(quartic.coeffs):
                acc = acc * root + c
            assert abs(acc) < 1e-8


def _leaving_roots(q, r):
    return [-2, -(r + 2), q * r - 2, q * r - r - 2]


# In the two tests below each coefficient of the difference of the sides is
# a polynomial of degree <= 2 in q and <= 3 in r; one that vanishes on a
# 3 x 4 grid of distinct values, as on 1..6 x 1..6, vanishes for all q, r.
QR_GRID = [(q, r) for q in range(1, 7) for r in range(1, 7)]


@pytest.mark.parametrize("q,r", QR_GRID)
def test_switched_quartic_matches_the_expanded_coefficients(q, r):
    assert switched_quartic(q, r).coeffs == switched_quartic_expanded(q, r).coeffs


@pytest.mark.parametrize("q,r", QR_GRID)
def test_switched_quartic_is_the_leaving_quartic_plus_a_constant(q, r):
    c0, *rest = switched_quartic(q, r).coeffs
    leaving = roots_poly(_leaving_roots(q, r))
    assert (c0 - 4 * q * q * (r - 1) ** 2, *rest) == leaving.coeffs


def test_leaving_eigenvalues_lie_in_the_closed_form():
    # so `switch` never reads "INAPPLICABLE (base charpoly is not
    # divisible ...)" on a block-permutational square
    for q in range(2, 13):
        for r in range(2, 13):
            mults = {-f.coeffs[0]: m for f, m in mosls_graph_spectrum(q, r, 1)}
            assert all(mults.get(v, 0) >= 1 for v in _leaving_roots(q, r)), (q, r)


@pytest.mark.parametrize("q,r", [(q, r) for q in range(2, 5) for r in range(2, 5)])
def test_switched_charpoly_expected_of_the_closed_form(q, r):
    closed = mosls_graph_spectrum(q, r, 1)
    mults = {-f.coeffs[0]: m for f, m in closed}
    for v in _leaving_roots(q, r):
        mults[v] -= 1
    lowered = [(IntPolynomial((-v, 1)), m) for v, m in mults.items()]
    want = poly_product(lowered + [(switched_quartic(q, r), 1)])
    assert switched_charpoly_expected(poly_product(closed), q, r).coeffs == want.coeffs


def test_joining_eigenvalues_are_roots_of_the_quartic():
    # w = (t + 2)(t + 2 - a) takes the two values w+- at which
    # w (w - q r^2) + 4 q^2 (r - 1)^2 vanishes; each gives two t
    for q in range(2, 10):
        for r in range(2, 10):
            coeffs = switched_quartic(q, r).coeffs
            a = r * (q - 1)
            for sign_w in (1, -1):
                w = q * (r * r + sign_w * (r - 2) * math.sqrt(r * r + 4 * r - 4)) / 2
                for sign_t in (1, -1):
                    t = -2 + (a + sign_t * math.sqrt(a * a + 4 * w)) / 2
                    value = sum(c * t**k for k, c in enumerate(coeffs))
                    scale = sum(abs(c) * abs(t) ** k for k, c in enumerate(coeffs))
                    assert abs(value) <= 1e-12 * scale, (q, r, t)


def test_spectrum_order4_base():
    poly = graph_poly(SWITCH4_A)
    want = roots_poly(
        [v for v, m in SPECTRUM_SWITCH4_A.items() for _ in range(m)]
    )
    assert poly.coeffs == want.coeffs


def test_spectrum_order4_switched():
    int_part = roots_poly(
        [v for v, m in SPECTRUM_SWITCH4_B_INT.items() for _ in range(m)]
    )
    want = poly_product(((int_part, 1), (switched_quartic(2, 2), 1)))
    assert graph_poly(SWITCH4_B).coeffs == want.coeffs


def test_switched_charpoly_expected_order4():
    got = switched_charpoly_expected(graph_poly(SWITCH4_A), 2, 2)
    assert got.coeffs == graph_poly(SWITCH4_B).coeffs


def test_switched_charpoly_expected_order6():
    got = switched_charpoly_expected(graph_poly(SIX), 2, 3)
    assert got.coeffs == graph_poly(SIX_SWITCHED).coeffs
    # the four departing eigenvalues for type (2, 3): -2, -5, 4, 1
    removed = roots_poly([-2, -5, 4, 1])
    poly_divexact(graph_poly(SIX), removed)


def test_switched_charpoly_expected_order9():
    got = switched_charpoly_expected(graph_poly(NINE), 3, 3)
    assert got.coeffs == graph_poly(NINE_SWITCHED).coeffs


def test_switched_numeric_surds_order4():
    rep = numeric_spectrum(build_mosls_graph(single(SWITCH4_B)).adjacency)
    vals = {round(v, 4): m for v, m in rep.numeric}
    assert vals[round(-1 + math.sqrt(5), 4)] == 2
    assert vals[round(-1 - math.sqrt(5), 4)] == 2


def test_theorem_preconditions():
    with pytest.raises(TheoremPreconditionError, match="q, r >= 2"):
        switched_charpoly_expected(IntPolynomial((0, 1)), 1, 4)
    base = charpoly_exact(np.zeros((16, 16)))
    with pytest.raises(TheoremPreconditionError, match="not divisible"):
        switched_charpoly_expected(base, 2, 2)
    # a base of degree below 4, the zero polynomial included: every root
    # divides zero, but no quotient of degree -4 exists
    for coeffs in [(0,), (5,), (2, 1)]:
        with pytest.raises(TheoremPreconditionError, match="not divisible"):
            switched_charpoly_expected(IntPolynomial(coeffs), 2, 2)


def _expected_by_long_division(base, q, r):
    """The switching theorem by general division, as the reference."""
    removed = roots_poly(_leaving_roots(q, r))
    quot, rem = poly_divmod(base, removed)
    if rem.coeffs != (0,):
        raise TheoremPreconditionError("not divisible")
    return poly_product(((quot, 1), (switched_quartic(q, r), 1)))


def test_synthetic_division_matches_long_division():
    # seeded bases as factor lists: linear factors at the four removed
    # roots and near them with random multiplicities (zero makes the
    # theorem inapplicable), a random quadratic, and a constant that
    # makes the base non-monic
    rng = np.random.default_rng(12)
    raised = 0
    for _ in range(600):
        q, r = rng.integers(2, 7, size=2).tolist()
        roots = _leaving_roots(q, r)
        candidates = roots + rng.integers(-12, 40, size=3).tolist()
        mults = rng.choice(4, size=4, p=[0.15, 0.45, 0.25, 0.15]).tolist()
        mults += rng.integers(0, 3, size=3).tolist()
        factors = [(IntPolynomial((-v, 1)), m) for v, m in zip(candidates, mults)]
        if rng.random() < 0.5:
            factors.append((IntPolynomial((*rng.integers(-9, 10, size=2).tolist(), 1)), 1))
        if rng.random() < 0.3:
            factors.append((IntPolynomial((int(rng.choice([-3, -1, 2, 7])),)), 1))
        base = poly_product(factors)
        try:
            want = _expected_by_long_division(base, q, r)
        except TheoremPreconditionError:
            raised += 1
            with pytest.raises(TheoremPreconditionError, match="not divisible"):
                switched_charpoly_expected(base, q, r)
        else:
            assert switched_charpoly_expected(base, q, r).coeffs == want.coeffs
    assert 150 < raised < 450


# ---------------------------------------------------------------------------
# certificates


def test_certificate_not_isomorphic_order4():
    cert = nonisomorphism_certificate(SWITCH4_A, SWITCH4_B)
    assert cert.verdict == "NOT-ISOMORPHIC"
    assert cert.differing_coefficient_index == 5
    d = cert.to_json_dict()
    assert d["verdict"] == "NOT-ISOMORPHIC"
    assert d["charpoly_a"][-1] == "1"


def test_certificate_not_isomorphic_order9():
    cert = nonisomorphism_certificate(NINE, NINE_SWITCHED)
    assert cert.verdict == "NOT-ISOMORPHIC"
    assert cert.differing_coefficient_index == 0


def test_certificate_inconclusive():
    cert = nonisomorphism_certificate(SWITCH4_A, SWITCH4_A)
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.differing_coefficient_index is None
    assert isinstance(cert, Certificate)


@pytest.mark.parametrize("b", [SWITCH4_B, SWITCH4_A], ids=["not-isomorphic", "inconclusive"])
def test_certificate_verdict_follows_the_differing_index(b):
    cert = nonisomorphism_certificate(SWITCH4_A, b)
    differ = cert.charpoly_a.coeffs != cert.charpoly_b.coeffs
    assert (cert.differing_coefficient_index is not None) == differ
    assert cert.verdict == ("NOT-ISOMORPHIC" if differ else "INCONCLUSIVE")
    assert cert.to_json_dict()["verdict"] == cert.verdict
    # derived from the index, not stored beside it
    assert "verdict" not in {f.name for f in dataclasses.fields(cert)}
    flipped = dataclasses.replace(cert, differing_coefficient_index=None if differ else 0)
    assert flipped.verdict == ("INCONCLUSIVE" if differ else "NOT-ISOMORPHIC")
    with pytest.raises(AttributeError):
        cert.verdict = "INCONCLUSIVE"


def test_certificate_inconclusive_under_relabel():
    # symbol relabelling leaves the cell graph unchanged
    relabel = {1: 3, 2: 1, 3: 4, 4: 2}
    ent = np.vectorize(relabel.get)(SWITCH4_A.entries)
    other = type(SWITCH4_A)(ent, SWITCH4_A.shape)
    cert = nonisomorphism_certificate(SWITCH4_A, other)
    assert cert.verdict == "INCONCLUSIVE"


def test_certificate_shape_mismatch():
    with pytest.raises(ValueError, match=r"^shape mismatch: type \(2, 2\) vs type \(2, 3\)$"):
        nonisomorphism_certificate(SWITCH4_A, SIX)


# ---------------------------------------------------------------------------
# switch sweep


def _valid_switches():
    """Every valid symbol switch of every square of the constructible table
    rows of order <= 12 with q, r >= 2, as (square, spec)."""
    return [
        (square, spec)
        for order, q, r, factors, _ in _TABLE_ROWS
        if factors and order <= 12 and min(q, r) >= 2
        for square in composite_mosls(factors).squares
        for spec, _ in switches_of(square)
    ]


def _sampled_switches(full: bool):
    """All valid switches when full, else the seeded sample of 40."""
    switches = _valid_switches()
    assert len(switches) == 982
    if not full:
        picks = np.random.default_rng(2021).choice(len(switches), size=40, replace=False)
        switches = [switches[i] for i in sorted(picks)]
    return switches


def test_switch_sweep(request, no_general_path):
    """The switching theorem predicts the switched charpoly, and the two
    charpolys differ, on a seeded sample of the valid switches (all of them
    with --full-sweep); every charpoly is a certified guess.  Every switched
    square is Latin and Sudoku, which sudoku_symbol_switch does not recheck.
    On every base and switched square the Latin and block layers commute
    exactly when the square is block-permutational."""
    switches = _sampled_switches(request.config.getoption("--full-sweep"))

    def poly_and_commute(square):
        g = build_mosls_graph(single(square))
        assert commute_check(g) == is_block_permutational(square)
        return charpoly_exact(g.adjacency)

    base = {}
    for square, spec in switches:
        q, r = square.shape.q, square.shape.r
        eff_q, eff_r = (q, r) if spec.kind == "row-block" else (r, q)
        key = square.entries.tobytes()
        if key not in base:
            base[key] = poly_and_commute(square)
        switched_square = sudoku_symbol_switch(square, spec)
        assert is_latin(switched_square) and is_sudoku(switched_square)
        switched = poly_and_commute(switched_square)
        assert switched_charpoly_expected(base[key], eff_q, eff_r).coeffs == switched.coeffs
        assert base[key].coeffs != switched.coeffs


# bases of the switched families: orders 8 and 9, and the order-12 types
# (2, 6), (3, 4) and (4, 3) of the golden switch inputs
SWITCHED_FAMILY_BASES = [
    [(2, 1, 2)], [(2, 2, 1)], [(3, 1, 1)],
    [(2, 1, 1), (3, 0, 1)], [(3, 1, 0), (2, 0, 2)], [(2, 2, 0), (3, 0, 1)],
]


def _switched_families(per_base: int, rng):
    """per_base orthogonal pairs of squares of each base family, each square
    kept (1 in 3) or given one valid symbol switch, at least one switched."""
    for factors in SWITCHED_FAMILY_BASES:
        fam = composite_mosls(factors)
        switched = [[square for _, square in switches_of(sq)] for sq in fam.squares]
        kept = 0
        while kept < per_base:
            pair = sorted(rng.choice(len(fam), size=2, replace=False))
            unswitched = rng.random(2) < 1 / 3
            if unswitched.all():
                continue
            a, b = (fam.squares[k] if same else switched[k][rng.integers(len(switched[k]))]
                    for k, same in zip(pair, unswitched))
            if are_orthogonal(a, b):
                kept += 1
                yield MoslsFamily(fam.shape, (a, b))


def test_commute_check_agrees_with_block_permutational(request):
    """The Latin and block layers commute exactly when every square is
    block-permutational, the claim proved at
    designs.is_block_permutational for at most three squares that are not:
    on every table family of order <= 12, the fixture families and squares,
    and seeded orthogonal pairs of switched squares, 30 per base family
    (300 with --full-sweep), among them pairs of two squares that are not.
    On each, the row and column counts of graph_reference.layers_commute
    decide as commute_check does."""
    per_base = 300 if request.config.getoption("--full-sweep") else 30
    families = [composite_mosls(factors) for *_, factors in TABLE_ROWS]
    families += [FOUR_FAMILY, ORTHO8_FAMILY]
    families += [single(sq) for sq in (SIX, SIX_SWITCHED, NINE, NINE_SWITCHED, TEN, SWITCH4_A, SWITCH4_B)]
    families += _switched_families(per_base, np.random.default_rng(2021))
    failing = Counter()
    for fam in families:
        permutational = [is_block_permutational(sq) for sq in fam.squares]
        commutes = commute_check(build_mols_graph(fam))
        assert commutes == all(permutational) and layers_commute(fam) == commutes
        failing[permutational.count(False)] += 1
    assert failing[0] >= 16 and failing[1] >= per_base and failing[2] >= per_base


def _random_sudoku_squares(order: int, count: int, rng) -> list:
    """count Sudoku squares of the order that are not block-permutational:
    each a chain of 20 random valid symbol switches from a table square of
    that order or its transpose."""
    starts = [sq for o, _, _, factors in TABLE_ROWS if o == order for sq in composite_mosls(factors).squares]
    starts += [transpose(sq) for sq in starts]
    squares = []
    while len(squares) < count:
        square = switch_chain(starts[rng.integers(len(starts))], 20, rng)
        if not is_block_permutational(square):
            squares.append(square)
    return squares


def test_no_sudoku_graph_takes_the_general_path(request, no_general_path):
    """charpoly_exact certifies its guess, and equals the Hessenberg
    reference, on both graph flavours of every table row of order <= 12,
    the single-square graphs of the switches test_switch_sweep samples,
    TEN, and seeded random Sudoku squares of orders 10 and 12 (10 per order,
    100 with --full-sweep)."""
    per_order = 100 if request.config.getoption("--full-sweep") else 10
    rng = np.random.default_rng(1011)
    squares = [TEN]
    for square, spec in _sampled_switches(full=False):
        squares += [square, sudoku_symbol_switch(square, spec)]
    for order in (10, 12):
        squares += _random_sudoku_squares(order, per_order, rng)
    graphs = [adjacency for _, adjacency in table_graphs()]
    graphs += [build_mosls_graph(single(square)).adjacency for square in squares]
    seen = set()
    for adjacency in graphs:
        key = adjacency.tobytes()
        if key not in seen:
            seen.add(key)
            assert charpoly_exact(adjacency) == reference_charpoly(adjacency)
    assert len(seen) >= 2 * per_order + 40
