import math
from fractions import Fraction

import numpy as np
import pytest

from mosls import (
    ClosedFormRangeError,
    SwitchSpec,
    IntPolynomial,
    SrgParameterError,
    build_mols_graph,
    build_mosls_graph,
    certify_charpoly,
    charpoly_exact,
    composite_mosls,
    is_block_permutational,
    is_sudoku,
    mosls_graph_spectrum,
    numeric_spectrum,
    poly_product,
    quotient_matrix,
    quotient_spectrum,
    srg_spectrum,
    sudoku_symbol_switch,
)
from mosls import gf, spectra
from mosls.designs import _int_matrix
from mosls.spectra import (
    _abs_row_sum,
    _certificate_bound,
    _coprime_moduli,
    _exact_traces,
    _linear_guess,
    _modulus_limit,
    _power_sum_quotient,
    _power_sums,
    _relative_residual,
)
from fixtures import (
    FOUR_FAMILY,
    SIX,
    SPECTRUM_FOUR_F2,
    SPECTRUM_NINE_F1,
    SPECTRUM_SIX_F1,
    NINE,
    NINE_SWITCHED,
    SIX_SWITCHED,
    SWITCH4_B,
    TABLE_ROWS,
    TEN,
    roots_poly,
    single,
    table_graphs,
)
from hessenberg_reference import (
    _coefficient_bound,
    _hessenberg_charpoly_mod,
    _hessenberg_crt,
    _more_primes,
    _primes_between,
    reference_charpoly,
)
from spectra_reference import ConvergenceError, jacobi_eigenvalues, poly_divexact, poly_divmod


def spectrum_dict(factors) -> dict:
    """Linear factors t - v with multiplicities as {v: m}."""
    assert all(f.degree == 1 and f.coeffs[1] == 1 for f, _ in factors)
    return {-f.coeffs[0]: m for f, m in factors}


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_int_polynomial_basics():
    p = IntPolynomial((-1, 0, 1))  # t^2 - 1
    assert p.degree == 2
    # remainder theorem: p mod (t - x) is the constant p(x)
    assert poly_divmod(p, IntPolynomial((-3, 1)))[1].coeffs == (8,)
    assert poly_divmod(p, IntPolynomial((1, 1)))[1].coeffs == (0,)
    assert p.decimal_strings() == ["-1", "0", "1"]
    with pytest.raises(ValueError):
        IntPolynomial((1, 0))
    with pytest.raises(ValueError):
        IntPolynomial(())


def test_poly_mul():
    a = IntPolynomial((1, 1))
    b = IntPolynomial((-1, 1))
    assert poly_product([(a, 1), (b, 1)]).coeffs == (-1, 0, 1)


def test_poly_divmod():
    num = IntPolynomial((1, 0, 1))  # t^2 + 1
    den = IntPolynomial((-1, 1))  # t - 1
    quot, rem = poly_divmod(num, den)
    assert quot.coeffs == (1, 1) and rem.coeffs == (2,)
    with pytest.raises(ValueError, match="monic"):
        poly_divmod(num, IntPolynomial((1, 2)))


def test_poly_divexact():
    num = IntPolynomial((-1, 0, 1))
    assert poly_divexact(num, IntPolynomial((-1, 1))).coeffs == (1, 1)
    with pytest.raises(ValueError, match="not exact"):
        poly_divexact(IntPolynomial((1, 0, 1)), IntPolynomial((-1, 1)))


def test_poly_from_roots():
    assert roots_poly([1, -1]).coeffs == (-1, 0, 1)
    assert roots_poly([]).coeffs == (1,)
    assert roots_poly([2, 2]).coeffs == (4, -4, 1)


# ---------------------------------------------------------------------------
# exact characteristic polynomial


def test_charpoly_small_cases():
    path3 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    assert charpoly_exact(path3).coeffs == (0, -2, 0, 1)
    assert charpoly_exact(np.zeros((4, 4))).coeffs == (0, 0, 0, 0, 1)
    assert charpoly_exact([[0, 1], [1, 0]]).coeffs == (-1, 0, 1)
    assert charpoly_exact(np.eye(3)).coeffs == (-1, 3, -3, 1)
    assert charpoly_exact(np.zeros((0, 0))).coeffs == (1,)


def test_charpoly_four_cycle():
    c4 = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    assert charpoly_exact(c4).coeffs == (0, 0, -4, 0, 1)


def test_charpoly_pivot_swap_path():
    # zero in the pivot position forces a row/column exchange in the
    # Hessenberg reference
    m = [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
    assert charpoly_exact(m).coeffs == (0, -2, 0, 1)
    assert _hessenberg_crt(np.array(m)).coeffs == (0, -2, 0, 1)


def test_charpoly_multi_prime_reconstruction():
    # coefficients beyond one word force several CRT moduli
    big = 10**6
    m = [[big, 2], [2, -big]]
    assert charpoly_exact(m).coeffs == (-(big * big + 4), 0, 1)


def test_charpoly_nonsymmetric():
    m = [[0, 1], [0, 0]]
    assert charpoly_exact(m).coeffs == (0, 0, 1)
    assert charpoly_exact([[1, 2], [3, 4]]).coeffs == (-2, -5, 1)


def test_charpoly_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(20240817)
    for n in (5, 8, 12):
        m = rng.integers(-3, 4, size=(n, n))
        got = charpoly_exact(m)
        ref = np.poly(m.astype(np.float64))[::-1]  # ascending
        assert np.allclose([float(c) for c in got.coeffs], ref, atol=1e-6)


def test_charpoly_input_validation():
    with pytest.raises(ValueError, match="square"):
        charpoly_exact(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="cap"):
        charpoly_exact(np.zeros((151, 151)))


@pytest.mark.parametrize(
    "M",
    [[[0.5]], [[2.0, 0.5], [0.5, 2.0]], [[np.nan]], [[1e30]], [[2.0**63]],
     [[2**70]], [[-(2**63) - 1]], [[2**64 - 1]]],
)
def test_non_integral_matrices_are_refused(M):
    # an int64 cast read [[0.5]] as [[0]]: charpoly t, certified as t; a
    # Python int beyond int64 raised OverflowError, and 2**64 - 1 wrapped
    with pytest.raises(ValueError, match="integers"):
        charpoly_exact(M)
    with pytest.raises(ValueError, match="integers"):
        certify_charpoly(M, [(IntPolynomial((0, 1)), len(M))])


def test_numeric_spectrum_refuses_a_non_integral_charpoly():
    # 0.5 I was reported with charpoly t**2 and residual 1.0
    half = [[0.5, 0], [0, 0.5]]
    with pytest.raises(ValueError, match="integers"):
        numeric_spectrum(half)
    assert [m for _, m in numeric_spectrum(half, with_charpoly=False).numeric] == [2]
    assert charpoly_exact(np.eye(2)).coeffs == (1, -2, 1)  # integral floats are fine


def _bareiss_det(rows) -> int:
    """Exact integer determinant by fraction-free Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def _reference_charpoly(m) -> tuple[int, ...]:
    """det(tI - m), ascending, from Bareiss determinants at t = 0..n and
    exact Lagrange interpolation."""
    rows = [[int(x) for x in r] for r in np.asarray(m)]
    n = len(rows)
    xs = list(range(n + 1))
    ys = [
        _bareiss_det([[(x if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)])
        for x in xs
    ]
    coeffs = [Fraction(0)] * (n + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]  # prod over j != i of (t - xj) / (xi - xj)
        for j, xj in enumerate(xs):
            if j != i:
                basis = [
                    (lo - xj * hi) / (xi - xj)
                    for lo, hi in zip([Fraction(0)] + basis, basis + [Fraction(0)])
                ]
        coeffs = [c + yi * b for c, b in zip(coeffs, basis)]
    assert all(c.denominator == 1 for c in coeffs)
    return tuple(int(c) for c in coeffs)


def _primes_needed(bound: int) -> int:
    count, prod = 0, 1
    while prod <= bound:
        prod *= _more_primes(count + 1)[count]
        count += 1
    return count


@pytest.mark.parametrize(
    "order,q,r,factors", TABLE_ROWS, ids=[f"order{o}-type{q}x{r}" for o, q, r, _ in TABLE_ROWS]
)
def test_coefficient_bound_covers_table_graphs(order, q, r, factors):
    fam = composite_mosls(factors)
    n = order
    single_square = build_mosls_graph(fam, [1])
    graphs = [
        (build_mosls_graph(fam), mosls_graph_spectrum(q, r, len(fam))),
        (single_square, mosls_graph_spectrum(q, r, 1)),
        (build_mols_graph(fam, [1]), srg_spectrum(n * n, 3 * (n - 1), n, 6)),
    ]
    for g, closed in graphs:
        assert max(abs(c) for c in poly_product(closed).coeffs) < _coefficient_bound(g.adjacency)
    if order == 12:
        # the 144-vertex graphs that switch and compare build
        bound = _coefficient_bound(single_square.adjacency)
        assert bound < 2**420
        assert _primes_needed(2 * bound) <= 16


@pytest.mark.parametrize("k", [0, 1, -3, 10**6])
@pytest.mark.parametrize("n", [1, 5, 12])
def test_charpoly_of_scalar_matrix(k, n):
    # all |eigenvalues| are equal, so Maclaurin's inequality is an equality
    # and the bound exceeds the largest coefficient by exactly one
    want = roots_poly([k] * n).coeffs
    m = k * np.eye(n, dtype=np.int64)
    assert charpoly_exact(m).coeffs == want
    assert _coefficient_bound(m) == max(abs(c) for c in want) + 1


def test_charpoly_matches_reference_on_random_nonsymmetric_matrices():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5, 8, 12):
        for _ in range(3):
            m = rng.integers(-(10**6), 10**6 + 1, size=(n, n))
            assert charpoly_exact(m).coeffs == _reference_charpoly(m)
    sparse = rng.integers(-(10**6), 10**6 + 1, size=(10, 10)) * (rng.random((10, 10)) < 0.3)
    assert charpoly_exact(sparse).coeffs == _reference_charpoly(sparse)


def test_charpoly_when_a_pivot_vanishes_mod_one_prime():
    # the first subdiagonal entry is the largest pool prime: the Hessenberg
    # step swaps rows mod that prime only, and picks it unchanged mod the rest
    p = _more_primes(1)[0]
    m = np.array([[3, -1, 4, 1], [p, 5, -9, 2], [6, 5, 3, -5], [8, 9, -7, 9]])
    assert _primes_needed(2 * _coefficient_bound(m)) > 1
    assert _hessenberg_crt(m).coeffs == _reference_charpoly(m)
    assert charpoly_exact(m).coeffs == _reference_charpoly(m)


def test_hessenberg_refuses_int64_overflow():
    # n * (p - 1)**2 reaches 2**63 at n = 2, p = 2**31 + 1
    eye = np.eye(2, dtype=np.int64)
    with pytest.raises(ValueError, match="overflow"):
        _hessenberg_charpoly_mod(eye, 2**31 + 1)
    p = 2**31 - 1
    assert _hessenberg_charpoly_mod(eye, p) == [1, p - 2, 1]


def test_prime_pool_matches_trial_division():
    want, cand = [], (1 << 26) - 1
    while len(want) < 300:  # more than one sieve window
        if gf.is_prime(cand):
            want.append(cand)
        cand -= 1
    assert _more_primes(300) == want
    assert _primes_between(2, 3000) == [x for x in range(2, 3000) if gf.is_prime(x)]


# ---------------------------------------------------------------------------
# certified guess


def _certificate_graphs():
    """Both graph flavours of every constructible table row of order <= 12,
    and switched single squares, as (id, adjacency)."""
    twelve = composite_mosls([(3, 1, 0), (2, 0, 2)]).squares[0]
    switched = [
        ("switch4", SWITCH4_B),
        ("switch6", SIX_SWITCHED),
        ("switch9", NINE_SWITCHED),
        ("switch12", sudoku_symbol_switch(twelve, SwitchSpec("row-block", 1, (1, 3)))),
    ]
    return table_graphs() + [(name, build_mosls_graph(single(sq)).adjacency) for name, sq in switched]


CERTIFICATE_GRAPHS = _certificate_graphs()


@pytest.mark.parametrize("adjacency", [a for _, a in CERTIFICATE_GRAPHS], ids=[i for i, _ in CERTIFICATE_GRAPHS])
def test_certified_guess_matches_hessenberg(adjacency, no_general_path):
    assert charpoly_exact(adjacency) == reference_charpoly(adjacency)


def _nine_switched():
    adjacency = build_mosls_graph(single(NINE_SWITCHED)).adjacency
    factors = _linear_guess(adjacency)
    linear = sorted(-f.coeffs[0] for f, _ in factors)
    factors.append((_power_sum_quotient(adjacency, factors), 1))
    return adjacency, dict(factors), linear


def test_power_sums_newton_identities():
    # t^2 - t - 1: the power sums of the golden ratio and its conjugate are
    # the Lucas numbers
    assert _power_sums(IntPolynomial((-1, -1, 1)), 8) == [2, 1, 3, 4, 7, 11, 18, 29]
    assert _power_sums(IntPolynomial((-3, 1)), 4) == [1, 3, 9, 27]
    assert _power_sums(roots_poly([2, -1, 5]), 5) == [3, 6, 30, 132, 642]


def test_power_sum_quotient_inverts_newton_identities():
    # diag(2, 2, 3) plus the companion matrix of t^3 - 2t + 5: the
    # quotient by the right linear factors is that cubic, and the general
    # path (no linear factors) gives the whole charpoly
    cubic = IntPolynomial((5, -2, 0, 1))
    M = np.zeros((6, 6), dtype=np.int64)
    M[:3, :3] = np.diag([2, 2, 3])
    M[4, 3] = M[5, 4] = 1
    M[3:, 5] = [-c for c in cubic.coeffs[:3]]
    linear = [(IntPolynomial((-2, 1)), 2), (IntPolynomial((-3, 1)), 1)]
    assert _power_sum_quotient(M, linear) == cubic
    assert _power_sum_quotient(M, []) == poly_product(linear + [(cubic, 1)])
    assert _power_sums(cubic, 4)[1:] == _exact_traces(M[3:, 3:], 3)


def test_exact_traces_match_integer_powers():
    rng = np.random.default_rng(9)
    for n, amax in ((1, 5), (4, 3), (7, 10**6), (5, 2**62)):
        M = rng.integers(-amax, amax + 1, size=(n, n))
        power, want = np.eye(n, dtype=object), []
        for _ in range(6):
            power = power.dot(M.astype(object))
            want.append(int(power.trace()))
        assert _exact_traces(M, 6) == want
    assert _abs_row_sum(np.array([[-(2**63), -(2**63)], [1, 2]])) == 2**64


def test_certificate_accepts_the_true_factors():
    adjacency, factors, _ = _nine_switched()
    quartic = [f for f in factors if f.degree == 4]
    assert [f.coeffs for f in quartic] == [(424, 86, -39, -4, 1)]
    assert certify_charpoly(adjacency, list(factors.items()))


def _linear(root):
    return IntPolynomial((-root, 1))


def _moved_multiplicity(factors, linear):
    bad = dict(factors)
    bad[_linear(linear[0])] -= 1
    bad[_linear(linear[1])] += 1
    return bad


def _shifted_root(factors, linear):
    root = next(x for x in linear if x + 1 not in linear)
    bad = dict(factors)
    bad[_linear(root + 1)] = bad.pop(_linear(root))
    return bad


def _wrong_quartic(factors, linear):
    bad = dict(factors)
    quartic = next(f for f in bad if f.degree == 4)
    bad[IntPolynomial((quartic.coeffs[0] + 1,) + quartic.coeffs[1:])] = bad.pop(quartic)
    return bad


def _dropped_factor(factors, linear):
    # the multiplicity of one eigenvalue goes to another, so R loses a root
    # and the degree still matches
    bad = dict(factors)
    bad[_linear(linear[1])] += bad.pop(_linear(linear[0]))
    return bad


@pytest.mark.parametrize("mutate", [_moved_multiplicity, _shifted_root, _wrong_quartic, _dropped_factor])
def test_certificate_rejects_perturbed_candidates(mutate):
    adjacency, factors, linear = _nine_switched()
    bad = mutate(factors, linear)
    assert sum(m * f.degree for f, m in bad.items()) == 81
    assert not certify_charpoly(adjacency, list(bad.items()))


def test_narrow_unsigned_matrices_are_read_without_a_copy():
    adjacency, factors, linear = _nine_switched()
    assert adjacency.dtype == np.uint8
    wide = adjacency.astype(np.int64)
    bad = list(_moved_multiplicity(factors, linear).items())
    for narrow in (adjacency, adjacency.astype(bool), adjacency.astype(np.uint16)):
        assert _int_matrix(narrow) is narrow
        assert charpoly_exact(narrow) == charpoly_exact(wide)
        assert certify_charpoly(narrow, list(factors.items()))
        assert not certify_charpoly(narrow, bad)
    # row sums of uint8 entries promote instead of wrapping at 256
    assert _abs_row_sum(np.full((3, 3), 255, dtype=np.uint8)) == 765


def test_signed_narrow_matrices_are_cast():
    # np.abs(np.int8(-128)) is -128, so int8 input takes the int64 cast
    for rows, row_sum, coeffs in [
        ([[-128, 1], [0, 2]], 129, (-256, 126, 1)),  # (t + 128)(t - 2)
        ([[-128, 0], [0, 3]], 128, (-384, 125, 1)),  # symmetric: the certified guess
    ]:
        M = np.array(rows, dtype=np.int8)
        assert _int_matrix(M).dtype == np.int64
        assert _abs_row_sum(_int_matrix(M)) == row_sum
        assert charpoly_exact(M).coeffs == coeffs


def test_certificate_input_validation():
    with pytest.raises(ValueError, match="square"):
        certify_charpoly(np.zeros((2, 3)), [(IntPolynomial((0, 1)), 2)])
    with pytest.raises(ValueError, match="monic"):
        certify_charpoly(np.zeros((2, 2)), [(IntPolynomial((0, 2)), 2)])
    assert not certify_charpoly(np.zeros((2, 2)), [(IntPolynomial((0, 1)), 1)])
    assert certify_charpoly(np.zeros((0, 0)), [])


@pytest.mark.parametrize("n,amax", [(1, 0), (1, 1), (144, 1), (729, 1), (150, 10**6), (2, 2**26)])
def test_modulus_limit_at_its_edge(n, amax):
    a = max(amax, 1)
    m = _modulus_limit(n, amax)
    assert (n * a + 1) * (m - 1) + m < 2**53 <= (n * a + 1) * m + m + 1


def test_coprime_moduli_at_the_bound():
    limit = _modulus_limit(144, 1)
    assert _coprime_moduli(limit, limit - 1) == [limit]
    assert _coprime_moduli(limit, limit) == [limit, limit - 1]
    moduli = _coprime_moduli(limit, 2**500)
    assert math.prod(moduli[:-1]) <= 2**500 < math.prod(moduli)
    assert all(math.gcd(a, b) == 1 for i, a in enumerate(moduli) for b in moduli[i + 1 :])
    assert _coprime_moduli(6, 29) == [6, 5]
    with pytest.raises(ValueError, match="coprime"):
        _coprime_moduli(6, 30)


def test_certificate_bound_is_tight(monkeypatch):
    # for [[5]] and the wrong candidate t + 5, R(A) = 10 is exactly the bound:
    # one modulus of 10 cannot tell it from 0, a product above 10 can
    wrong = [(IntPolynomial((5, 1)), 1)]
    assert _certificate_bound(1, 5, IntPolynomial((5, 1)), [1]) == 10
    assert not certify_charpoly([[5]], wrong)
    assert certify_charpoly([[5]], [(IntPolynomial((-5, 1)), 1)])
    monkeypatch.setattr(spectra, "_coprime_moduli", lambda limit, bound: [bound])
    assert certify_charpoly([[5]], wrong)


def test_certificate_at_the_float64_limit():
    # 2 x 2 with entries 2**26: n * max|a| * (m - 1) comes within a few
    # moduli of 2**53, and both verdicts stay exact
    a = 2**26
    m = [[0, a], [a, 0]]
    assert _modulus_limit(2, a) > 2**25
    assert certify_charpoly(m, [(IntPolynomial((-a, 1)), 1), (IntPolynomial((a, 1)), 1)])
    assert not certify_charpoly(m, [(IntPolynomial((-a, 1)), 1), (IntPolynomial((a - 1, 1)), 1)])
    # n * max|a| = 2**52 leaves no unreduced modulus of 5 or more; the chain
    # reduces the matrix instead, and both verdicts stay exact
    assert _modulus_limit(1, 2**52) < 5
    assert certify_charpoly([[2**52]], [(IntPolynomial((-(2**52), 1)), 1)])
    assert not certify_charpoly([[2**52]], [(IntPolynomial((1 - 2**52, 1)), 1)])


@pytest.mark.parametrize("n", [1, 2, 3, 144, 150, 2401])
def test_reduced_chain_at_its_edge(n):
    # residues in [0, m) are at most m - 1, and up to isqrt(2**52 // n)
    # every float64 value of the chain stays below 2**53
    m = math.isqrt(2**52 // n)
    assert m <= _modulus_limit(n, m - 1)
    assert (n * (m - 1) + 1) * (m - 1) + m < 2**53
    assert n > 150 or m > 2**22


@pytest.mark.parametrize("a", [2**26, 2**26 + 1, 2**62])
def test_guess_runs_at_any_entry_size(a, monkeypatch):
    # the chain reduces large entries, so the moduli never run out and the
    # guess needs no size gate
    calls = []
    guess = spectra._linear_guess
    monkeypatch.setattr(spectra, "_linear_guess", lambda A: calls.append(A) or guess(A))
    assert charpoly_exact([[0, a], [a, 0]]).coeffs == (-(a * a), 0, 1)
    assert len(calls) == 1


def test_unroundable_guess_falls_back_to_the_reference():
    # no eigenvalue is near an integer, so there is no linear factor to
    # guess and the general path runs at once
    rng = np.random.default_rng(3)
    m = rng.integers(-(10**6), 10**6 + 1, size=(12, 12))
    m = m + m.T
    assert _linear_guess(m) == []
    assert charpoly_exact(m).coeffs == _reference_charpoly(m)


def test_sudoku_graph_of_order_10_is_certified(no_general_path):
    # switch and compare build this graph; its 23 simple irrational
    # eigenvalues once sent it to the Hessenberg fallback, and now the
    # power sums give their factor of degree 23 exactly
    assert is_sudoku(TEN) and not is_block_permutational(TEN)
    A = build_mosls_graph(single(TEN)).adjacency
    linear = _linear_guess(A)
    rest = _power_sum_quotient(A, linear)
    assert rest.degree == 23 and max(abs(c) for c in rest.coeffs) >= 2**53
    P = charpoly_exact(A)
    assert P == poly_product(linear + [(rest, 1)]) == reference_charpoly(A)
    # Cayley-Hamilton and the power sums prove P from the graph alone
    assert certify_charpoly(A, [(P, 1)])
    wrong = IntPolynomial((P.coeffs[0] + 1, *P.coeffs[1:]))
    assert not certify_charpoly(A, [(wrong, 1)])


def _counted_calls(monkeypatch, name):
    calls = []
    real = getattr(spectra, name)
    monkeypatch.setattr(spectra, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_rejected_guess_falls_back(monkeypatch):
    path3 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    monkeypatch.setattr(spectra, "_linear_guess", lambda A: [(IntPolynomial((0, 1)), 3)])
    assert charpoly_exact(path3).coeffs == (0, -2, 0, 1)


@pytest.mark.parametrize("guess", [[(1, 1)], [(0, 1), (2, 1)], [(0, 1), (2, 1), (-2, 1)]])
def test_wrong_linear_guess_is_certified_out(guess, monkeypatch):
    # wrong linear factors of path3 (eigenvalues 0 and -+ sqrt 2): Newton's
    # identities still give an integer rest, the certificate rejects the
    # candidate, and the general path (all 3 traces) gives the charpoly
    path3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    linear = [(IntPolynomial((-v, 1)), m) for v, m in guess]
    monkeypatch.setattr(spectra, "_linear_guess", lambda A: linear)
    certified = _counted_calls(monkeypatch, "certify_charpoly")
    traced = _counted_calls(monkeypatch, "_exact_traces")
    assert charpoly_exact(path3).coeffs == (0, -2, 0, 1)
    assert len(certified) == 1 and [d for _, d in traced][-1] == 3


@pytest.mark.parametrize("seed", range(4))
def test_charpoly_of_extreme_int64_entries(seed):
    # entries near -+2**62 and -2**63, symmetric or not
    rng = np.random.default_rng(seed)
    n = 2 + seed
    m = rng.integers(-(2**62), 2**62, size=(n, n)) + rng.integers(-5, 6, size=(n, n))
    m[0, 0] = -(2**63)
    for M in (m, np.triu(m) + np.triu(m, 1).T):
        assert charpoly_exact(M).coeffs == _reference_charpoly(M)
    assert charpoly_exact([[2**62, 3], [5, -(2**62)]]).coeffs == (-(2**124) - 15, 0, 1)


def test_closed_form_factors_expand_to_the_charpoly():
    factors = mosls_graph_spectrum(3, 3, 6)
    assert all(m > 0 and f.coeffs[-1] == 1 for f, m in factors)
    g = build_mosls_graph(composite_mosls([(3, 1, 1)]))
    assert poly_product(factors).coeffs == charpoly_exact(g.adjacency).coeffs
    assert certify_charpoly(g.adjacency, factors)


def _fraction_residual(poly: IntPolynomial, points) -> float:
    """max |p(x)| / sum |c_k x^k| in Fraction arithmetic, the formula that
    _relative_residual must reproduce bit for bit."""
    worst = 0.0
    for x in points:
        fx = Fraction(x).limit_denominator(10**15)
        num = Fraction(0)
        den = Fraction(0)
        power = Fraction(1)
        for c in poly.coeffs:
            num += c * power
            den += abs(c) * abs(power)
            power *= fx
        if den == 0:
            continue
        worst = max(worst, abs(float(num / den)))
    return worst


def test_relative_residual_matches_fraction_formula():
    rng = np.random.default_rng(11)
    for _ in range(200):
        deg = int(rng.integers(0, 25))
        scale = 10 ** int(rng.integers(0, 40))
        coeffs = [int(c) * scale + int(rng.integers(-9, 10)) for c in rng.integers(-1000, 1001, deg + 1)]
        coeffs[-1] = coeffs[-1] or 1
        poly = IntPolynomial(tuple(coeffs))
        points = [float(x) for x in rng.normal(0, 10, 3)] + [0.0, float(rng.integers(-5, 6))]
        assert _relative_residual(poly, points) == _fraction_residual(poly, points)
    assert _relative_residual(IntPolynomial((0, 0, 1)), [0.0]) == 0.0

    rep = numeric_spectrum(build_mosls_graph(single(NINE)).adjacency)
    points = [v for v, _ in rep.numeric]
    assert rep.residual == _fraction_residual(rep.charpoly, points)


# ---------------------------------------------------------------------------
# numeric spectrum


def test_jacobi_small():
    assert np.allclose(jacobi_eigenvalues([[0, 1], [1, 0]]), [1, -1])
    assert np.allclose(jacobi_eigenvalues([[5]]), [5])
    assert np.allclose(jacobi_eigenvalues(np.diag([1, 3, 2])), [3, 2, 1])


def test_jacobi_requires_symmetry():
    with pytest.raises(ValueError, match="symmetric"):
        jacobi_eigenvalues([[0, 1], [0, 0]])


def test_jacobi_raises_when_sweeps_run_out():
    g = build_mosls_graph(composite_mosls([(3, 1, 1)]))
    assert g.num_vertices == 81
    with pytest.raises(ConvergenceError, match=r"1 sweeps with off-diagonal norm \d"):
        jacobi_eigenvalues(g.adjacency, max_sweeps=1)


@pytest.mark.parametrize("solver", [jacobi_eigenvalues, numeric_spectrum])
def test_both_solvers_reject_the_same_input(solver):
    with pytest.raises(ValueError, match="square"):
        solver([[0, 1, 0], [1, 0, 1]])
    with pytest.raises(ValueError, match="symmetric"):
        solver([[0, 1], [0, 0]])


def test_jacobi_matches_numpy():
    rng = np.random.default_rng(7)
    for n in (4, 9, 16):
        m = rng.integers(-2, 3, size=(n, n))
        m = m + m.T
        got = jacobi_eigenvalues(m)
        ref = np.sort(np.linalg.eigvalsh(m.astype(np.float64)))[::-1]
        assert np.allclose(got, ref, atol=1e-9)


def test_numeric_spectrum_grouping_and_residual():
    c4 = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    rep = numeric_spectrum(c4)
    assert [(round(v), m) for v, m in rep.numeric] == [(2, 1), (0, 2), (-2, 1)]
    assert rep.charpoly.coeffs == (0, 0, -4, 0, 1)
    assert rep.residual < 1e-9
    d = rep.to_json_dict()
    assert d["charpoly"] == ["0", "0", "-4", "0", "1"]
    assert d["numeric"][0]["mult"] == 1


def test_grouping_compares_with_the_first_member():
    rep = numeric_spectrum(np.diag([3.0, 2.6, 2.2, 1.8, 1.4]), group_tol=0.5, with_charpoly=False)
    assert [m for _, m in rep.numeric] == [2, 2, 1]


def test_numeric_spectrum_refuses_a_group_width_that_breaks_grouping():
    c4 = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    # negative and NaN widths put each eigenvalue alone, so the double 0
    # read a residual of 1; inf put all four in one group
    for bad in (-1e-6, -math.inf, math.nan, math.inf):
        for with_charpoly in (True, False):
            with pytest.raises(ValueError, match="^group_tol must be finite and >= 0, got "):
                numeric_spectrum(c4, group_tol=bad, with_charpoly=with_charpoly)
    # 0 is a valid width: only equal floats group, and the roots 2 and -2
    # stay single either way
    rep = numeric_spectrum(c4, group_tol=0.0)
    assert [m for v, m in rep.numeric if abs(v) > 1] == [1, 1]
    assert sum(m for _, m in rep.numeric) == 4


def test_zero_groups_under_a_narrow_width_are_evaluated_at_zero():
    # the order-4 single-square graph has the eigenvalue 0 x6; eigvalsh
    # returns it as values of order 1e-16, which a width below the guess
    # tolerance leaves in several groups, each of them the root 0
    adjacency = build_mosls_graph(single(FOUR_FAMILY.squares[0])).adjacency
    default = numeric_spectrum(adjacency)
    assert default.residual < 1e-12
    for width in (0.0, 1e-20, 1e-12):
        rep = numeric_spectrum(adjacency, group_tol=width)
        assert rep.charpoly == default.charpoly
        zeros = [m for v, m in rep.numeric if abs(v) <= spectra._GUESS_TOL]
        assert sum(zeros) == 6
        assert rep.residual < 1e-12


def test_numeric_spectrum_without_charpoly():
    rep = numeric_spectrum([[2, 1], [1, 2]], with_charpoly=False)
    assert rep.charpoly is None
    assert [(round(v), m) for v, m in rep.numeric] == [(3, 1), (1, 1)]
    d = rep.to_json_dict()
    assert "charpoly" not in d and "residual" not in d


def test_numeric_spectrum_options_are_keyword_only():
    with pytest.raises(TypeError):
        numeric_spectrum([[2, 1], [1, 2]], 1e-10, 1e-6)


# ---------------------------------------------------------------------------
# closed forms


def test_srg_spectrum_mols_f1():
    got = spectrum_dict(srg_spectrum(16, 9, 4, 6))
    assert got == {9: 1, 1: 9, -3: 6}


def test_srg_spectrum_mols_f2():
    got = spectrum_dict(srg_spectrum(16, 12, 8, 12))
    assert got == {12: 1, 0: 12, -4: 3}


def test_srg_spectrum_petersen():
    assert spectrum_dict(srg_spectrum(10, 3, 0, 1)) == {3: 1, 1: 5, -2: 4}


def test_srg_spectrum_conference():
    got = srg_spectrum(5, 2, 0, 1)
    assert got == [(IntPolynomial((-2, 1)), 1), (IntPolynomial((-1, 1, 1)), 2)]
    roots = sorted(np.roots(got[1][0].coeffs[::-1]).real)
    assert np.allclose(roots, [(-1 - math.sqrt(5)) / 2, (-1 + math.sqrt(5)) / 2])
    assert poly_product(got).coeffs == poly_product(
        [(IntPolynomial((-2, 1)), 1), (IntPolynomial((-1, 1, 1)), 1), (IntPolynomial((-1, 1, 1)), 1)]
    ).coeffs


def test_srg_spectrum_rejects_bad_parameters():
    with pytest.raises(SrgParameterError):
        srg_spectrum(16, 9, 4, 7)
    with pytest.raises(SrgParameterError):
        srg_spectrum(6, 3, 0, 1)


def test_quotient_spectrum_values():
    assert spectrum_dict(quotient_spectrum(2, 2, 2)) == {13: 1, 1: 2, -3: 1}
    assert spectrum_dict(quotient_spectrum(2, 3, 1)) == {17: 1, 5: 3, -1: 2}
    assert spectrum_dict(quotient_spectrum(3, 3, 1)) == {28: 1, 10: 4, 1: 4}
    assert spectrum_dict(quotient_spectrum(1, 4, 2)) == {12: 1, 0: 3}
    assert sum(m for _, m in quotient_spectrum(2, 3, 1)) == 6


def test_quotient_matrix_charpoly_matches_closed_form():
    quo4 = quotient_matrix(build_mosls_graph(FOUR_FAMILY))
    assert charpoly_exact(quo4.entries).coeffs == poly_product(
        quotient_spectrum(2, 2, 2)
    ).coeffs
    quo6 = quotient_matrix(build_mosls_graph(single(SIX)))
    assert charpoly_exact(quo6.entries).coeffs == poly_product(
        quotient_spectrum(2, 3, 1)
    ).coeffs


def test_mosls_graph_spectrum_instances():
    assert spectrum_dict(mosls_graph_spectrum(2, 2, 2)) == SPECTRUM_FOUR_F2
    assert spectrum_dict(mosls_graph_spectrum(2, 3, 1)) == SPECTRUM_SIX_F1
    assert spectrum_dict(mosls_graph_spectrum(3, 3, 1)) == SPECTRUM_NINE_F1
    assert sum(m for _, m in mosls_graph_spectrum(3, 3, 1)) == 81


def test_mosls_graph_spectrum_rejects_out_of_range():
    with pytest.raises(ClosedFormRangeError):
        mosls_graph_spectrum(2, 2, 3)
    with pytest.raises(ValueError):
        mosls_graph_spectrum(2, 2, 0)


def test_poly_product_of_linear_factors():
    factors = [(IntPolynomial((-1, 1)), 1), (IntPolynomial((1, 1)), 1)]
    assert poly_product(factors).coeffs == (-1, 0, 1)


def test_poly_product_of_a_squared_quadratic():
    # the pair -1 +- sqrt 5, each twice: (t^2 + 2t - 4)^2
    assert poly_product([(IntPolynomial((-4, 2, 1)), 2)]).coeffs == (16, -16, -4, 4, 1)


def test_srg_spectrum_rejects_unequal_irrational_multiplicities():
    # disc = 8 is not a square and 2k + (n-1)(lam-mu) = -12, so the two
    # irrational eigenvalues would need different multiplicities
    with pytest.raises(SrgParameterError, match="irrational"):
        srg_spectrum(10, 3, 0, 2)


def test_srg_spectrum_half_integer_conjugates():
    # Paley graph on 13 vertices: (-1 +- sqrt 13)/2, six times each, from
    # the integer quadratic t^2 + t - 3
    got = srg_spectrum(13, 6, 2, 3)
    assert got == [(IntPolynomial((-6, 1)), 1), (IntPolynomial((-3, 1, 1)), 6)]
    roots = sorted(np.roots(got[1][0].coeffs[::-1]).real)
    assert np.allclose(roots, [(-1 - math.sqrt(13)) / 2, (-1 + math.sqrt(13)) / 2])


def test_graph_charpoly_matches_closed_form_order4():
    g = build_mosls_graph(FOUR_FAMILY)
    assert charpoly_exact(g.adjacency).coeffs == poly_product(
        mosls_graph_spectrum(2, 2, 2)
    ).coeffs


def test_graph_numeric_matches_closed_form_order6():
    g = build_mosls_graph(single(SIX))
    rep = numeric_spectrum(g.adjacency)
    want = sorted(SPECTRUM_SIX_F1.items(), key=lambda t: -t[0])
    assert [(round(v), m) for v, m in rep.numeric] == want
    assert rep.residual < 1e-4
    assert sum(m for _, m in rep.numeric) == 36
    assert rep.charpoly.coeffs == poly_product(mosls_graph_spectrum(2, 3, 1)).coeffs
