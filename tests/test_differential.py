"""Closed form, exact charpoly and both numeric solvers agree on the cell
graphs of every constructible `table` row of order at most 12; the
switching theorem holds on field squares of orders 16 to 27 (49 with
--full-sweep); the closed forms hold on the two-factor product families
up to order 24 (48 with --full-sweep); and the spectral commands give the
same bytes in process and in fresh processes under any OpenBLAS
threading."""

import itertools
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from mosls import (
    IntPolynomial,
    build_mols_graph,
    build_mosls_graph,
    certify_charpoly,
    charpoly_exact,
    commute_check,
    composite_mosls,
    designs,
    is_block_permutational,
    mosls_graph_spectrum,
    nonisomorphism_certificate,
    numeric_spectrum,
    poly_product,
    srg_spectrum,
    switched_charpoly_expected,
    switched_quartic,
)
from mosls.cli import _TABLE_ROWS, main
from mosls.gf import is_prime
from fixtures import fresh_env, single, switches_of
from spectra_reference import jacobi_eigenvalues

# pure-Python Jacobi takes about a second at 81 vertices and grows as
# n**3, so it is compared on the graphs of at most 64 vertices and on one
# of 81, the order-9 Sudoku (type 3 x 3) MOSLS graph
JACOBI_MAX_VERTICES = 64

ROWS = [(order, q, r, factors) for order, q, r, factors, _ in _TABLE_ROWS if factors and order <= 12]


def _graph_and_closed(factors, flavor):
    fam = composite_mosls(factors)
    if flavor == "mosls":
        return build_mosls_graph(fam), mosls_graph_spectrum(fam.shape.q, fam.shape.r, len(fam))
    n = fam.shape.order
    return build_mols_graph(fam, [1]), srg_spectrum(n * n, 3 * (n - 1), n, 6)


@pytest.mark.parametrize("flavor", ["mosls", "mols"])
@pytest.mark.parametrize(
    "order,q,r,factors", ROWS, ids=[f"order{o}-type{q}x{r}" for o, q, r, _ in ROWS]
)
def test_spectra_agree(order, q, r, factors, flavor):
    g, closed = _graph_and_closed(factors, flavor)
    assert (g.order, g.shape.q, g.shape.r) == (order, q, r)

    expected = sorted(
        ((float(v.real), m) for f, m in closed for v in np.roots(f.coeffs[::-1])),
        reverse=True,
    )
    rep = numeric_spectrum(g.adjacency, with_charpoly=False)
    assert [m for _, m in rep.numeric] == [m for _, m in expected]
    assert np.allclose([v for v, _ in rep.numeric], [v for v, _ in expected], rtol=0, atol=1e-9)

    assert charpoly_exact(g.adjacency).coeffs == poly_product(closed).coeffs

    if g.num_vertices <= JACOBI_MAX_VERTICES or (order, q, r, flavor) == (9, 3, 3, "mosls"):
        reference = jacobi_eigenvalues(g.adjacency)
        values = np.linalg.eigvalsh(g.adjacency.astype(np.float64))[::-1]
        assert np.max(np.abs(reference - values)) <= 1e-9


# field squares above 144 vertices, as (p, m, n): q = p**m, r = p**n
LARGE_FIELDS = {
    "order16-type4x4": (2, 2, 2),
    "order16-type2x8": (2, 1, 3),
    "order25-type5x5": (5, 1, 1),
    "order27-type3x9": (3, 1, 2),
    "order27-type9x3": (3, 2, 1),
    "order32-type2x16": (2, 1, 4),
    "order32-type4x8": (2, 2, 3),
    "order32-type8x4": (2, 3, 2),
    "order32-type16x2": (2, 4, 1),
    "order49-type7x7": (7, 1, 1),
}


@pytest.mark.parametrize("factor", LARGE_FIELDS.values(), ids=LARGE_FIELDS.keys())
def test_switching_theorem_above_order_12(factor, request):
    """The first field square and its first valid symbol switch: the
    certificate's charpolys, charpoly_exact of the two single-square
    graphs, are the closed form and the switching theorem's prediction
    from it, and they differ.  Orders 32 (1024 vertices, about 2-3 s each)
    and 49 (2401 vertices, about 20 s) run with --full-sweep only."""
    p, m, n = factor
    if p ** (m + n) > 27 and not request.config.getoption("--full-sweep"):
        pytest.skip("orders 32 and 49 run with --full-sweep")
    square = composite_mosls([factor], order_cap=49).squares[0]
    assert is_block_permutational(square)
    spec, switched = next(switches_of(square))
    q, r = square.shape.q, square.shape.r
    eff_q, eff_r = (q, r) if spec.kind == "row-block" else (r, q)
    cert = nonisomorphism_certificate(square, switched)
    assert cert.verdict == "NOT-ISOMORPHIC"
    assert cert.charpoly_a.coeffs == poly_product(mosls_graph_spectrum(q, r, 1)).coeffs
    assert cert.charpoly_b.coeffs == switched_charpoly_expected(cert.charpoly_a, eff_q, eff_r).coeffs


def _product_types(max_order: int):
    """Every two-factor product type of order at most max_order with
    q, r >= 2, as (order, q, r, factors): factors (p1, m1, n1) and
    (p2, m2, n2) over primes p1 < p2, q = p1**m1 p2**m2, r = p1**n1 p2**n2."""
    factors = [
        (p, m, e - m)
        for p in range(2, max_order // 2 + 1) if is_prime(p)
        for e in range(1, max_order.bit_length()) if p**e <= max_order // 2
        for m in range(e + 1)
    ]
    types = []
    for (p1, m1, n1), (p2, m2, n2) in itertools.combinations(factors, 2):
        q, r = p1**m1 * p2**m2, p1**n1 * p2**n2
        if p1 < p2 and q * r <= max_order and min(q, r) >= 2:
            types.append((q * r, q, r, [(p1, m1, n1), (p2, m2, n2)]))
    return sorted(types)


PRODUCT_TYPES = _product_types(48)
assert len(PRODUCT_TYPES) == 77


@pytest.mark.parametrize(
    "order,q,r,factors", PRODUCT_TYPES, ids=[f"order{o}-type{q}x{r}" for o, q, r, _ in PRODUCT_TYPES]
)
def test_closed_forms_on_product_families(order, q, r, factors, request):
    """Every square of a two-factor product family is block-permutational
    (proof at construct.product), its layers commute, and the closed form
    is the charpoly of the whole family's MOSLS graph, certified on it.  A
    one-square family also obeys the switching theorem on its first valid
    switch: the switched graph's charpoly, certified as the closed form
    less the four leaving eigenvalues times the joining quartic, is
    switched_charpoly_expected of the closed form.  Orders 26-48 (676-2304
    vertices) run with --full-sweep only."""
    if order > 24 and not request.config.getoption("--full-sweep"):
        pytest.skip("orders above 24 run with --full-sweep")
    fam = composite_mosls(factors, order_cap=order)
    assert (fam.shape.q, fam.shape.r) == (q, r)
    assert all(is_block_permutational(square) for square in fam.squares)
    g = build_mosls_graph(fam)
    assert commute_check(g)
    closed = mosls_graph_spectrum(q, r, len(fam))
    assert certify_charpoly(g.adjacency, closed)
    if len(fam) > 1:
        return
    spec, switched = next(switches_of(fam.squares[0]))
    eff_q, eff_r = (q, r) if spec.kind == "row-block" else (r, q)
    mults = Counter({-poly.coeffs[0]: mult for poly, mult in closed})
    mults.subtract([-2, -(eff_r + 2), eff_q * eff_r - 2, eff_q * eff_r - eff_r - 2])
    predicted = [(IntPolynomial((-v, 1)), m) for v, m in mults.items() if m]
    predicted.append((switched_quartic(eff_q, eff_r), 1))
    assert switched_charpoly_expected(poly_product(closed), eff_q, eff_r) == poly_product(predicted)
    assert certify_charpoly(build_mosls_graph(single(switched)).adjacency, predicted)


# the CLI's own setting, the OpenBLAS default spin and one thread
OPENBLAS_SETTINGS = [{}, {"OPENBLAS_THREAD_TIMEOUT": "30"}, {"OPENBLAS_NUM_THREADS": "1"}]


def test_spectral_commands_do_not_depend_on_openblas_threading(tmp_path, capsys):
    # spectrum on the order-12 (3, 4) family, then switch and compare on
    # its first square: 144 vertices, the largest exact charpoly
    fam = composite_mosls([(3, 1, 0), (2, 0, 2)])
    family, one, switched = (tmp_path / name for name in ("fam.txt", "one.txt", "switched.txt"))
    designs.save_family(fam, family)
    designs.save_family(single(fam.squares[0]), one)
    commands = [
        ["spectrum", "--in", str(family), "--verify-closed-form"],
        ["switch", "--in", str(one), "--row-block", "1", "--symbols", "1,2", "--out", str(switched)],
        ["compare", "--a", str(one), "--b", str(switched)],
    ]

    in_process = []
    for argv in commands:
        code = main(argv)
        out, err = capsys.readouterr()
        in_process.append((code, out, err))
    written = switched.read_bytes()
    assert [code for code, _, _ in in_process] == [0, 0, 0]
    assert "closed form: MATCH\n" in in_process[0][1]
    assert "verdict: NOT-ISOMORPHIC\n" in in_process[2][1]

    for setting in OPENBLAS_SETTINGS:
        switched.unlink()
        fresh = []
        for argv in commands:
            res = subprocess.run(
                [sys.executable, "-m", "mosls.cli", *argv],
                env=fresh_env(**setting), capture_output=True, text=True,
            )
            fresh.append((res.returncode, res.stdout, res.stderr))
        assert fresh == in_process, setting
        assert switched.read_bytes() == written, setting
