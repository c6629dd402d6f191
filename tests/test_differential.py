"""Closed form, exact charpoly and both numeric solvers agree on the cell
graphs of every constructible `table` row of order at most 12."""

import numpy as np
import pytest

from mosls import (
    build_mols_graph,
    build_mosls_graph,
    charpoly_exact,
    composite_mosls,
    mosls_graph_spectrum,
    numeric_spectrum,
    poly_product,
    srg_spectrum,
)
from mosls.cli import _TABLE_ROWS
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
