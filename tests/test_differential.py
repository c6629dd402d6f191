"""Closed form, exact charpoly and both numeric solvers agree on the cell
graphs of every constructible `table` row of order at most 12; and the
spectral commands give the same bytes in process and in fresh processes
under any OpenBLAS threading."""

import subprocess
import sys

import numpy as np
import pytest

from mosls import (
    build_mols_graph,
    build_mosls_graph,
    charpoly_exact,
    composite_mosls,
    designs,
    mosls_graph_spectrum,
    numeric_spectrum,
    poly_product,
    srg_spectrum,
)
from mosls.cli import _TABLE_ROWS, main
from fixtures import fresh_env, single
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
