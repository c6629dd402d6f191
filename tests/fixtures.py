"""Reference squares and spectra shared across the test suite.

The grids are small published-style examples of orthogonal (Sudoku) Latin
squares; the spectra are the known closed-form eigenvalue multisets of
their cell graphs.  Everything here is frozen input data for tests.
"""

import os
import tracemalloc
from pathlib import Path

import numpy as np

import mosls
from mosls import (
    IntPolynomial,
    LatinSquare,
    MoslsFamily,
    SudokuShape,
    build_mols_graph,
    build_mosls_graph,
    composite_mosls,
    poly_product,
)
from mosls.cli import _TABLE_ROWS

# orthogonal Sudoku pair of order 4, type (2,2)
FOUR_A = LatinSquare(
    [[1, 2, 4, 3], [3, 4, 2, 1], [4, 3, 1, 2], [2, 1, 3, 4]], SudokuShape(2, 2)
)
FOUR_B = LatinSquare(
    [[1, 4, 3, 2], [3, 2, 1, 4], [4, 1, 2, 3], [2, 3, 4, 1]], SudokuShape(2, 2)
)
FOUR_FAMILY = MoslsFamily(SudokuShape(2, 2), (FOUR_A, FOUR_B))

# printed adjacency of the two-square order-4 MOSLS graph, in block-major
# vertex order: blocks (1,1),(1,2),(2,1),(2,2), cells row-major inside
FOUR_PRINTED_ADJACENCY = np.array(
    [
        [0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1],
        [1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 0],
        [1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 0],
        [1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1],
        [1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1],
        [1, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1],
        [1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1],
        [1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 1, 1, 1, 1],
        [1, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1],
        [1, 1, 1, 1, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1],
        [1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1],
        [1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1],
        [1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1],
        [0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1],
        [0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1],
        [1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0],
    ],
    dtype=np.int64,
)

# switching pair of order 4, type (2,2): SWITCH4_B arises from SWITCH4_A
# by swapping rows 2 and 4 along the cycle through columns 3,4
SWITCH4_A = LatinSquare(
    [[1, 2, 3, 4], [3, 4, 1, 2], [2, 1, 4, 3], [4, 3, 2, 1]], SudokuShape(2, 2)
)
SWITCH4_B = LatinSquare(
    [[1, 2, 3, 4], [3, 4, 2, 1], [2, 1, 4, 3], [4, 3, 1, 2]], SudokuShape(2, 2)
)
# swapping rows 2 and 3 of SWITCH4_A along the {1,4}-symbol cycle instead
# yields a Latin square that is not Sudoku
REMARK4 = LatinSquare(
    [[1, 2, 3, 4], [3, 1, 4, 2], [2, 4, 1, 3], [4, 3, 2, 1]], SudokuShape(2, 2)
)

# Sudoku square of order 6, type (2,3), and its symbol switch: symbols 1,4
# exchanged inside the first row band
SIX = LatinSquare(
    [
        [1, 2, 3, 4, 5, 6],
        [4, 5, 6, 1, 2, 3],
        [2, 3, 1, 5, 6, 4],
        [5, 6, 4, 2, 3, 1],
        [3, 1, 2, 6, 4, 5],
        [6, 4, 5, 3, 1, 2],
    ],
    SudokuShape(2, 3),
)
SIX_SWITCHED = LatinSquare(
    [
        [4, 2, 3, 1, 5, 6],
        [1, 5, 6, 4, 2, 3],
        [2, 3, 1, 5, 6, 4],
        [5, 6, 4, 2, 3, 1],
        [3, 1, 2, 6, 4, 5],
        [6, 4, 5, 3, 1, 2],
    ],
    SudokuShape(2, 3),
)

# Sudoku square of order 9, type (3,3), and its symbol switch: symbols 1,2
# exchanged inside column band 3
NINE = LatinSquare(
    [
        [5, 6, 4, 8, 9, 7, 2, 3, 1],
        [9, 7, 8, 3, 1, 2, 6, 4, 5],
        [1, 2, 3, 4, 5, 6, 7, 8, 9],
        [3, 1, 2, 6, 4, 5, 9, 7, 8],
        [4, 5, 6, 7, 8, 9, 1, 2, 3],
        [8, 9, 7, 2, 3, 1, 5, 6, 4],
        [7, 8, 9, 1, 2, 3, 4, 5, 6],
        [2, 3, 1, 5, 6, 4, 8, 9, 7],
        [6, 4, 5, 9, 7, 8, 3, 1, 2],
    ],
    SudokuShape(3, 3),
)
NINE_SWITCHED = LatinSquare(
    [
        [5, 6, 4, 8, 9, 7, 1, 3, 2],
        [9, 7, 8, 3, 1, 2, 6, 4, 5],
        [1, 2, 3, 4, 5, 6, 7, 8, 9],
        [3, 1, 2, 6, 4, 5, 9, 7, 8],
        [4, 5, 6, 7, 8, 9, 2, 1, 3],
        [8, 9, 7, 2, 3, 1, 5, 6, 4],
        [7, 8, 9, 1, 2, 3, 4, 5, 6],
        [2, 3, 1, 5, 6, 4, 8, 9, 7],
        [6, 4, 5, 9, 7, 8, 3, 2, 1],
    ],
    SudokuShape(3, 3),
)

# Sudoku square of order 10, type (2,5), not block-permutational; its MOSLS
# cell graph has 23 simple irrational eigenvalues, whose np.poly has
# coefficients above 2**52, so they cannot be rounded from floats
TEN = LatinSquare(
    [
        [8, 7, 4, 1, 3, 5, 9, 2, 10, 6],
        [9, 5, 2, 10, 6, 3, 4, 1, 7, 8],
        [7, 10, 6, 2, 5, 1, 3, 9, 8, 4],
        [1, 9, 3, 8, 4, 7, 10, 6, 5, 2],
        [6, 2, 7, 4, 8, 10, 1, 5, 9, 3],
        [5, 1, 10, 3, 9, 4, 2, 8, 6, 7],
        [10, 4, 8, 5, 2, 9, 6, 7, 3, 1],
        [3, 6, 1, 9, 7, 8, 5, 4, 2, 10],
        [4, 8, 5, 6, 10, 2, 7, 3, 1, 9],
        [2, 3, 9, 7, 1, 6, 8, 10, 4, 5],
    ],
    SudokuShape(2, 5),
)

# closed-form eigenvalue multisets of the MOSLS cell graphs
SPECTRUM_FOUR_F2 = {13: 1, 1: 4, -1: 8, -3: 3}
SPECTRUM_SIX_F1 = {17: 1, 5: 3, 4: 2, 2: 6, 1: 4, -1: 2, -2: 10, -4: 6, -5: 2}
SPECTRUM_NINE_F1 = {28: 1, 10: 4, 7: 4, 4: 16, 1: 4, -2: 32, -5: 20}
SPECTRUM_SWITCH4_A = {10: 1, 2: 3, 0: 6, -2: 4, -4: 2}
# integer part of the switched order-4 spectrum; the two surds -1±sqrt(5)
# (each twice) enter through the factor (t^2 + 2t - 4)^2
SPECTRUM_SWITCH4_B_INT = {10: 1, 2: 2, 0: 5, -2: 3, -4: 1}


def single(square: LatinSquare) -> MoslsFamily:
    return MoslsFamily(square.shape, (square,))


def cyclic_square(n: int, shape: SudokuShape | None = None) -> LatinSquare:
    """Cyclic Latin square L(i, j) = ((i + j - 2) mod n) + 1."""
    ent = [[(i + j) % n + 1 for j in range(n)] for i in range(n)]
    return LatinSquare(ent, shape or SudokuShape(1, n))


def fresh_env(*paths: str, **overrides: str) -> dict:
    """Environment for a fresh interpreter: os.environ without OpenBLAS
    settings, the paths and the mosls sources first on PYTHONPATH, then
    the overrides."""
    src = str(Path(mosls.__file__).parent.parent)
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    env["PYTHONPATH"] = os.pathsep.join([*paths, src, os.environ.get("PYTHONPATH", "")])
    return {**env, **overrides}


def peak_traced(fn):
    """(fn(), peak bytes traced during the call); memory allocated before
    the call, such as a graph it reads, does not count."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def roots_poly(roots) -> IntPolynomial:
    """prod (t - x) over the integer roots."""
    return poly_product((IntPolynomial((-x, 1)), 1) for x in roots)


# (order, q, r, factors) of the constructible table rows of order <= 12
TABLE_ROWS = [(o, q, r, factors) for o, q, r, factors, _ in _TABLE_ROWS if factors and o <= 12]


def table_graphs() -> list[tuple[str, np.ndarray]]:
    """Both graph flavours of every constructible table row of order <= 12,
    as (id, adjacency): the MOSLS graph of the family and of its first
    square, and the MOLS graph of its first square."""
    graphs = []
    for order, q, r, factors in TABLE_ROWS:
        fam = composite_mosls(factors)
        tag = f"order{order}-type{q}x{r}"
        graphs.append((f"{tag}-mosls", build_mosls_graph(fam).adjacency))
        graphs.append((f"{tag}-mosls-one", build_mosls_graph(fam, [1]).adjacency))
        graphs.append((f"{tag}-mols-one", build_mols_graph(fam, [1]).adjacency))
    return graphs
