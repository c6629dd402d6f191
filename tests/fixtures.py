"""Reference squares and spectra shared across the test suite.

The grids are small published-style examples of orthogonal (Sudoku) Latin
squares; the spectra are the known closed-form eigenvalue multisets of
their cell graphs.  Everything here is frozen input data for tests.
"""

import itertools
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
    SwitchSpec,
    SwitchValidityError,
    build_mols_graph,
    build_mosls_graph,
    composite_mosls,
    poly_product,
    sudoku_symbol_switch,
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

# orthogonal Sudoku pair of order 8, type (2,4), neither square
# block-permutational, found as exact covers of Sudoku transversals; the
# count N(t, x) of blocks in which the cell holding t in the first square
# and the cell holding x in the second are B-adjacent (same block, other
# row and column) takes the values 1 and 5, not the constant 3
ORTHO8_A = LatinSquare(
    [
        [7, 1, 5, 4, 3, 6, 8, 2],
        [2, 8, 3, 6, 5, 4, 1, 7],
        [8, 7, 6, 3, 4, 5, 2, 1],
        [1, 2, 4, 5, 6, 3, 7, 8],
        [6, 5, 8, 7, 2, 1, 4, 3],
        [4, 3, 1, 2, 7, 8, 6, 5],
        [3, 4, 7, 1, 8, 2, 5, 6],
        [5, 6, 2, 8, 1, 7, 3, 4],
    ],
    SudokuShape(2, 4),
)
ORTHO8_B = LatinSquare(
    [
        [4, 5, 1, 3, 6, 2, 7, 8],
        [7, 2, 8, 6, 4, 5, 1, 3],
        [1, 6, 7, 5, 8, 3, 4, 2],
        [8, 3, 4, 2, 1, 7, 5, 6],
        [5, 7, 3, 8, 2, 4, 6, 1],
        [2, 4, 6, 1, 7, 8, 3, 5],
        [3, 1, 2, 7, 5, 6, 8, 4],
        [6, 8, 5, 4, 3, 1, 2, 7],
    ],
    SudokuShape(2, 4),
)
ORTHO8_FAMILY = MoslsFamily(SudokuShape(2, 4), (ORTHO8_A, ORTHO8_B))

# six mutually orthogonal Sudoku squares of order 9, type (3,3), none of
# them block-permutational, whose MOLS and MOSLS cell graphs are those of
# the order-9 field family composite_mosls([(3, 1, 1)]), whose squares all
# are: each symbol class is a 9-cell clique of the field family's symbol
# layer.  Square k lists the rows of NINE_REGROUPED_ROWS in the order k.
# Found by the exact-cover search of tests/test_mate_search.py.
NINE_REGROUPED_ROWS = (
    "123456789", "789123456", "456789123", "231564897", "645978312",
    "978312645", "312645978", "564897231", "897231564",
)
NINE_REGROUPED_FAMILY = MoslsFamily(
    SudokuShape(3, 3),
    tuple(
        LatinSquare([[int(s) for s in NINE_REGROUPED_ROWS[int(i)]] for i in order], SudokuShape(3, 3))
        for order in ("012345678", "057832416", "084713562", "021687354", "048526731", "075461823")
    ),
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


def switches_of(square: LatinSquare):
    """Every valid symbol switch of the square, as (spec, switched square),
    row bands first, then column bands, each by index and symbol pair."""
    q, r = square.shape.q, square.shape.r
    for kind, bands in (("row-block", r), ("col-block", q)):
        for index in range(1, bands + 1):
            for k1, k2 in itertools.combinations(range(1, square.order + 1), 2):
                spec = SwitchSpec(kind, index, (k1, k2))
                try:
                    yield spec, sudoku_symbol_switch(square, spec)
                except SwitchValidityError:
                    continue


def switch_chain(square: LatinSquare, count: int, rng) -> LatinSquare:
    """The square after count valid symbol switches, each drawn from rng
    (band kind, band index, symbol pair) until one is valid."""
    q, r = square.shape.q, square.shape.r
    switched = 0
    while switched < count:
        kind = ("row-block", "col-block")[rng.integers(2)]
        index = int(rng.integers(1, (r if kind == "row-block" else q) + 1))
        k1, k2 = (int(k) for k in rng.choice(square.order, size=2, replace=False) + 1)
        try:
            square = sudoku_symbol_switch(square, SwitchSpec(kind, index, (k1, k2)))
        except SwitchValidityError:
            continue
        switched += 1
    return square


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


class Discard:
    """A text stream that drops what it is given, so that a writer's
    traced peak counts the writer's own objects and not its output."""

    def write(self, text):
        return len(text)


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
