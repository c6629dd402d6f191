"""Cell graphs of MOLS and MOSLS families.

Vertices are the n**2 cells of the common grid, indexed row-major:
cell (row, col) with 1-based coordinates gets index (row-1)*n + col.
In the MOLS flavor two cells are adjacent when they share a row, share a
column, or share a symbol in one of the selected squares; for a valid
family these events are mutually exclusive.  The MOSLS flavor adds edges
between cells of the same block that share neither a row nor a column.
A CellGraph is a checked 0/1 matrix on at most MAX_VERTICES vertices, so
no check here states a bound of its own.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .designs import CheckFailed, MoslsFamily, SudokuShape, _block_cells

# Largest vertex count a CellGraph accepts: order 49.  The dense uint8
# (n**2) x (n**2) adjacency then takes 2401**2 bytes, about 5.8 MB; a
# build holds it and one n**4-byte bool buffer, and the SRG test's
# float32 operand and product take four times the adjacency each.  Order 64
# would take 16.8 MB per byte layer and 67 MB per float32 array.  Every
# common-neighbour or block count is then at most 2401, exact in float32
# (below 2**24) and in int16 (below 2**15).
MAX_VERTICES = 49 ** 2


class FamilyStructureError(CheckFailed):
    """The family violates Latin/orthogonality/Sudoku constraints."""


class EquitabilityError(CheckFailed):
    """The block partition is not equitable for this graph."""


@dataclass
class CellGraph:
    """Dense 0/1 adjacency over the n**2 cells of a family, stored as
    uint8 (a uint8 input is not copied), one byte per cell pair.

    Refuses, with ValueError and in this order, more than MAX_VERTICES
    vertices before reading the adjacency, a shape other than (n**2, n**2),
    and any entry outside {0, 1}.  uint8 arithmetic wraps at 256, so
    callers cast before any arithmetic of their own.
    """

    shape: SudokuShape
    family_size: int
    flavor: str  # "mols" or "mosls"
    adjacency: np.ndarray

    def __post_init__(self):
        nv = _dense_size(self.shape)
        A = self.adjacency
        if A.shape != (nv, nv):
            raise ValueError(f"adjacency has shape {A.shape}, order {self.order} needs ({nv}, {nv})")
        if not (A.max(initial=0) <= 1 if A.dtype == np.uint8 else np.isin(A, (0, 1)).all()):
            raise ValueError("adjacency entries must be 0 or 1")
        self.adjacency = A.astype(np.uint8, copy=False)

    @property
    def order(self) -> int:
        return self.shape.order

    @property
    def num_vertices(self) -> int:
        return self.order ** 2


def _resolve_subset(fam: MoslsFamily, subset) -> list[int]:
    if subset is None:
        return list(range(1, len(fam) + 1))
    try:
        picked = sorted(set(map(operator.index, subset)))
    except TypeError as exc:
        raise ValueError(f"square index is not an integer: {exc}") from None
    for k in picked:
        if not 1 <= k <= len(fam):
            raise ValueError(f"square index {k} outside 1..{len(fam)}")
    return picked


def _dense_size(shape: SudokuShape) -> int:
    """The vertex count n**2 of the shape's cell graph; ValueError above
    MAX_VERTICES."""
    n = shape.order
    if n * n > MAX_VERTICES:
        raise ValueError(
            f"order {n} gives {n * n} vertices, above the dense graph cap of {MAX_VERTICES}"
        )
    return n * n


def _cells(shape: SudokuShape) -> tuple[np.ndarray, np.ndarray]:
    """0-based row and column of every cell; refuses more than
    MAX_VERTICES cells first."""
    return np.divmod(np.arange(_dense_size(shape)), shape.order)


def build_mols_graph(fam: MoslsFamily, subset=None) -> CellGraph:
    """Adjacency for shared row, column, or symbol in a selected square.

    Every distinct cell pair may agree in at most one coordinate; a pair
    agreeing twice names the violation (non-Latin square or non-orthogonal
    pair) in the raised error.
    """
    rows, cols = _cells(fam.shape)
    picked = _resolve_subset(fam, subset)
    labels = [rows, cols, *(fam.squares[k - 1].entries.ravel() for k in picked)]
    names = ["row", "column", *(f"symbol in square {k}" for k in picked)]
    # Each label adds at most 1 to a pair's count, and only 0, 1 and "2 or
    # more" matter, so clamping the counts at 2 every 253 labels keeps them
    # below uint8's wrap at 256.  A family of Latin squares that passes has
    # at most n - 1 squares, hence at most 50 labels under MAX_VERTICES.
    agree = np.zeros((rows.size, rows.size), dtype=np.uint8)
    same = np.empty_like(agree, dtype=bool)
    for i, label in enumerate(labels, start=1):
        agree += np.equal(label[:, None], label[None, :], out=same)
        if i % 253 == 0:
            np.minimum(agree, 2, out=agree)
    np.fill_diagonal(agree, 0)
    if np.greater(agree, 1, out=same).any():
        u, v = np.argwhere(same)[0]
        both = [name for name, label in zip(names, labels) if label[u] == label[v]]
        raise FamilyStructureError(
            f"cells ({rows[u] + 1}, {cols[u] + 1}) and ({rows[v] + 1}, {cols[v] + 1}) "
            f"agree in {both[0]} and {both[1]}; the family is not a valid MOLS family"
        )
    return CellGraph(fam.shape, len(picked), "mols", agree)


def build_mosls_graph(fam: MoslsFamily, subset=None) -> CellGraph:
    """MOLS adjacency plus block edges: cells of one block in different
    rows and different columns.  Requires Sudoku-valid squares, so that
    no such pair already shares a symbol.

    Only the n**3 pairs inside blocks are read and written, through the
    block map; within a block, cell a = i*r + j lies in another row and
    another column than cell b exactly where the n x n pattern is set.
    """
    mols = build_mols_graph(fam, subset)
    A = mols.adjacency
    n, r = fam.shape.order, fam.shape.r
    row, col = np.divmod(np.arange(n), r)
    other = (row[:, None] != row[None, :]) & (col[:, None] != col[None, :])
    cells = _block_cells(fam.shape)
    pairs = cells[:, :, None], cells[:, None, :]  # [block, a, b]
    inside = A[pairs]
    clash = np.logical_and(inside, other)
    if clash.any():
        # the first clashing pair (u, v) in row-major order
        u, v = divmod(int((pairs[0] * n**2 + pairs[1])[clash].min()), n**2)
        raise FamilyStructureError(
            f"cells ({u // n + 1}, {u % n + 1}) and ({v // n + 1}, {v % n + 1}) "
            "share a block and a symbol; some selected square is not Sudoku"
        )
    inside |= other
    A[pairs] = inside
    return CellGraph(fam.shape, mols.family_size, "mosls", A)


def srg_check(graph: CellGraph):
    """Exhaustive strong-regularity test.

    Returns (num_vertices, k, lam, mu) when every vertex has degree k,
    every adjacent pair (entry 1) has lam common neighbours and every
    non-adjacent distinct pair (entry 0) has mu; otherwise returns None.
    A parameter with no pair to read it from is 0.
    """
    A = graph.adjacency
    deg = A.sum(axis=1)
    if deg.min() != deg.max():
        return None
    # every partial sum counts common neighbours, at most MAX_VERTICES <
    # 2**24, so float32 is exact; the operand goes before the masks come
    operand = A.astype(np.float32)
    common = operand @ operand
    del operand
    # two reused masks, no copy of common: each parameter is read at the
    # first pair of its kind (0 when there is none) and every other pair
    # of that kind is compared with it
    pairs = np.empty(A.shape, dtype=bool)
    differ = np.empty_like(pairs)
    params = []
    for entry in (1, 0):
        np.equal(A, entry, out=pairs)
        np.fill_diagonal(pairs, False)
        first = pairs.argmax()
        value = common.flat[first] if pairs.flat[first] else 0
        np.not_equal(common, value, out=differ)
        if np.logical_and(differ, pairs, out=differ).any():
            return None
        params.append(int(value))
    return (A.shape[0], int(deg[0]), *params)


@dataclass
class QuotientMatrix:
    """Equitable-partition quotient: parts and the counts matrix."""

    parts: tuple[tuple[int, ...], ...]  # 0-based vertex indices
    entries: np.ndarray


def block_partition(shape: SudokuShape) -> tuple[tuple[int, ...], ...]:
    """Vertices of each block, ordered block-row-major: (1,1)..(1,q),
    (2,1).. up to (r,q)."""
    return tuple(map(tuple, _block_cells(shape).tolist()))


def quotient_matrix(graph: CellGraph) -> QuotientMatrix:
    """Quotient of the adjacency over the block partition.

    Every vertex of a block must see the same number of neighbours in each
    block, else EquitabilityError identifies the offending block.  The
    counts are sums of each block's adjacency columns, in int64.
    """
    blocks = _block_cells(graph.shape)
    A = graph.adjacency
    counts = np.empty((A.shape[0], len(blocks)), dtype=np.int64)
    for pid, members in enumerate(blocks):
        A[:, members].sum(axis=1, dtype=np.int64, out=counts[:, pid])
    entries = np.empty((len(blocks), len(blocks)), dtype=np.int64)
    for pid, members in enumerate(blocks):
        rows = counts[members]
        if not (rows == rows[0]).all():
            raise EquitabilityError(f"partition is not equitable at part {pid + 1}")
        entries[pid] = rows[0]
    return QuotientMatrix(block_partition(graph.shape), entries)


def _times_block_layer(A: np.ndarray, shape: SudokuShape) -> np.ndarray:
    """The integer product A @ B with the block adjacency B of the shape,
    from sums over A's columns instead of a matrix product.

    B[w, v] = 1 iff cell w lies in v's block but in neither v's row nor
    v's column.  So by inclusion-exclusion (A @ B)[u, v] is row u of A
    summed over v's block, minus its sums over v's row segment (the r
    cells of v's row in that block) and over v's column segment (the q
    cells of v's column there), plus A[u, v], which both segments hold.
    Reshapes of A's columns give all three sums per row u: n block sums,
    n**2 / r row segments and n**2 / q column segments.

    Each sum covers at most n cells of row u, and so does each partial
    result in the order A[u, v] - column, block - row, their sum (q - 1,
    n - r and n - q - r + 1 cells), so every value is at most n max|A| in
    magnitude, and the arithmetic runs in int16: exact for n max|A| <
    2**15, which a CellGraph's 0/1 adjacency meets with n <= 49.
    """
    nv = A.shape[0]
    q, r = shape.q, shape.r
    # cell (band * q + i, stack * r + j) is column
    # ((band * q + i) * q + stack) * r + j, so the columns reshape to
    # [band, i, stack, j], and v's block is [band, stack]
    product = A.reshape(nv, r, q, q, r).astype(np.int16)
    # einsum: sum(axis=-1) over the short last axis is several times slower
    rows = np.einsum("...j->...", product)  # [band, i, stack]
    cols = product.sum(axis=2, dtype=np.int16)  # [band, stack, j]
    np.subtract(rows.sum(axis=2, dtype=np.int16)[:, :, None], rows, out=rows)  # block - row
    product -= cols[:, :, None]
    product += rows[..., None]
    return product.reshape(nv, nv)


def commute_check(graph: CellGraph | MoslsFamily) -> bool:
    """True iff the graph's Latin adjacency L commutes with the block
    adjacency B; a family is taken as its MOLS graph.

    L and B are symmetric, so B @ L is the transpose of L @ B, and the two
    commute iff L @ B is symmetric.  A MOSLS adjacency is L + B, and B @ B
    is symmetric, so for either flavour the test is whether
    adjacency @ B is symmetric; _times_block_layer forms it without a
    matrix product.
    """
    if isinstance(graph, MoslsFamily):
        graph = build_mols_graph(graph)
    product = _times_block_layer(graph.adjacency, graph.shape)
    return bool(np.array_equal(product, product.T))


def edge_lines(graph: CellGraph) -> str:
    """One "u v" line per edge u < v, 1-based, sorted.  Row u is read right
    of the diagonal in place, so no dense copy is made, and its lines are
    joined at once from the precomputed vertex names."""
    A = graph.adjacency
    names = [str(v) for v in range(1, A.shape[0] + 1)]
    rows = []
    for u in range(A.shape[0]):
        later = (np.flatnonzero(A[u, u + 1:]) + (u + 1)).tolist()
        if later:
            prefix = names[u] + " "
            rows.append(prefix + ("\n" + prefix).join([names[v] for v in later]))
    return "\n".join(rows) + "\n" if rows else ""


def matrix_lines(graph: CellGraph) -> str:
    return "\n".join(" ".join(map(str, row)) for row in graph.adjacency.tolist()) + "\n"
