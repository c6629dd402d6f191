"""Cell graphs of MOLS and MOSLS families.

Vertices are the n**2 cells of the common grid, indexed row-major:
cell (row, col) with 1-based coordinates gets index (row-1)*n + col.
In the MOLS flavor two cells are adjacent when they share a row, share a
column, or share a symbol in one of the selected squares; for a valid
family these events are mutually exclusive.  The MOSLS flavor adds edges
between cells of the same block that share neither a row nor a column.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .designs import CheckFailed, MoslsFamily, SudokuShape, _max_abs

# Largest vertex count the dense builders accept: order 49.  The dense
# int64 (n**2) x (n**2) adjacency then takes 2401**2 * 8 bytes, about 46 MB;
# a build holds that one int64 array plus a few n**4-byte uint8/bool layers
# (5.8 MB each).  Order 64 would need 134 MB for the adjacency alone.
MAX_VERTICES = 49 ** 2


class FamilyStructureError(CheckFailed):
    """The family violates Latin/orthogonality/Sudoku constraints."""


class EquitabilityError(CheckFailed):
    """The block partition is not equitable for this graph."""


@dataclass
class CellGraph:
    """Dense 0/1 adjacency over the n**2 cells of a family."""

    shape: SudokuShape
    family_size: int
    flavor: str  # "mols" or "mosls"
    adjacency: np.ndarray

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


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer product a @ b, computed by float BLAS and returned as int64.

    Every entry and partial sum is an integer of magnitude at most
    a.shape[1] * max|a| * max|b|.  float32 holds every integer below 2**24
    exactly and float64 every one below 2**53, so the product runs in the
    narrower type the bound allows and equals the int64 product in any
    summation order.
    """
    bound = a.shape[1] * _max_abs(a) * _max_abs(b)
    if bound >= 2**53:
        raise ValueError(f"product entries may reach {bound}, not exact in float64 (2**53)")
    dtype = np.float32 if bound < 2**24 else np.float64
    return (a.astype(dtype) @ b.astype(dtype)).astype(np.int64)


def _cells(shape: SudokuShape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0-based row, column and block of every cell, blocks numbered
    block-row-major; refuses more than MAX_VERTICES cells first."""
    n = shape.order
    if n * n > MAX_VERTICES:
        raise ValueError(
            f"order {n} gives {n * n} vertices, above the dense graph cap of {MAX_VERTICES}"
        )
    rows = np.repeat(np.arange(n), n)
    cols = np.tile(np.arange(n), n)
    return rows, cols, (rows // shape.q) * shape.q + cols // shape.r


def build_mols_graph(fam: MoslsFamily, subset=None) -> CellGraph:
    """Adjacency for shared row, column, or symbol in a selected square.

    Every distinct cell pair may agree in at most one coordinate; a pair
    agreeing twice names the violation (non-Latin square or non-orthogonal
    pair) in the raised error.
    """
    rows, cols, _ = _cells(fam.shape)
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
    return CellGraph(fam.shape, len(picked), "mols", agree.astype(np.int64))


def _block_adjacency(shape: SudokuShape) -> np.ndarray:
    """Boolean layer: same block, different row and different column."""
    rows, cols, blocks = _cells(shape)
    layer = blocks[:, None] == blocks[None, :]
    layer &= rows[:, None] != rows[None, :]
    layer &= cols[:, None] != cols[None, :]
    return layer


def build_mosls_graph(fam: MoslsFamily, subset=None) -> CellGraph:
    """MOLS adjacency plus block edges; requires Sudoku-valid squares so
    the two edge sets cannot overlap."""
    mols = build_mols_graph(fam, subset)
    blocks = _block_adjacency(fam.shape)
    overlap = np.logical_and(mols.adjacency, blocks)
    if overlap.any():
        u, v = np.argwhere(overlap)[0]
        n = fam.shape.order
        raise FamilyStructureError(
            f"cells ({u // n + 1}, {u % n + 1}) and ({v // n + 1}, {v % n + 1}) "
            "share a block and a symbol; some selected square is not Sudoku"
        )
    mols.adjacency += blocks
    return CellGraph(fam.shape, mols.family_size, "mosls", mols.adjacency)


def srg_check(graph: CellGraph):
    """Exhaustive strong-regularity test.

    Returns (num_vertices, k, lam, mu) when every vertex has degree k,
    every adjacent pair has lam common neighbours and every non-adjacent
    distinct pair has mu; otherwise returns None.
    """
    A = graph.adjacency
    deg = A.sum(axis=1)
    if deg.min() != deg.max():
        return None
    k = int(deg[0])
    common = _exact_matmul(A, A)
    off = ~np.eye(A.shape[0], dtype=bool)
    lam_vals = common[(A == 1) & off]
    mu_vals = common[(A == 0) & off]
    if lam_vals.size and lam_vals.min() != lam_vals.max():
        return None
    if mu_vals.size and mu_vals.min() != mu_vals.max():
        return None
    lam = int(lam_vals[0]) if lam_vals.size else 0
    mu = int(mu_vals[0]) if mu_vals.size else 0
    return (A.shape[0], k, lam, mu)


@dataclass
class QuotientMatrix:
    """Equitable-partition quotient: parts and the counts matrix."""

    parts: tuple[tuple[int, ...], ...]  # 0-based vertex indices
    entries: np.ndarray


def block_partition(shape: SudokuShape) -> tuple[tuple[int, ...], ...]:
    """Vertices of each block, ordered block-row-major: (1,1)..(1,q),
    (2,1).. up to (r,q)."""
    q, r = shape.q, shape.r
    # cell (band*q + i) * n + (stack*r + j) sits at [band, i, stack, j]
    cells = np.arange(shape.order ** 2).reshape(r, q, q, r).transpose(0, 2, 1, 3)
    return tuple(map(tuple, cells.reshape(q * r, q * r).tolist()))


def quotient_matrix(graph: CellGraph, parts=None) -> QuotientMatrix:
    """Quotient of the adjacency over a partition (default: the blocks).

    Every vertex of a part must see the same number of neighbours in each
    part, else EquitabilityError identifies the offending part.
    """
    if parts is None:
        parts = block_partition(graph.shape)
    nv = graph.num_vertices
    cells = np.array([v for members in parts for v in members])
    valid = cells.dtype.kind in "iu" and all(map(len, parts))
    if not (valid and np.array_equal(np.sort(cells), np.arange(nv))):
        raise ValueError("parts must partition the vertex set")
    indicator = np.zeros((nv, len(parts)), dtype=bool)
    for pid, members in enumerate(parts):
        indicator[list(members), pid] = True
    counts = _exact_matmul(graph.adjacency, indicator)
    entries = np.zeros((len(parts), len(parts)), dtype=np.int64)
    for pid, members in enumerate(parts):
        rows = counts[list(members)]
        if not (rows == rows[0]).all():
            raise EquitabilityError(f"partition is not equitable at part {pid + 1}")
        entries[pid] = rows[0]
    return QuotientMatrix(tuple(tuple(m) for m in parts), entries)


def commute_check(graph: CellGraph | MoslsFamily) -> bool:
    """True iff the graph's Latin adjacency L commutes with the block
    adjacency B; a family is taken as its MOLS graph.

    L and B are symmetric, so B @ L is the transpose of L @ B, and the two
    commute iff L @ B is symmetric.  A MOSLS adjacency is L + B, and B @ B
    is symmetric, so for either flavour the test is whether
    adjacency @ B is symmetric.
    """
    if isinstance(graph, MoslsFamily):
        graph = build_mols_graph(graph)
    product = _exact_matmul(graph.adjacency, _block_adjacency(graph.shape))
    return bool(np.array_equal(product, product.T))


def _edges(graph: CellGraph) -> np.ndarray:
    """Sorted 1-based edge pairs (u, v) with u < v, one row per edge."""
    return np.argwhere(np.triu(graph.adjacency != 0, 1)) + 1


def edge_list(graph: CellGraph) -> list[tuple[int, int]]:
    """Sorted 1-based edge pairs (u, v) with u < v."""
    return [(u, v) for u, v in _edges(graph).tolist()]


def edge_lines(graph: CellGraph) -> str:
    """One "u v" line per edge, in edge_list order; the lines of vertex u
    are joined at once from the precomputed vertex names.  Row u is read
    right of the diagonal in place, so no dense copy is made."""
    A = graph.adjacency
    names = [str(v) for v in range(1, A.shape[0] + 1)]
    rows = []
    for u in range(A.shape[0]):
        later = (np.flatnonzero(A[u, u + 1:]) + (u + 1)).tolist()
        if later:
            prefix = names[u] + " "
            rows.append(prefix + ("\n" + prefix).join([names[v] for v in later]))
    return "\n".join(rows) + "\n"


def matrix_lines(graph: CellGraph) -> str:
    return "\n".join(" ".join(map(str, row)) for row in graph.adjacency.tolist()) + "\n"
