"""Cell graphs of MOLS and MOSLS families.

Vertices are the n**2 cells of the common grid, indexed row-major:
cell (row, col) with 1-based coordinates gets index (row-1)*n + col.
In the MOLS flavor two cells are adjacent when they share a row, share a
column, or share a symbol in one of the selected squares; for a valid
family these events are mutually exclusive.  The MOSLS flavor adds edges
between cells of the same block that share neither a row nor a column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import MoslsFamily, SudokuShape

# Largest vertex count the dense builders accept: order 49.  One dense
# int64 (n**2) x (n**2) array then takes 2401**2 * 8 bytes, about 46 MB,
# and a build holds a few of them at once; order 64 would need 134 MB each.
MAX_VERTICES = 49 ** 2


class FamilyStructureError(ValueError):
    """The family violates Latin/orthogonality/Sudoku constraints."""


class EquitabilityError(ValueError):
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
    picked = sorted(set(int(k) for k in subset))
    for k in picked:
        if not 1 <= k <= len(fam):
            raise ValueError(f"square index {k} outside 1..{len(fam)}")
    return picked


def _check_vertex_cap(shape: SudokuShape) -> None:
    """Refuse a dense graph over more than MAX_VERTICES cells."""
    nv = shape.order ** 2
    if nv > MAX_VERTICES:
        raise ValueError(
            f"order {shape.order} gives {nv} vertices, above the dense graph "
            f"cap of {MAX_VERTICES}"
        )


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer product a @ b, computed by float64 BLAS and returned as int64.

    Every entry and partial sum is an integer of magnitude at most
    a.shape[1] * max|a| * max|b|; below 2**53 float64 holds each of them
    exactly, so the result equals the int64 product in any summation order.
    """
    bound = a.shape[1] * int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0))
    if bound >= 2**53:
        raise ValueError(f"product entries may reach {bound}, not exact in float64 (2**53)")
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)


def _coordinate_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    rows = np.repeat(np.arange(n), n)
    cols = np.tile(np.arange(n), n)
    return rows, cols


def _diagnose_conflict(picked, rows, cols, symbols, u: int, v: int):
    """Name the two agreeing coordinates for a bad cell pair."""
    coords = []
    if rows[u] == rows[v]:
        coords.append("row")
    if cols[u] == cols[v]:
        coords.append("column")
    for pos, k in enumerate(picked):
        if symbols[pos][u] == symbols[pos][v]:
            coords.append(f"symbol in square {k}")
    cell_u = (int(rows[u]) + 1, int(cols[u]) + 1)
    cell_v = (int(rows[v]) + 1, int(cols[v]) + 1)
    raise FamilyStructureError(
        f"cells {cell_u} and {cell_v} agree in {coords[0]} and {coords[1]}; "
        "the family is not a valid MOLS family"
    )


def build_mols_graph(fam: MoslsFamily, subset=None) -> CellGraph:
    """Adjacency for shared row, column, or symbol in a selected square.

    Every distinct cell pair may agree in at most one coordinate; a pair
    agreeing twice names the violation (non-Latin square or non-orthogonal
    pair) in the raised error.
    """
    _check_vertex_cap(fam.shape)
    picked = _resolve_subset(fam, subset)
    n = fam.shape.order
    rows, cols = _coordinate_arrays(n)
    symbols = [fam.squares[k - 1].entries.ravel() for k in picked]

    agree = (rows[:, None] == rows[None, :]).astype(np.int64)
    agree += cols[:, None] == cols[None, :]
    for sym in symbols:
        agree += sym[:, None] == sym[None, :]
    np.fill_diagonal(agree, 0)

    if (agree > 1).any():
        u, v = np.argwhere(agree > 1)[0]
        _diagnose_conflict(picked, rows, cols, symbols, int(u), int(v))
    adj = (agree == 1).astype(np.int64)
    return CellGraph(fam.shape, len(picked), "mols", adj)


def _block_ids(shape: SudokuShape) -> np.ndarray:
    """0-based block index of every cell, numbered block-row-major."""
    rows, cols = _coordinate_arrays(shape.order)
    return (rows // shape.q) * shape.q + cols // shape.r


def _block_adjacency(shape: SudokuShape) -> np.ndarray:
    """Same block, different row and different column."""
    _check_vertex_cap(shape)
    rows, cols = _coordinate_arrays(shape.order)
    block_id = _block_ids(shape)
    same_block = block_id[:, None] == block_id[None, :]
    diff_row = rows[:, None] != rows[None, :]
    diff_col = cols[:, None] != cols[None, :]
    return (same_block & diff_row & diff_col).astype(np.int64)


def build_mosls_graph(fam: MoslsFamily, subset=None) -> CellGraph:
    """MOLS adjacency plus block edges; requires Sudoku-valid squares so
    the two edge sets cannot overlap."""
    mols = build_mols_graph(fam, subset)
    blocks = _block_adjacency(fam.shape)
    overlap = mols.adjacency & blocks
    if overlap.any():
        u, v = np.argwhere(overlap)[0]
        n = fam.shape.order
        raise FamilyStructureError(
            f"cells ({u // n + 1}, {u % n + 1}) and ({v // n + 1}, {v % n + 1}) "
            "share a block and a symbol; some selected square is not Sudoku"
        )
    return CellGraph(fam.shape, mols.family_size, "mosls", mols.adjacency + blocks)


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
    part_of = _block_ids(shape)
    return tuple(
        tuple(int(v) for v in np.flatnonzero(part_of == pid))
        for pid in range(shape.q * shape.r)
    )


def quotient_matrix(graph: CellGraph, parts=None) -> QuotientMatrix:
    """Quotient of the adjacency over a partition (default: the blocks).

    Every vertex of a part must see the same number of neighbours in each
    part, else EquitabilityError identifies the offending part.
    """
    if parts is None:
        parts = block_partition(graph.shape)
    nv = graph.num_vertices
    indicator = np.zeros((nv, len(parts)), dtype=np.int64)
    seen = []
    for pid, members in enumerate(parts):
        indicator[list(members), pid] = 1
        seen.extend(members)
    if sorted(seen) != list(range(nv)):
        raise ValueError("parts must partition the vertex set")
    counts = _exact_matmul(graph.adjacency, indicator)
    entries = np.zeros((len(parts), len(parts)), dtype=np.int64)
    for pid, members in enumerate(parts):
        rows = counts[list(members)]
        if not (rows == rows[0]).all():
            raise EquitabilityError(f"partition is not equitable at part {pid + 1}")
        entries[pid] = rows[0]
    return QuotientMatrix(tuple(tuple(m) for m in parts), entries)


def commute_check(fam: MoslsFamily, subset=None) -> bool:
    """True iff the MOLS adjacency commutes with the block adjacency.

    Both adjacencies are symmetric, so blocks @ mols is the transpose of
    mols @ blocks, and the two commute iff that one product is symmetric.
    """
    product = _exact_matmul(build_mols_graph(fam, subset).adjacency, _block_adjacency(fam.shape))
    return bool(np.array_equal(product, product.T))


def _edges(graph: CellGraph) -> np.ndarray:
    """Sorted 1-based edge pairs (u, v) with u < v, one row per edge."""
    return np.argwhere(np.triu(graph.adjacency, 1)) + 1


def edge_list(graph: CellGraph) -> list[tuple[int, int]]:
    """Sorted 1-based edge pairs (u, v) with u < v."""
    return [(u, v) for u, v in _edges(graph).tolist()]


def edge_lines(graph: CellGraph) -> str:
    e = _edges(graph)
    return "\n".join(map("{0} {1}".format, e[:, 0].tolist(), e[:, 1].tolist())) + "\n"


def matrix_lines(graph: CellGraph) -> str:
    return "\n".join(" ".join(str(int(x)) for x in row) for row in graph.adjacency) + "\n"
