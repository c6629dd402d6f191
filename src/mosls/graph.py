"""Cell graphs of MOLS and MOSLS families.

Vertices are the n**2 cells of the common grid, indexed row-major:
cell (row, col) with 1-based coordinates gets index (row-1)*n + col.
In the MOLS flavor two cells are adjacent when they share a row, share a
column, or share a symbol in one of the selected squares; for a valid
family these events are mutually exclusive.  The MOSLS flavor adds the
block layer: cells of the same block that share neither a row nor a
column.  Every layer is held as signed labels (see CellGraph), the block
layer's from _block_labels alone.  Builds check the family by the joint
counts of label pairs, then add agreement masks (_label_rows) into the
adjacency; _label_product counts from the labels' classes.  A CellGraph
is a checked 0/1 matrix on at most MAX_VERTICES vertices, so no check
here states a bound of its own but two: _add_labels's int32 scan, exact
below 2**31 labels, and _label_product, whose int16 counts also bound
the classes of the labels it counts from.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

# designs first: it compiles before numpy loads, whose import reuses that heap
from .designs import CheckFailed, LatinSquare, MoslsFamily, SudokuShape, _block_cells, _repeat_free

import numpy as np

# Largest vertex count a CellGraph accepts: order 49, whose dense uint8
# (n**2) x (n**2) adjacency takes 2401**2 bytes, about 5.8 MB (16.8 MB at
# order 64).  No other array of a graph call is n**4-sized: traced, a call
# adds at most 1.1 n**4 bytes at 729 vertices and 0.5 at 2401, mostly the
# labels' classes or codes and slabs of _CHUNK rows or columns.  Every
# common-neighbour or block count is then at most 2401, exact in int16.
MAX_VERTICES = 49 ** 2
_CHUNK = 64  # rows or columns per slab of the dense kernels


class FamilyStructureError(CheckFailed):
    """The family violates Latin/orthogonality/Sudoku constraints."""


class EquitabilityError(CheckFailed):
    """The block partition is not equitable for this graph."""


@dataclass
class CellGraph:
    """Dense 0/1 adjacency over the n**2 cells of a family, stored as
    uint8 (a uint8 input is not copied), one byte per cell pair, and the
    signed labels it is a sum of; a graph call makes no other n**4 array.

    labels, when given, are pairs (sign, label): sign is 1 or -1 and label
    holds one value per cell.  With E[u, v] = 1 where label[u] == label[v],
    the adjacency is meant to be the sum of sign * (E - I) over the labels:
    row, column and each selected square's symbol with sign 1, and for the
    MOSLS flavor also the block with 1 and the row and column segments
    inside a block with -1.  srg_check counts common neighbours from them,
    refuses a graph without them, and tests that they give the adjacency
    before any verdict.

    Refuses, with ValueError and in this order, more than MAX_VERTICES
    vertices before reading the adjacency, a shape other than (n**2, n**2),
    any entry outside {0, 1}, and a label that is not a sign of 1 or -1
    with one value per cell.  uint8 arithmetic wraps at 256, so callers
    cast before any arithmetic of their own.
    """

    shape: SudokuShape
    squares: tuple[LatinSquare, ...]  # the selected squares, in index order
    flavor: str  # "mols" or "mosls"
    adjacency: np.ndarray
    labels: tuple[tuple[int, np.ndarray], ...] | None = None

    def __post_init__(self):
        nv = _dense_size(self.shape)
        A = self.adjacency
        if A.shape != (nv, nv):
            raise ValueError(f"adjacency has shape {A.shape}, order {self.order} needs ({nv}, {nv})")
        if not (A.max(initial=0) <= 1 if A.dtype == np.uint8 else np.isin(A, (0, 1)).all()):
            raise ValueError("adjacency entries must be 0 or 1")
        self.adjacency = A.astype(np.uint8, copy=False)
        if self.labels is not None:
            self.labels = tuple((sign, np.asarray(label)) for sign, label in self.labels)
            for sign, label in self.labels:
                if sign not in (1, -1) or label.shape != (nv,):
                    raise ValueError(
                        f"a label is a sign of 1 or -1 and {nv} cell values, got {sign!r} "
                        f"and shape {label.shape}"
                    )

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
    """0-based row and column of every cell, uint16; refuses more than
    MAX_VERTICES cells first."""
    return np.divmod(np.arange(_dense_size(shape), dtype=np.uint16), shape.order)


def _block_labels(shape: SudokuShape) -> list[tuple[int, np.ndarray]]:
    """The block layer as signed labels, read off the block map: the block
    with 1, less the row segment (block and row) and the column segment
    (block and column) with -1.  Refuses more than MAX_VERTICES cells."""
    rows, cols = _cells(shape)
    n = shape.order
    block = np.empty(n * n, dtype=np.uint16)
    block[_block_cells(shape)] = np.arange(n)[:, None]
    return [(1, block), (-1, block * n + rows), (-1, block * n + cols)]


def _classes(labels):
    """(sign, members, ids) for each (sign, label): the label's classes by
    size, one (c, classes) array of cells per class size c, a class per
    column with its cells ascending, and each cell's class in that order.
    Stable argsorts and bincounts only: np.unique pulls more of numpy's
    compiled code into memory, which left a spectrum command's peak
    resident set 0.5 MiB higher (numpy 2.4.6)."""
    for sign, label in labels:
        label = label.astype(np.intp, copy=False)  # uint8 maps 64 KiB more numpy code
        cells = np.argsort(label, kind="stable")
        ids = np.empty_like(cells)
        ids[cells] = np.cumsum(np.append(True, label[cells[1:]] != label[cells[:-1]])) - 1
        sizes = np.bincount(ids)
        ids = np.argsort(np.argsort(sizes, kind="stable"), kind="stable")[ids]
        tally = np.bincount(sizes)
        widths = np.flatnonzero(tally)
        groups = np.split(np.argsort(ids, kind="stable"), np.cumsum(widths * tally[widths])[:-1])
        yield sign, [group.reshape(-1, c).T for group, c in zip(groups, widths)], ids


def _label_rows(labels, rows: slice, out: np.ndarray) -> None:
    """Adds rows `rows` of sum_l s_l (E_l - I) to the integer slab out, E_l
    the agreement mask label[rows, None] == label; clears the diagonal."""
    for sign, label in labels:
        (np.add if sign == 1 else np.subtract)(out, label[rows, None] == label, out=out)
    np.fill_diagonal(out[:, rows], 0)


def _add_labels(adjacency: np.ndarray, labels, keys, n: int, first_only=False) -> tuple[int, int] | None:
    """Adds sum_l s_l (E_l - I) to the 0/1 uint8 adjacency, _CHUNK rows at a
    time via _label_rows: straight in if designs._repeat_free finds no
    repeat in the keys less their least values (uint8 - bool stays uint8; a
    diagonal wrap is cleared), else in int32 (exact below 2**31 labels) and
    returns the first pair (u, v), row-major, above 1.  Only that scan
    decides past the OA bound of n + 1 keys (Bose 1938) or n values in one."""
    nv = len(adjacency)
    checked = len(keys) <= n + 1 and all(int(key.max()) - int(key.min()) < n for key in keys)
    checked = checked and _repeat_free([key - key.min() for key in keys], n, first_only)
    for start in range(0, nv, _CHUNK):
        rows = slice(start, start + _CHUNK)
        part = adjacency[rows] if checked else adjacency[rows].astype(np.int32)
        _label_rows(labels, rows, part)
        if not checked:
            if part.max() > 1:
                return divmod(start * nv + int((part > 1).argmax()), nv)
            adjacency[rows] = part
    return None


def build_mols_graph(fam: MoslsFamily, subset=None) -> CellGraph:
    """Adjacency for shared row, column, or symbol in a selected square.

    Every distinct cell pair may agree in at most one coordinate (so at
    most n - 1 squares for n > 1); the first pair agreeing twice names the
    violation (non-Latin square or non-orthogonal pair) in the raised error.
    """
    rows, cols = _cells(fam.shape)
    picked = _resolve_subset(fam, subset)
    labels = [(1, rows), (1, cols), *((1, fam.squares[k - 1].entries.ravel()) for k in picked)]
    names = ["row", "column", *(f"symbol in square {k}" for k in picked)]
    agree = np.zeros((rows.size, rows.size), dtype=np.uint8)
    clash = _add_labels(agree, labels, [label for _, label in labels], fam.shape.order)
    if clash is not None:
        u, v = clash
        both = [name for name, (_, label) in zip(names, labels) if label[u] == label[v]]
        raise FamilyStructureError(
            f"cells ({rows[u] + 1}, {cols[u] + 1}) and ({rows[v] + 1}, {cols[v] + 1}) "
            f"agree in {both[0]} and {both[1]}; the family is not a valid MOLS family"
        )
    return CellGraph(fam.shape, tuple(fam.squares[k - 1] for k in picked), "mols", agree, labels)


def build_mosls_graph(fam: MoslsFamily, subset=None) -> CellGraph:
    """MOLS adjacency plus the block layer: cells of one block in different
    rows and columns.  Requires Sudoku-valid squares: in a valid MOLS family
    cells sharing a symbol share no row or column, so a clash is a repeat of
    (block, symbol); the first, row-major, is named in the raised error."""
    mols = build_mols_graph(fam, subset)
    blocks, n = _block_labels(fam.shape), fam.shape.order
    keys = [blocks[0][1], *(label for _, label in mols.labels[2:])]  # block, then symbols
    clash = _add_labels(mols.adjacency, blocks, keys, n, first_only=True)
    if clash is not None:
        u, v = clash
        raise FamilyStructureError(
            f"cells ({u // n + 1}, {u % n + 1}) and ({v // n + 1}, {v % n + 1}) "
            "share a block and a symbol; some selected square is not Sudoku"
        )
    return CellGraph(fam.shape, mols.squares, "mosls", mols.adjacency, [*mols.labels, *blocks])


def _label_product(classes, X: np.ndarray) -> np.ndarray:
    """(sum_l s_l (E_l - I)) @ X in int16 for the _classes of the labels
    and an integer X with a row per cell, E_l[u, v] = 1 where label l
    agrees on u and v: row u of E_l @ X sums X's rows over u's class.  A
    class of c cells adds 0 to c - 1 to an entry for a 0/1 X, so the
    counts lie within +-reach, the sum of each label's largest class less
    1; ValueError unless int16 holds that, before any count.  int16 wraps
    modulo 2**16, so the counts are exact when the product fits."""
    reach = sum(members[-1].shape[0] - 1 for _, members, _ in classes)
    if reach >= 2**15:
        raise ValueError(f"the labels' classes reach {reach} in a count, beyond int16")
    X = np.ascontiguousarray(X)
    product = np.multiply(X, -sum(sign for sign, _, _ in classes), dtype=np.int16)
    for sign, members, ids in classes:
        sums = np.concatenate([np.take(X, group, axis=0).sum(axis=0, dtype=np.int16) for group in members])
        (np.add if sign == 1 else np.subtract)(product, np.take(sums, ids, axis=0), out=product)
    return product


def srg_check(graph: CellGraph):
    """Exhaustive strong-regularity test, counted from the graph's labels.

    Returns (num_vertices, k, lam, mu) when every vertex has degree k,
    every adjacent pair (entry 1) has lam common neighbours and every
    non-adjacent distinct pair (entry 0) has mu; otherwise returns None.
    A parameter with no pair to read it from is 0.  ValueError for a graph
    without labels, and for one whose labels do not give its adjacency.
    The counts A @ A come from _label_product, as A = sum_l s_l (E_l - I),
    a slab of _CHUNK columns at a time.  The slab's memory then holds that
    sum on the same rows, from _label_rows, and must equal A's rows:
    O(L N**2) work for L labels and N vertices.
    """
    if graph.labels is None:
        raise ValueError("srg_check counts common neighbours from the graph's labels; it has none")
    classes = list(_classes(graph.labels))
    A, nv = graph.adjacency, graph.num_vertices
    fits = True
    for start in range(0, nv, _CHUNK):
        cols = slice(start, start + _CHUNK)
        common = _label_product(classes, A[:, cols])
        # A is symmetric with an empty diagonal, so the diagonal of A @ A
        # holds the degrees, and column 0 the first pair of each kind
        if start == 0:
            k = int(common[0, 0])
            lam = int(common[A[0].argmax(), 0]) if k > 0 else 0
            mu = int(common[1 + A[0, 1:].argmin(), 0]) if k < nv - 1 else 0
        # in place: 0 exactly where A @ A = kI + lam A + mu (J - I - A),
        # that is, where a vertex has degree k, an adjacent pair counts
        # lam and a non-adjacent pair mu
        common -= mu
        np.subtract(common, lam - mu, out=common, where=A[:, cols].view(bool))
        np.fill_diagonal(common[cols], common[cols].diagonal() - (k - mu))
        fits = fits and not common.any()
        # the slab's memory again, as the labels' sum on these rows: off
        # the diagonal within _label_product's reach, which int16 holds
        common[...] = 0
        _label_rows(graph.labels, cols, common.reshape(-1, nv))
        if not np.array_equal(common.reshape(-1, nv), A[cols]):
            raise ValueError("the graph's labels do not give its adjacency")
    return (nv, k, lam, mu) if fits else None


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


def commute_check(graph: CellGraph | MoslsFamily) -> bool:
    """True iff the graph's Latin adjacency L commutes with the block
    adjacency B; a family is taken as its MOLS graph.

    L and B are symmetric, so the two commute iff L @ B is symmetric, and
    as B @ B is symmetric, iff A @ B is, A = L or the MOSLS A = L + B.  For
    any 0/1 A, P = B @ A.T is compared with P.T on the cells S of one block
    at a time: P[:, S] = B @ A[S].T, and as B joins no two blocks, P[S, :]
    = B[S, S] @ A[:, S].T, one B[S, S] for all blocks, which share a layout.

    `spectrum --verify-closed-form` asks it of every MOSLS graph: the
    closed form needs the layers to commute, and block-permutational
    squares decide that only while at most three are not (see
    designs.is_block_permutational).  The tests hold a second decision for
    families, from counts over the symbols and with no n**4 array
    (tests/graph_reference.py, layers_commute), and check the two agree.
    """
    if isinstance(graph, MoslsFamily):
        graph = build_mols_graph(graph)
    A, labels, blocks = graph.adjacency, _block_labels(graph.shape), _block_cells(graph.shape)
    local = list(_classes((sign, label[blocks[0]]) for sign, label in labels))
    classes = list(_classes(labels))
    return all(
        np.array_equal(_label_product(local, A[:, S].T), _label_product(classes, A[S].T).T) for S in blocks
    )


def edge_lines(graph: CellGraph, out) -> None:
    """Writes one "u v" line per edge u < v, 1-based, sorted, to the text
    stream out, a row at a time: row u is read right of the diagonal in
    place and its lines joined at once from the precomputed vertex names."""
    A = graph.adjacency
    names = [str(v) for v in range(1, A.shape[0] + 1)]
    for u in range(A.shape[0]):
        later = (np.flatnonzero(A[u, u + 1:]) + (u + 1)).tolist()
        if later:
            prefix = names[u] + " "
            out.write(prefix + ("\n" + prefix).join([names[v] for v in later]) + "\n")


def matrix_lines(graph: CellGraph, out) -> None:
    """Writes one line per vertex to the text stream out: its adjacency row
    as 0/1 digits separated by single spaces, _CHUNK rows at a time as ASCII
    codes in one uint8 buffer, digits in the even columns, decoded once."""
    A = graph.adjacency
    text = np.full((min(_CHUNK, A.shape[0]), 2 * A.shape[1]), ord(" "), dtype=np.uint8)
    text[:, -1] = ord("\n")
    for start in range(0, A.shape[0], _CHUNK):
        rows = A[start:start + _CHUNK]
        np.add(rows, ord("0"), out=text[:len(rows), ::2])
        out.write(str(text[:len(rows)], "ascii"))
