"""Test-side references for the graph layer: the dense block layer of a
shape, compared cell pair by cell pair, which mosls.graph holds as the
signed labels of _block_labels; the Sudoku clash that
mosls.graph.build_mosls_graph reports, read off that dense layer; and
the edge pairs that mosls.graph.edge_lines writes; and the text an
export writes, read back.  Also _add_agreements, which sums the labels'
agreement counts and finds the first pair above 1 in one pass, and the
adjacency or error message that the builders give by it (one_pass_build).
And sudoku_equivalent, which moves a family to a Sudoku-equivalent one and
gives the map of cells that carries one cell graph onto the other.  And
layers_commute, which decides from counts over the symbols, with no
n^2 x n^2 array, what mosls.graph.commute_check decides on the graph.
"""

import io

import numpy as np

from mosls.designs import LatinSquare, MoslsFamily, SudokuShape, _blocks
from mosls.graph import _CHUNK, _block_labels, _cells, _label_rows


def block_adjacency(shape: SudokuShape) -> np.ndarray:
    """Boolean layer: same block, different row and different column.
    Refuses more than mosls.graph.MAX_VERTICES cells, as _cells does."""
    rows, cols = _cells(shape)
    blocks = (rows // shape.q) * shape.q + cols // shape.r
    layer = blocks[:, None] == blocks[None, :]
    layer &= rows[:, None] != rows[None, :]
    layer &= cols[:, None] != cols[None, :]
    return layer


def first_sudoku_clash(mols_adjacency: np.ndarray, shape: SudokuShape) -> tuple[int, int]:
    """The first (u, v), 0-based in row-major order, that is an edge of
    both the MOLS graph and the block layer; IndexError when none is."""
    u, v = np.argwhere(np.logical_and(mols_adjacency, block_adjacency(shape)))[0]
    return int(u), int(v)


def edge_list(adjacency: np.ndarray) -> list[tuple[int, int]]:
    """Sorted 1-based edge pairs (u, v) with u < v, one per line of
    mosls.graph.edge_lines."""
    return [(int(u), int(v)) for u, v in np.argwhere(np.triu(adjacency, 1)) + 1]


def matrix_text(adjacency: np.ndarray) -> str:
    """One line per row, its entries joined by single spaces."""
    return "\n".join(" ".join(map(str, row)) for row in adjacency.tolist()) + "\n"


def label_adjacency(labels) -> np.ndarray:
    """The int64 sum of sign * (E - I) over the (sign, label) pairs, where
    E[u, v] = 1 iff label[u] == label[v]."""
    total = 0
    for sign, label in labels:
        same = (label[:, None] == label[None, :]).astype(np.int64)
        np.fill_diagonal(same, 0)
        total = total + sign * same
    return total


def written(export, graph) -> str:
    """The text that export, mosls.graph.edge_lines or matrix_lines,
    writes for the graph."""
    out = io.StringIO()
    export(graph, out)
    return out.getvalue()


def _add_agreements(counts: np.ndarray, labels) -> tuple[int, int] | None:
    """Adds sum_l s_l (E_l - I) to the uint8 counts (0, 1 or 2) in place,
    stores any count above 1 as 2, and returns the first pair (u, v),
    row-major, above 1, or None.  _label_rows sums _CHUNK rows in int16,
    clamped at 2 after each 2**15 - 3 labels, below int16's wrap; the block
    layer's -1 labels cut pairs of its +1 label alone, so none ends below 0."""
    nv = len(counts)
    slab, clash = np.empty((min(_CHUNK, nv), nv), dtype=np.int16), None
    for start in range(0, nv, _CHUNK):
        rows = slice(start, start + _CHUNK)
        part = slab[:len(counts[rows])]
        part[...] = counts[rows]
        for first in range(0, len(labels), 2**15 - 3):
            _label_rows(labels[first:first + 2**15 - 3], rows, part)
            np.minimum(part, 2, out=part)
        counts[rows] = part
        if clash is None and part.max() > 1:
            clash = divmod(start * nv + int((part > 1).argmax()), nv)
    return clash


def one_pass_build(fam, picked: list[int], flavor: str) -> tuple[np.ndarray | None, str | None]:
    """(adjacency, None) for the graph of flavor "mols" or "mosls" on the
    1-based squares picked, or (None, the FamilyStructureError message), by
    _add_agreements on the row, column and square labels, then the block
    layer's."""
    rows, cols = _cells(fam.shape)
    labels = [(1, rows), (1, cols), *((1, fam.squares[k - 1].entries.ravel()) for k in picked)]
    counts = np.zeros((rows.size, rows.size), dtype=np.uint8)
    clash = _add_agreements(counts, labels)
    if clash is not None:
        u, v = clash
        names = ["row", "column", *(f"symbol in square {k}" for k in picked)]
        both = [name for name, (_, label) in zip(names, labels) if label[u] == label[v]]
        return None, (
            f"cells ({rows[u] + 1}, {cols[u] + 1}) and ({rows[v] + 1}, {cols[v] + 1}) "
            f"agree in {both[0]} and {both[1]}; the family is not a valid MOLS family"
        )
    if flavor == "mosls" and (clash := _add_agreements(counts, _block_labels(fam.shape))) is not None:
        u, v = clash
        return None, (
            f"cells ({rows[u] + 1}, {cols[u] + 1}) and ({rows[v] + 1}, {cols[v] + 1}) "
            "share a block and a symbol; some selected square is not Sudoku"
        )
    return counts, None


SUDOKU_MOVES = ("band", "row", "stack", "column", "symbols", "transpose")


def sudoku_equivalent(fam: MoslsFamily, rng, moves) -> tuple[MoslsFamily, np.ndarray]:
    """A family Sudoku-equivalent to fam by the named SUDOKU_MOVES, drawn
    from rng, and the cell map: cell u (row-major, 0-based) of the result is
    cell cells[u] of fam.  "band" permutes the r bands of q rows, "row" the
    rows inside each band, "stack" the q stacks of r columns, "column" the
    columns inside each stack, "symbols" relabels each square's symbols on
    its own, and "transpose" transposes every square (q = r only).

    The MOSLS cell graph of the result is fam's, A[np.ix_(cells, cells)].
    Proof: the cell map sends each row of the grid onto a row and each
    column onto a column (onto a column and a row under the transpose),
    and each block onto a block, as the line permutations keep bands and
    stacks whole, and the transpose of a q x q block grid is one.  It sends
    each symbol class of a square onto a symbol class of its image, as a
    relabelling is a bijection.  So two cells share a row, a column, a block
    or a symbol of some square exactly when their images do, which decides
    every layer of the adjacency (mosls.graph) and so the adjacency itself.
    """
    q, r, n = fam.shape.q, fam.shape.r, fam.shape.order

    def lines(groups: int, size: int, outer: bool, inner: bool) -> np.ndarray:
        order = rng.permutation(groups) if outer else range(groups)
        return np.concatenate([g * size + (rng.permutation(size) if inner else np.arange(size)) for g in order])

    rows = lines(r, q, "band" in moves, "row" in moves)
    cols = lines(q, r, "stack" in moves, "column" in moves)
    cells = rows[:, None] * n + cols[None, :]
    entries = [sq.entries[np.ix_(rows, cols)].astype(np.intp) for sq in fam.squares]
    if "symbols" in moves:
        entries = [1 + rng.permutation(n)[ent - 1] for ent in entries]
    if "transpose" in moves:
        assert q == r, "a transpose keeps the type only when q = r"
        entries, cells = [ent.T for ent in entries], cells.T
    moved = tuple(LatinSquare(ent, fam.shape) for ent in entries)
    return MoslsFamily(fam.shape, moved), cells.ravel()


def layers_commute(fam: MoslsFamily) -> bool:
    """Whether the Latin layer L of the cell graph of fam, a family of f
    mutually orthogonal Sudoku squares of type (q, r), commutes with the
    block layer B: exactly, in int64, from the counts R_lk(t, x) of the
    blocks in which the cell holding t in square l and the cell holding x
    in square k share a row, and C_lk(t, x) of those in which they share
    a column.  True iff the sum over all pairs (l, k) of |R_lk - r J|^2 is
    n^2 r^2 f (q - 1) and that of |C_lk - q J|^2 is n^2 q^2 f (r - 1); when
    q = r, iff the sum of |R_lk + C_lk - 2 r J|^2 is 2 n^2 r^2 f (q - 1).

    Proof.  If q or r is 1, B = 0.  Otherwise n = q*r, and as at
    mosls.designs.is_block_permutational, L commutes with B iff B maps V'
    (the sums of functions g(k(u)) with sum g = 0, one per square k) into
    V' plus the constants.  Inside a block B is (J_q - I) (x) (J_r - I),
    so its eigenspaces are the block constants, with (q-1)(r-1); the
    row-segment functions with zero block sums, with -(r-1); the
    column-segment ones, with -(q-1); and the rest, with 1.  B is symmetric,
    so it keeps V' iff each spectral projector does.  Every block holds each
    symbol once, so the block constants are orthogonal to V', and what is
    left is the row-segment projector P_R and the column-segment one P_C,
    or their sum when q = r merges their eigenvalues (q = r = 2 also merges
    the first and the last, whose projector is I - P_R - P_C).  Let e_kx be
    the indicator of the cells holding x in square k, less 1/n, over
    sqrt(n).  Orthogonal Sudoku squares make <e_lt, e_kx> = [l = k]([t =
    x] - 1/n), a projector Pi, and the e_kx span V', so with E their
    columns E E^T projects onto V'.  P_R sends that indicator to its
    row-segment means less 1/n, so <e_lt, P_R e_kx> = (R_lk(t, x) - r) /
    (n r): these fn x fn entries are Q = E^T P_R E.  Q is a projector iff
    E Q E^T, the compression of P_R to V', is one (E Pi = E), and that
    holds iff P_R commutes with the projector onto V' (for projectors P
    and R, PRP is a projector iff (I - P) R P = 0, iff RP = PRP = PR).
    As 0 <= Q <= I, Q is a projector iff tr Q^2 = tr Q, and tr Q =
    f n (n - r) / (n r) = f (q - 1), as R_kk(x, x) = n.  Columns swap q
    and r; for q = r the sum P_R + P_C gives Q_R + Q_C, whose trace is
    2 f (q - 1).
    """
    q, r, n, f = fam.shape.q, fam.shape.r, fam.shape.order, len(fam)
    if q == 1 or r == 1:
        return True
    # the row and the column within each block of symbol t of square k, at
    # [k * n + t - 1, block]; one-hot against (block, row or column), the
    # counts are the products of the one-hot rows
    where = np.stack([np.argsort(_blocks(sq), axis=1, kind="stable") for sq in fam.squares], axis=1)
    row_of, col_of = np.divmod(where.reshape(n, f * n).T, r)
    counts = []
    for pos, size in ((row_of, q), (col_of, r)):
        onehot = (pos[:, :, None] == np.arange(size)).reshape(f * n, n * size).astype(np.int64)
        counts.append(onehot @ onehot.T)
    R, C = counts
    if q == r:
        return int(((R + C - 2 * r) ** 2).sum()) == 2 * n * n * r * r * f * (q - 1)
    return (
        int(((R - r) ** 2).sum()) == n * n * r * r * f * (q - 1)
        and int(((C - q) ** 2).sum()) == n * n * q * q * f * (r - 1)
    )
