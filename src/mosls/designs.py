"""Latin squares with Sudoku block structure.

A square of shape (q, r) has order n = q*r over symbols 1..n and is tiled
by blocks of q rows by r columns.  Block-rows are indexed 1..r (each spans
q consecutive rows) and block-columns 1..q (each spans r consecutive
columns).  Validation is explicit rather than enforced at construction, so
invalid squares can be loaded from files and diagnosed.

The module also streams the CLI's plain-text family format, a square at a time:

    mosls v1
    order <n> type <q> <r> count <f>
    <f> squares, each n lines of n space-separated integers,
    consecutive squares separated by a single blank line
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass

import numpy as np


class FormatError(ValueError):
    """Malformed family file; messages carry 1-based line numbers."""


class CheckFailed(ValueError):
    """A mathematical check or precondition failed on well-formed input;
    the base of the errors that make a command exit with 1."""


@dataclass(frozen=True)
class SudokuShape:
    """Block geometry (q, r): blocks have q rows and r columns."""

    q: int
    r: int

    def __post_init__(self):
        if self.q < 1 or self.r < 1:
            raise ValueError(f"shape parameters must be positive, got ({self.q}, {self.r})")

    @property
    def order(self) -> int:
        return self.q * self.r


class LatinSquare:
    """An n-by-n array over symbols 1..n with a shape annotation.

    The entries are stored read-only, as uint8 if all are in 0..255, else
    uint16 if in 0..65535, else int64 (a negative entry stays diagnosable);
    symbol arithmetic casts to intp first.  Operations return new squares.
    """

    __slots__ = ("shape", "entries")

    def __init__(self, entries, shape: SudokuShape):
        arr = _int_matrix(entries)
        low, high = int(arr.min(initial=0)), int(arr.max(initial=0))
        dtype = np.int64 if low < 0 or high > 0xFFFF else np.uint8 if high <= 0xFF else np.uint16
        arr = arr.astype(dtype)  # a copy: the square owns its entries
        if arr.shape[0] != shape.order:
            raise ValueError(
                f"entry array is {arr.shape[0]}x{arr.shape[0]} but shape "
                f"({shape.q}, {shape.r}) implies order {shape.order}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "shape", shape)

    def __setattr__(self, name, value):
        raise AttributeError("LatinSquare is immutable")

    @property
    def order(self) -> int:
        return self.shape.order

    def __eq__(self, other):
        return (
            isinstance(other, LatinSquare)
            and self.shape == other.shape
            and np.array_equal(self.entries, other.entries)
        )

    def __repr__(self):
        return f"LatinSquare(order={self.order}, type=({self.shape.q}, {self.shape.r}))"


@dataclass(frozen=True)
class MoslsFamily:
    """An ordered tuple of squares sharing one shape."""

    shape: SudokuShape
    squares: tuple[LatinSquare, ...]

    def __post_init__(self):
        for k, sq in enumerate(self.squares, start=1):
            if sq.shape != self.shape:
                raise ValueError(f"square {k} has shape {sq.shape}, family has {self.shape}")

    def __len__(self) -> int:
        return len(self.squares)

    def __iter__(self):
        return iter(self.squares)


def _max_abs(A: np.ndarray) -> int:
    """max |a_ij| as a Python int; np.abs would wrap at -2**63."""
    return max(int(A.max(initial=0)), -int(A.min(initial=0)))


def _int_matrix(M) -> np.ndarray:
    """M as an int64 array; ValueError unless M is square with integral
    entries within int64, which a plain int64 cast would truncate or wrap
    silently.  An int64 array is returned as is, not copied, and so is a
    bool or unsigned array narrower than 64 bits: its entries are
    non-negative and within int64, so np.abs is the identity on them and
    sums of them promote to a 64-bit type.  Signed narrow arrays are cast,
    as np.abs(np.int8(-128)) is -128."""
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if A.dtype == bool or (A.dtype.kind == "u" and A.dtype.itemsize < 8):
        return A
    try:
        with np.errstate(invalid="ignore"):  # NaN and out-of-range floats fail below
            B = A.astype(np.int64, copy=False)
    except OverflowError:  # Python ints beyond int64
        raise ValueError("matrix entries must be integers within int64") from None
    if B is not A and not np.array_equal(A, B):
        raise ValueError("matrix entries must be integers within int64")
    return B


# ---------------------------------------------------------------------------
# validation predicates


def _check_symbol_range(L: LatinSquare) -> None:
    n = L.order
    bad = (L.entries < 1) | (L.entries > n)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"symbol {L.entries[i, j]} at row {i + 1}, column {j + 1} outside 1..{n}"
        )


def is_latin(L: LatinSquare) -> bool:
    """True iff every row and every column is a permutation of 1..n: with
    symbols in 1..n, iff no symbol repeats with a line label 0..n-1,
    broadcast against the entries as a column (row) and a row (column)."""
    _check_symbol_range(L)
    return _repeat_free([L.entries, *np.ogrid[:L.order, :L.order]], L.order, first_only=True)


def _block_cells(shape: SudokuShape) -> np.ndarray:
    """The block map: an (n, n) array whose row k holds the row-major cell
    indices (row-1)*n + (col-1) of block k, row by row within the block.
    Blocks are block-row-major: block-row i and block-column j (1-based)
    at k = (i-1)*q + (j-1)."""
    q, r = shape.q, shape.r
    # cell (band*q + i, stack*r + j) has index ((band*q + i)*q + stack)*r + j,
    # so the indices reshape to [band, i, stack, j]
    cells = np.arange(shape.order ** 2).reshape(r, q, q, r)
    return cells.transpose(0, 2, 1, 3).reshape(shape.order, shape.order)


def _blocks(L: LatinSquare) -> np.ndarray:
    """The entries of the square through the block map: row k holds block
    k, row by row."""
    return L.entries.ravel()[_block_cells(L.shape)]


def is_sudoku(L: LatinSquare) -> bool:
    """True iff each q-by-r block holds each symbol once (no symbol repeats in a
    row of the block map with its label 0..n-1); ValueError unless L is Latin."""
    if not is_latin(L):
        raise ValueError("is_sudoku requires a Latin square")
    return _repeat_free([_blocks(L), np.arange(L.order)[:, None]], L.order)


def are_orthogonal(a: LatinSquare, b: LatinSquare) -> bool:
    """True iff superimposing the squares yields all n**2 ordered pairs of
    symbols in 1..n."""
    n = a.order
    if b.order != n:
        raise ValueError(f"order mismatch: {n} vs {b.order}")
    if min(a.entries.min(), b.entries.min()) < 1 or max(a.entries.max(), b.entries.max()) > n:
        return False
    return _repeat_free([a.entries, b.entries], n)


def _repeat_free(labels, n: int, first_only: bool = False) -> bool:
    """True when _repeats finds no pair of broadcast labels in which two cells agree."""
    return not any(repeated for _, _, repeated in _repeats(labels, n, first_only))


def _repeats(labels, n: int, first_only: bool = False):
    """Yields (i, j, repeated) for each pair i < j of the labels, i = 0 only
    if first_only: whether two cells agree in both, by a bincount of the
    intp joint codes a * n + b.  Labels are non-negative integer arrays that
    broadcast to the cells' shape; each after the first spans fewer than n
    values (max - min < n), as line labels 0..n-1 and symbols 1..n do."""
    codes = np.empty(np.broadcast_shapes(*(np.shape(label) for label in labels)), np.intp)
    for i, label in enumerate(labels[:1] if first_only else labels):
        scaled = np.multiply(label, n, dtype=np.intp)
        for j in range(i + 1, len(labels)):
            np.add(scaled, labels[j], out=codes)
            yield i, j, bool(np.bincount(codes.ravel()).max() > 1)


def is_block_permutational(L: LatinSquare) -> bool:
    """True iff every block is a row/column permutation of the first block.

    In a Sudoku square every block holds each symbol once, so block k is
    the first block with rows and columns permuted exactly when the symbols
    sharing a row of the first block share a row of block k, and likewise
    for columns.

    This is the condition of the closed-form MOSLS spectrum, which needs
    the Latin adjacency L of the cell graph (same row, column or symbol) to
    commute with its block adjacency B (same block, other row and column).
    Claim: for f mutually orthogonal Sudoku squares of type (q, r), L
    commutes with B if every square is block-permutational, and only if
    every square is, provided at most three of them are not; past three,
    "only if" fails (below).

    Proof.  If q or r is 1, B = 0 and every square is block-permutational.
    Otherwise write n = q*r, b = (q-1)*(r-1), J for the all-ones matrix,
    k(u) for the symbol of square k at cell u, and X_k(u) for the symbols
    of square k on u's row and column inside u's block.  The row and the
    column relations commute with B, as a row or column meets a block in a
    whole line or not at all.  Let V_k hold the functions g(k(u)) with
    sum g = 0, E_k project onto V_k, and P = J/n**2 + sum_k E_k.  The
    same-symbol relation of square k is n E_k + J/n, and J commutes with
    the regular B, so LB - BL = n (PB - BP).  Orthogonal squares give
    orthogonal V_k, so P projects onto V = 1 + sum_k V_k, and L commutes
    with B iff B maps V into V.  A block holds every symbol once, so B
    sends w(u) = g(k(u)) to (Bw)(u) = sum of g(x) over x not in X_k(u),
    which is -sum of g(x) over x in X_k(u).

    If: when square k is block-permutational, X_k(u) is the union of the
    row set and the column set of the first block that hold k(u), so Bw
    is a function of k(u): B V_k lies in V_k.

    Only if: let N_lk(t, x) count the blocks in which the cell holding t
    in square l and the cell holding x in square k are B-adjacent.  Bw has
    sum 0, and its projection onto V_l is u -> sum_x N_lk(l(u), x) g(x) / n.
    If Bw lies in V it is the sum of these projections.  Both sides are
    linear in g, any vector with sum 0, so their coefficients of g(x)
    differ by a constant, and summing over x fixes it:
        n [x not in X_k(u)] = b (1 - f) + sum_l N_lk(l(u), x)
    for every cell u, symbol x and square k.  At x = k(u) the left side and
    N_kk(x, x) are 0, so e_kl(u) = N_kl(k(u), l(u)) - b, symmetric in k and
    l, has sum over l != k of e_kl(u) = 0.  If square k is
    block-permutational, which of its symbols are B-adjacent is the same in
    every block, and every pair of symbols of squares k and l holds in one
    cell, so N_kl = b and e_kl = 0.  On the at most three other squares,
    zero row sums leave e = 0 too (e_12 = -e_13 = e_23 = -e_12).  Every
    pair (k(u), l(u)) holds in a cell, so N_kl = b for k != l, and the
    equation becomes n [x not in X_k(u)] = N_kk(k(u), x): the symbols on a
    line with k(u) are the same in every block.  So the map from the
    position of each symbol in the first block to its position in another
    keeps "same row or same column"; such a map keeps the rows and the
    columns, or swaps them (q = r).  A swapped block sharing a band (or a
    stack) with a kept one would put a row set of the first block and a
    column set of it, which meet, side by side in one row (or column) of
    the grid.  Every block shares a stack with a block of the first band,
    which shares the band with the first block, so no block is swapped:
    every square is block-permutational.

    With four or more squares that are not, zero row sums leave room for
    e != 0, and "only if" fails.  Whether L commutes with B is a property
    of the cell graph, and the graph does not determine the squares: the
    six squares of tests/fixtures.py NINE_REGROUPED_FAMILY, none of them
    block-permutational, have the cell graph of the order-9 field family,
    whose squares all are.  Each of their symbol classes is a 9-cell
    clique of the field family's symbol layer (any two of its cells share
    a symbol in some field square), and six orthogonal squares hold 6 * 9
    * 36 symbol pairs, each once, as many as that layer has.  So `spectrum`
    asks graph.commute_check, and the switching theorem, whose one square
    the claim covers (f = 1), asks this predicate in
    switching._theorem_verdict, which alone decides it for `switch`.
    """
    if not is_sudoku(L):
        raise ValueError("is_block_permutational requires a Sudoku square")
    blocks = _blocks(L)
    # where[k, a, b]: the position within block k of the symbol at (a, b)
    # of the first block, row-major within the block
    where = np.argsort(blocks, axis=1, kind="stable")[:, blocks[0] - 1].reshape(-1, L.shape.q, L.shape.r)
    row_of, col_of = np.divmod(where, L.shape.r)
    return bool((row_of == row_of[:, :, :1]).all() and (col_of == col_of[:, :1, :]).all())


def transpose(L: LatinSquare) -> LatinSquare:
    """Transpose the array; the shape flips from (q, r) to (r, q)."""
    return LatinSquare(L.entries.T.copy(), SudokuShape(L.shape.r, L.shape.q))


# ---------------------------------------------------------------------------
# text format


def write_family(fam: MoslsFamily, out) -> None:
    """Write the family to the text stream out, one square at a time."""
    q, r = fam.shape.q, fam.shape.r
    out.write(f"mosls v1\norder {q * r} type {q} {r} count {len(fam)}\n")
    symbols = [str(v) for v in range(q * r + 1)]  # a square built in code may hold others
    for k, sq in enumerate(fam.squares):
        if k:
            out.write("\n")
        known = 0 <= sq.entries.min(initial=0) and sq.entries.max(initial=0) <= q * r
        for row in sq.entries.tolist():
            out.write(" ".join([symbols[v] for v in row] if known else map(str, row)) + "\n")


def format_family(fam: MoslsFamily) -> str:
    buf = io.StringIO()
    write_family(fam, buf)
    return buf.getvalue()


def parse_family(text: str) -> MoslsFamily:
    return _read_family(io.StringIO(text))


def _read_family(stream) -> MoslsFamily:
    """Parse a text stream line by line, holding at most 1024 tokens or one
    row; io.StringIO ends lines at "\n" only, a text-mode file also at "\r"."""
    numbered = enumerate(itertools.chain(stream, itertools.repeat(None)), start=1)

    def fail(ln: int, msg: str):
        raise FormatError(f"line {ln}: {msg}")

    (_, header), (_, sizes) = next(numbered), next(numbered)
    if header is None or header.strip() != "mosls v1":
        fail(1, "expected header 'mosls v1'")
    if sizes is None:
        fail(2, "missing size header")
    tokens = sizes.split()
    if len(tokens) != 7 or (tokens[0], tokens[2], tokens[5]) != ("order", "type", "count"):
        fail(2, "expected 'order <n> type <q> <r> count <f>'")
    try:
        n, q, r, f = int(tokens[1]), int(tokens[3]), int(tokens[4]), int(tokens[6])
    except ValueError:
        fail(2, "size header fields must be integers")
    if q < 1 or r < 1 or q * r != n:
        fail(2, f"type ({q}, {r}) does not match order {n}")
    if f < 1:
        fail(2, f"count must be positive, got {f}")

    # rows are converted 1024 tokens at a time, near a whole square's speed,
    # and before a layout problem is raised: the first failing line is named
    shape = SudokuShape(q, r)
    squares = []
    for k in range(f):
        if k:
            ln, line = next(numbered)
            if line is None or line.strip() != "":
                fail(ln, f"expected blank line before square {k + 1}")
        chunks, rows = [], []
        for i in range(n):
            ln, line = next(numbered)
            parts = [] if line is None else line.split()
            if len(parts) != n:
                _entry_values(rows, n, first_line=ln - len(rows))
                problem = f"expected {n} integers, got {len(parts)}"
                fail(ln, problem if line is not None else f"unexpected end of file inside square {k + 1}")
            rows.append(parts)
            if len(rows) * n >= 1024 or i == n - 1:
                chunks.append(_entry_values(rows, n, first_line=ln + 1 - len(rows)))
                rows = []
        squares.append(LatinSquare(np.concatenate(chunks), shape))
    if next(numbered)[1] is not None:
        fail(ln + 1, "trailing content after last square")
    return MoslsFamily(shape, tuple(squares))


def _entry_values(rows: list[list[str]], n: int, first_line: int) -> np.ndarray:
    """Rows of tokens, the first on line first_line, as one int64 array,
    converted as int() does.  FormatError names the first row with a
    non-integer or a symbol outside 1..n, and the non-integer first."""
    try:
        values = np.array(rows, dtype=np.int64)
        if not ((values < 1) | (values > n)).any():
            return values
    except (ValueError, OverflowError):  # OverflowError: a symbol beyond int64
        pass
    for ln, parts in enumerate(rows, start=first_line):
        try:
            row = [int(tok) for tok in parts]
        except ValueError:
            raise FormatError(f"line {ln}: entries must be integers") from None
        for v in row:
            if not 1 <= v <= n:
                raise FormatError(f"line {ln}: symbol {v} outside 1..{n}")
    raise RuntimeError("internal error: the rows failed the array check but not line by line")


def save_family(fam: MoslsFamily, path) -> None:
    with open(path, "w") as fh:
        write_family(fam, fh)


def load_family(path) -> MoslsFamily:
    with open(path) as fh:
        return _read_family(fh)
