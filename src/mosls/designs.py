"""Latin squares with Sudoku block structure.

A square of shape (q, r) has order n = q*r over symbols 1..n and is tiled
by blocks of q rows by r columns.  Block-rows are indexed 1..r (each spans
q consecutive rows) and block-columns 1..q (each spans r consecutive
columns).  Validation is explicit rather than enforced at construction, so
invalid squares can be loaded from files and diagnosed.

The module also defines the plain-text family format used by the CLI:

    mosls v1
    order <n> type <q> <r> count <f>
    <f> squares, each n lines of n space-separated integers,
    consecutive squares separated by a single blank line
"""

from __future__ import annotations

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

    The entries are stored read-only; operations return new squares.
    """

    __slots__ = ("shape", "entries")

    def __init__(self, entries, shape: SudokuShape):
        arr = _int_matrix(np.array(entries))  # np.array copies: the square owns its entries
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
    silently.  An int64 array is returned as is, not copied."""
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
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
    """True iff every row and every column is a permutation of 1..n."""
    _check_symbol_range(L)
    n = L.order
    want = np.arange(1, n + 1)
    rows_ok = bool((np.sort(L.entries, axis=1) == want).all())
    cols_ok = bool((np.sort(L.entries, axis=0) == want[:, None]).all())
    return rows_ok and cols_ok


def _blocks(L: LatinSquare) -> np.ndarray:
    """The r*q blocks as an (r*q, q, r) array, block-row-major: block-row i
    and block-column j (1-based) at index (i-1)*q + (j-1)."""
    q, r = L.shape.q, L.shape.r
    return L.entries.reshape(r, q, q, r).transpose(0, 2, 1, 3).reshape(r * q, q, r)


def is_sudoku(L: LatinSquare) -> bool:
    """True iff Latin and every q-by-r block contains each symbol once."""
    if not is_latin(L):
        raise ValueError("is_sudoku requires a Latin square")
    n = L.order
    cells = np.sort(_blocks(L).reshape(n, n), axis=1)
    return bool((cells == np.arange(1, n + 1)).all())


def are_orthogonal(a: LatinSquare, b: LatinSquare) -> bool:
    """True iff superimposing the squares yields all n**2 ordered pairs of
    symbols in 1..n."""
    n = a.order
    if b.order != n:
        raise ValueError(f"order mismatch: {n} vs {b.order}")
    if min(a.entries.min(), b.entries.min()) < 1 or max(a.entries.max(), b.entries.max()) > n:
        return False
    codes = (a.entries - 1) * n + (b.entries - 1)
    return bool((np.bincount(codes.ravel(), minlength=n * n) == 1).all())


def is_block_permutational(L: LatinSquare) -> bool:
    """True iff every block is a row/column permutation of the first block.

    In a Sudoku square every block holds each symbol once, so block k is
    the first block with rows and columns permuted exactly when the symbols
    sharing a row of the first block share a row of block k, and likewise
    for columns.
    """
    if not is_sudoku(L):
        raise ValueError("is_block_permutational requires a Sudoku square")
    blocks = _blocks(L)
    r = L.shape.r
    # position of symbol s in block k, at [k, s - 1], flat within the block
    where = np.argsort(blocks.reshape(len(blocks), -1), axis=1)
    row_of = (where // r)[:, blocks[0] - 1]
    col_of = (where % r)[:, blocks[0] - 1]
    return bool((row_of == row_of[:, :, :1]).all() and (col_of == col_of[:, :1, :]).all())


def transpose(L: LatinSquare) -> LatinSquare:
    """Transpose the array; the shape flips from (q, r) to (r, q)."""
    return LatinSquare(L.entries.T.copy(), SudokuShape(L.shape.r, L.shape.q))


# ---------------------------------------------------------------------------
# text format


def format_family(fam: MoslsFamily) -> str:
    shape = fam.shape
    lines = [
        "mosls v1",
        f"order {shape.order} type {shape.q} {shape.r} count {len(fam)}",
    ]
    for k, sq in enumerate(fam.squares):
        if k:
            lines.append("")
        lines.extend(" ".join(map(str, row)) for row in sq.entries.tolist())
    return "\n".join(lines) + "\n"


def parse_family(text: str) -> MoslsFamily:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    def fail(ln: int, msg: str):
        raise FormatError(f"line {ln}: {msg}")

    if not lines or lines[0].strip() != "mosls v1":
        fail(1, "expected header 'mosls v1'")
    if len(lines) < 2:
        fail(2, "missing size header")
    tokens = lines[1].split()
    if (
        len(tokens) != 7
        or tokens[0] != "order"
        or tokens[2] != "type"
        or tokens[5] != "count"
    ):
        fail(2, "expected 'order <n> type <q> <r> count <f>'")
    try:
        n, q, r, f = int(tokens[1]), int(tokens[3]), int(tokens[4]), int(tokens[6])
    except ValueError:
        fail(2, "size header fields must be integers")
    if q < 1 or r < 1 or q * r != n:
        fail(2, f"type ({q}, {r}) does not match order {n}")
    if f < 1:
        fail(2, f"count must be positive, got {f}")

    # one array conversion per square keeps a single square's tokens alive;
    # a layout problem is raised after the rows above it check out
    shape = SudokuShape(q, r)
    squares = []
    ln = 2  # 1-based index of the last consumed line
    for k in range(f):
        if k:
            ln += 1
            if ln > len(lines) or lines[ln - 1].strip() != "":
                fail(ln, f"expected blank line before square {k + 1}")
        rows = []
        problem = None
        for i in range(n):
            ln += 1
            if ln > len(lines):
                problem = (ln, f"unexpected end of file inside square {k + 1}")
                break
            parts = lines[ln - 1].split()
            if len(parts) != n:
                problem = (ln, f"expected {n} integers, got {len(parts)}")
                break
            rows.append(parts)
        values = _entry_values(rows, n, first_line=3 + k * (n + 1))
        if problem:
            fail(*problem)
        squares.append(LatinSquare(values, shape))
    if ln != len(lines):
        fail(ln + 1, "trailing content after last square")
    return MoslsFamily(shape, tuple(squares))


def _entry_values(rows: list[list[str]], n: int, first_line: int) -> np.ndarray:
    """Rows of tokens, the first on line first_line, as one int64 array,
    converted as int() does.

    On a non-integer or a symbol outside 1..n, the first such row raises
    FormatError, naming the non-integer before any symbol and else its
    first bad symbol.
    """
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
        fh.write(format_family(fam))


def load_family(path) -> MoslsFamily:
    with open(path) as fh:
        return parse_family(fh.read())
