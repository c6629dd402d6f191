"""Construction of mutually orthogonal Sudoku Latin square families.

Field families: for a prime power q*r = p**(m+n) with q = p**m, r = p**n
(m, n >= 1), index rows and columns of a square by the elements of
GF(p**(m+n)) in canonical order, which groups them into additive cosets
(see field_square), and fill cell (x, y) of the square attached to a
field element a with the symbol x - a*y.  Choosing a with degree exactly
m makes every square Sudoku of type (q, r), and the max(q, r)*(p-1)
squares obtained this way (transposing when r > q) are mutually
orthogonal and block-permutational.

Composite orders: a product construction combines one family per prime
factor into a family of type (prod q_i, prod r_i) whose size is the
minimum of the factor family sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import gf
from .designs import LatinSquare, MoslsFamily, SudokuShape, transpose

DEFAULT_ORDER_CAP = 16


class OrderCapError(ValueError):
    """Requested order exceeds the configured cap."""


@dataclass(frozen=True)
class FieldConstructionSpec:
    """Parameters (p, m, n) of a field family: type (p**m, p**n)."""

    p: int
    m: int
    n: int

    def __post_init__(self):
        if not gf.is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.m < 0 or self.n < 0 or self.m + self.n < 1:
            raise ValueError(f"invalid exponents ({self.m}, {self.n})")

    @property
    def q(self) -> int:
        return self.p ** self.m

    @property
    def r(self) -> int:
        return self.p ** self.n

    @property
    def order(self) -> int:
        return self.q * self.r


def field_square(ctx: gf.FieldCtx, a: int, shape: SudokuShape) -> LatinSquare:
    """Square with entries x - a*y, rows and columns in canonical order.

    The symbol written at (x, y) is the 1-based canonical index of x - a*y.
    In canonical order the q-row bands of a type (p**m, p**n) square are
    the additive cosets of the elements of degree < m, and the r-column
    bands those of degree < n.
    """
    if not 0 < a < ctx.size:
        raise ValueError(f"multiplier a must be a nonzero element, 1..{ctx.size - 1}; got {a}")
    x = np.arange(ctx.size)
    return LatinSquare(1 + ctx.add[x[:, None], ctx.neg[ctx.mul[a, x]]], shape)


def mosls_count(p: int, m: int, n: int) -> int:
    """Size of the family produced for (p, m, n)."""
    spec = FieldConstructionSpec(p, m, n)
    if m >= 1 and n >= 1:
        return max(spec.q, spec.r) * (p - 1)
    return p ** (m + n) - 1


def field_mosls(spec: FieldConstructionSpec, order_cap: int = DEFAULT_ORDER_CAP) -> MoslsFamily:
    """Full field family of type (q, r), size max(q, r)*(p-1).

    When r > q the family is built with the roles of m and n swapped and
    every square transposed, which realises the larger count.
    """
    if spec.m < 1 or spec.n < 1:
        raise ValueError("field_mosls needs m >= 1 and n >= 1; use plain_mols for flat types")
    if spec.order > order_cap:
        raise OrderCapError(f"order {spec.order} exceeds cap {order_cap}")
    m, n = max(spec.m, spec.n), min(spec.m, spec.n)
    ctx = gf.make_field(spec.p, m + n)
    q = spec.p ** m
    shape = SudokuShape(q, spec.p ** n)
    # the multipliers of degree exactly m
    squares = [field_square(ctx, a, shape) for a in range(q, q * spec.p)]
    if spec.m < spec.n:
        squares = [transpose(sq) for sq in squares]
    return MoslsFamily(SudokuShape(spec.q, spec.r), tuple(squares))


def plain_mols(p: int, k: int, order_cap: int = DEFAULT_ORDER_CAP) -> MoslsFamily:
    """The p**k - 1 field squares x - a*y of type (1, p**k).

    Rows and columns follow the canonical element order; squares follow the
    canonical order of the nonzero multipliers a.
    """
    if k < 1:
        raise ValueError("plain_mols needs k >= 1")
    if p ** k > order_cap:
        raise OrderCapError(f"order {p ** k} exceeds cap {order_cap}")
    ctx = gf.make_field(p, k)
    shape = SudokuShape(1, p ** k)
    squares = [field_square(ctx, a, shape) for a in range(1, ctx.size)]
    return MoslsFamily(shape, tuple(squares))


def per_prime_family(
    p: int, m: int, n: int, order_cap: int = DEFAULT_ORDER_CAP
) -> MoslsFamily:
    """Family for one prime-power factor: field family when m, n >= 1,
    otherwise the plain MOLS family oriented to type (p**m, p**n)."""
    FieldConstructionSpec(p, m, n)  # validates
    if m >= 1 and n >= 1:
        return field_mosls(FieldConstructionSpec(p, m, n), order_cap)
    if m == 0:
        return plain_mols(p, n, order_cap)
    fam = plain_mols(p, m, order_cap)
    return MoslsFamily(
        SudokuShape(p ** m, 1), tuple(transpose(sq) for sq in fam.squares)
    )


def _line_pairs(bands1: int, size1: int, bands2: int, size2: int):
    """Line indices into the two factor squares, for the product's lines
    ordered by band pair (i1, i2), then by offset pair within the bands."""
    i1, i2, a1, a2 = np.meshgrid(
        np.arange(bands1), np.arange(bands2), np.arange(size1), np.arange(size2), indexing="ij"
    )
    return (i1 * size1 + a1).ravel(), (i2 * size2 + a2).ravel()


def product(f1: MoslsFamily, f2: MoslsFamily) -> MoslsFamily:
    """Pairwise product family of type (q1*q2, r1*r2), size min(f1, f2).

    Rows of a product square are ordered by block-row pair (i1, i2)
    lexicographically, then by row offset pair; columns likewise with
    block-columns.  The symbol is the pairing 1 + (s1-1)*n2 + (s2-1).
    """
    if len(f1) == 0 or len(f2) == 0:
        raise ValueError("product requires non-empty families")
    q1, r1 = f1.shape.q, f1.shape.r
    q2, r2 = f2.shape.q, f2.shape.r
    n2 = f2.shape.order
    shape = SudokuShape(q1 * q2, r1 * r2)
    rows1, rows2 = _line_pairs(r1, q1, r2, q2)
    cols1, cols2 = _line_pairs(q1, r1, q2, r2)
    squares = [
        LatinSquare(
            1 + (sq1.entries[np.ix_(rows1, cols1)] - 1) * n2 + (sq2.entries[np.ix_(rows2, cols2)] - 1),
            shape,
        )
        for sq1, sq2 in zip(f1.squares, f2.squares)
    ]
    return MoslsFamily(shape, tuple(squares))


def composite_count(factors) -> int:
    """Family size for a product over the given (p, m, n) factors."""
    specs = [FieldConstructionSpec(p, m, n) for p, m, n in factors]
    if len({s.p for s in specs}) != len(specs):
        raise ValueError("factor primes must be distinct")
    return min(mosls_count(s.p, s.m, s.n) for s in specs)


def composite_mosls(factors, order_cap: int = DEFAULT_ORDER_CAP) -> MoslsFamily:
    """Iterated product family over distinct-prime factors (p, m, n).

    Factors are combined in ascending order of p; the result has type
    (prod p**m, prod p**n) and composite_count(factors) squares.
    """
    specs = sorted(
        (FieldConstructionSpec(p, m, n) for p, m, n in factors), key=lambda s: s.p
    )
    if not specs:
        raise ValueError("at least one factor is required")
    if len({s.p for s in specs}) != len(specs):
        raise ValueError("factor primes must be distinct")
    total = 1
    for s in specs:
        total *= s.order
    if total > order_cap:
        raise OrderCapError(f"order {total} exceeds cap {order_cap}")
    families = [per_prime_family(s.p, s.m, s.n, order_cap) for s in specs]
    return reduce(product, families)
