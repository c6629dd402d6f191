"""Construction of mutually orthogonal Sudoku Latin square families.

Prime-power families: for q*r = p**(m+n) with q = p**m and r = p**n, index
rows and columns of a square by the elements of GF(p**(m+n)) in canonical
order, which groups them into additive cosets (see field_square), and fill
cell (x, y) of the square attached to a nonzero field element a with the
symbol x - a*y.  When m, n >= 1, choosing a with degree exactly max(m, n)
makes every square Sudoku, and the max(q, r)*(p-1) squares obtained this
way (transposed when r > q) are mutually orthogonal and
block-permutational.  A flat type (1, p**n) or (p**m, 1) takes every
nonzero a: p**(m+n) - 1 mutually orthogonal Latin squares.

Composite orders: a product construction combines one family per prime
factor into a family of type (prod q_i, prod r_i) whose size is the
minimum of the factor family sizes.  composite_mosls builds every family,
a prime-power one from the single factor [(p, m, n)], and composite_count
gives its size without building it.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from . import gf
from .designs import LatinSquare, MoslsFamily, SudokuShape, transpose

DEFAULT_ORDER_CAP = 16


class OrderCapError(ValueError):
    """Requested order exceeds the configured cap."""


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


def _prime_power_family(p: int, m: int, n: int) -> MoslsFamily:
    """The squares x - a*y over GF(p**(m+n)), of type (p**m, p**n).

    When m, n >= 1 the multipliers a are the elements of degree exactly
    big = max(m, n), which makes every square Sudoku of type
    (p**big, p**(m+n-big)); transposing when big != m realises the larger
    count.  A flat type (big = 0) takes every nonzero multiplier, giving
    Latin squares.  Either way the multipliers are the composite_count
    canonical indices from q = p**big up, in that order.
    """
    big = max(m, n) if m and n else 0
    ctx = gf.make_field(p, m + n)
    q = p ** big
    shape = SudokuShape(q, ctx.size // q)
    squares = [field_square(ctx, a, shape) for a in range(q, q + composite_count([(p, m, n)]))]
    if big != m:
        squares = [transpose(sq) for sq in squares]
    return MoslsFamily(SudokuShape(p ** m, p ** n), tuple(squares))


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

    A product of block-permutational Sudoku squares is block-permutational:
    its block (i1, i2; j1, j2) pairs block (i1, j1) of the first factor with
    block (i2, j2) of the second, offset pair by offset pair, so if those
    are the factors' first blocks with rows permuted by s1, s2 and columns
    by t1, t2, it is the product's first block, which pairs the first
    blocks, with rows permuted by s1 x s2 and columns by t1 x t2.  Every
    block of a flat factor is a whole line, a permutation of the first.
    """
    if len(f1) == 0 or len(f2) == 0:
        raise ValueError("product requires non-empty families")
    q1, r1 = f1.shape.q, f1.shape.r
    q2, r2 = f2.shape.q, f2.shape.r
    n2 = f2.shape.order
    shape = SudokuShape(q1 * q2, r1 * r2)
    rows1, rows2 = _line_pairs(r1, q1, r2, q2)
    cols1, cols2 = _line_pairs(q1, r1, q2, r2)
    # intp: the pairing reaches n1 * n2, beyond the factors' uint8 at 256
    squares = [
        LatinSquare(
            1 + (sq1.entries[np.ix_(rows1, cols1)].astype(np.intp) - 1) * n2
            + (sq2.entries[np.ix_(rows2, cols2)] - 1),
            shape,
        )
        for sq1, sq2 in zip(f1.squares, f2.squares)
    ]
    return MoslsFamily(shape, tuple(squares))


def _checked_factors(factors, order_cap: int | None = None) -> list:
    """The (p, m, n) factors as a list, checked in input order, then for
    emptiness and repeated primes.  A p above order_cap is not tested for
    primality: its factor alone makes the order exceed the cap, which the
    caller checks next."""
    factors = list(factors)
    for p, m, n in factors:
        if (order_cap is None or p <= max(order_cap, 1)) and not gf.is_prime(p):
            raise ValueError(f"{p} is not prime")
        if m < 0 or n < 0 or m + n < 1:
            raise ValueError(f"invalid exponents ({m}, {n})")
    if not factors:
        raise ValueError("at least one factor is required")
    if len({p for p, _, _ in factors}) != len(factors):
        raise ValueError("factor primes must be distinct")
    return factors


def composite_count(factors) -> int:
    """Family size for a product over the given (p, m, n) factors: the
    smallest factor family, max(p**m, p**n)*(p-1) squares when m, n >= 1
    and p**(m+n) - 1 otherwise."""
    return min(
        p ** max(m, n) * (p - 1) if m and n else p ** (m + n) - 1
        for p, m, n in _checked_factors(factors)
    )


def composite_mosls(factors, order_cap: int = DEFAULT_ORDER_CAP) -> MoslsFamily:
    """Iterated product family over distinct-prime factors (p, m, n).

    Factors are combined in ascending order of p; the result has type
    (prod p**m, prod p**n) and composite_count(factors) squares.
    """
    factors = sorted(_checked_factors(factors, order_cap))
    # each p >= 2 lies in [2**(b - 1), 2**b) for its bit length b, so the
    # order is at least 2**low, and below 2**(2 * low) as b >= 2: it is
    # formed only when low is below the cap's bit length (or 64)
    low = sum((m + n) * (p.bit_length() - 1) for p, m, n in factors)
    if low >= max(order_cap.bit_length(), 64):
        order = " * ".join(f"{p}**{m + n}" for p, m, n in factors)
        raise OrderCapError(f"order {order} exceeds cap {order_cap}")
    total = math.prod(p ** (m + n) for p, m, n in factors)
    if total > order_cap:
        raise OrderCapError(f"order {total} exceeds cap {order_cap}")
    return reduce(product, [_prime_power_family(*f) for f in factors])
