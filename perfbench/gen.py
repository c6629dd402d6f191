"""Seeded MOSLS families for the benchmark, built without the package under test.

Field elements of GF(p**d) are the integers 0..p**d-1, whose base-p digits
are the polynomial coefficients.  A field square of type (p**m, p**n),
m >= n >= 1, has rows and columns in natural element order and entry
1 + (x - a*y) for each multiplier a of degree exactly m; r < q families are
transposed, composite orders use the paired-symbol product.  This is the
construction of the source paper, so the unscrambled families equal what
`mosls construct` writes (a test checks that).

`scramble` then applies the seeded changes that keep a family Latin, Sudoku,
orthogonal and block-permutational and keep its cell graph (up to a vertex
relabelling that maps blocks to blocks), hence its closed-form spectrum:
an independent symbol relabelling per square (`relabel`), one permutation
of the row bands, and one permutation of the rows inside each band.
"""

from __future__ import annotations

from functools import reduce

import numpy as np


class Family:
    """Squares of type (q, r) as 1-based int64 arrays."""

    def __init__(self, q: int, r: int, squares):
        self.q, self.r = q, r
        self.squares = [np.asarray(sq, dtype=np.int64) for sq in squares]

    @property
    def order(self) -> int:
        return self.q * self.r

    def __len__(self) -> int:
        return len(self.squares)

    def subset(self, indices) -> "Family":
        """Family of the given 1-based square indices."""
        return Family(self.q, self.r, [self.squares[k - 1] for k in indices])

    def text(self) -> str:
        """The `mosls v1` file format."""
        lines = ["mosls v1", f"order {self.order} type {self.q} {self.r} count {len(self)}"]
        for k, sq in enumerate(self.squares):
            if k:
                lines.append("")
            lines.extend(" ".join(map(str, row)) for row in sq.tolist())
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.text())


def _field_tables(p: int, d: int):
    """(add, neg, mul) tables of GF(p**d) for the first monic modulus
    without zero divisors."""
    size = p**d
    weights = p ** np.arange(d)
    digits = (np.arange(size)[:, None] // weights) % p
    add = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
    neg = ((-digits) % p) @ weights
    conv = np.zeros((size, size, 2 * d - 1), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            conv[:, :, i + j] += digits[:, None, i] * digits[None, :, j]
    for low in range(p**d):
        modulus = np.array([(low // p**i) % p for i in range(d)] + [1])
        prod = conv.copy()
        for k in range(2 * d - 2, d - 1, -1):
            lead = prod[:, :, k] % p
            prod[:, :, k - d : k + 1] -= lead[:, :, None] * modulus
        mul = (prod[:, :, :d] % p) @ weights
        if (mul[1:, 1:] != 0).all():
            return add, neg, mul
    raise ValueError(f"no irreducible modulus of degree {d} over Z_{p}")


def _x_minus_ay(p: int, d: int, multipliers) -> list[np.ndarray]:
    add, neg, mul = _field_tables(p, d)
    x = np.arange(p**d)
    return [1 + add[x[:, None], neg[mul[a, x]][None, :]] for a in multipliers]


def factor_family(p: int, m: int, n: int) -> Family:
    """Family of one prime-power factor: type (p**m, p**n)."""
    if m >= 1 and n >= 1:
        if m < n:
            fam = factor_family(p, n, m)
            return Family(p**m, p**n, [sq.T for sq in fam.squares])
        return Family(p**m, p**n, _x_minus_ay(p, m + n, range(p**m, p ** (m + 1))))
    k = m + n
    squares = _x_minus_ay(p, k, range(1, p**k))
    if m == 0:
        return Family(1, p**k, squares)
    return Family(p**k, 1, [sq.T for sq in squares])


def product(f1: Family, f2: Family) -> Family:
    """Paired-symbol product of type (q1*q2, r1*r2), size min(f1, f2)."""
    q1, r1, q2, r2 = f1.q, f1.r, f2.q, f2.r
    i1, i2, a1, a2 = np.meshgrid(
        np.arange(r1), np.arange(r2), np.arange(q1), np.arange(q2), indexing="ij"
    )
    rows1, rows2 = (i1 * q1 + a1).ravel(), (i2 * q2 + a2).ravel()
    j1, j2, b1, b2 = np.meshgrid(
        np.arange(q1), np.arange(q2), np.arange(r1), np.arange(r2), indexing="ij"
    )
    cols1, cols2 = (j1 * r1 + b1).ravel(), (j2 * r2 + b2).ravel()
    n2 = f2.order
    squares = [
        1 + (s1[rows1][:, cols1] - 1) * n2 + (s2[rows2][:, cols2] - 1)
        for s1, s2 in zip(f1.squares, f2.squares)
    ]
    return Family(q1 * q2, r1 * r2, squares)


def build(factors) -> Family:
    """Family over (p, m, n) factors, combined in ascending order of p."""
    return reduce(product, [factor_family(*f) for f in sorted(factors)])


def family_size(factors) -> int:
    """max(q, r)*(p-1) for a field factor, p**k - 1 for a flat one, and the
    minimum over the factors for a product."""
    return min(
        max(p**m, p**n) * (p - 1) if m >= 1 and n >= 1 else p ** (m + n) - 1
        for p, m, n in factors
    )


def relabel(fam: Family, rng: np.random.Generator) -> Family:
    """Independent seeded symbol relabelling of each square; the cell graph
    stays the same matrix."""
    n = fam.order
    return Family(fam.q, fam.r, [(1 + rng.permutation(n))[sq - 1] for sq in fam.squares])


def scramble(fam: Family, rng: np.random.Generator) -> Family:
    """Seeded relabelling plus one band permutation and one row permutation
    inside each band, shared by all squares."""
    q, r = fam.q, fam.r
    rows = np.concatenate([band * q + rng.permutation(q) for band in rng.permutation(r)])
    return relabel(Family(q, r, [sq[rows] for sq in fam.squares]), rng)


def valid_switches(square: np.ndarray, q: int, r: int):
    """Every (kind, index, (k1, k2)) symbol switch that keeps the square
    Sudoku: each line crossing the band holds both symbols inside it or
    both outside it."""
    n = q * r
    out = []
    for kind, bands, size in (("row-block", r, q), ("col-block", q, r)):
        lines = square.T if kind == "row-block" else square
        # pos[line, s-1] = position of symbol s along the crossing line
        pos = np.argsort(lines, axis=1)
        for index in range(1, bands + 1):
            inside = (pos >= (index - 1) * size) & (pos < index * size)
            for k1 in range(1, n + 1):
                for k2 in range(k1 + 1, n + 1):
                    if (inside[:, k1 - 1] == inside[:, k2 - 1]).all():
                        out.append((kind, index, (k1, k2)))
    return out


def apply_switch(square: np.ndarray, q: int, r: int, switch) -> np.ndarray:
    """The square with the two symbols exchanged inside the band."""
    kind, index, (k1, k2) = switch
    out = square.copy()
    band = (
        (slice((index - 1) * q, index * q), slice(None))
        if kind == "row-block"
        else (slice(None), slice((index - 1) * r, index * r))
    )
    part = square[band]
    out[band] = np.where(part == k1, k2, np.where(part == k2, k1, part))
    return out
