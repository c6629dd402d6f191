"""Switching operations on Latin squares and the spectral bookkeeping
around them.

Row-cycle switching swaps the entries of two rows along one cycle of the
permutation carrying row r to row s; the result is always Latin, but the
Sudoku property may be lost.  Sudoku symbol switching exchanges two
symbols inside one band of blocks (a block-row or block-column) and keeps
the Sudoku property whenever every line crossing the band contains both
occurrences of the symbols inside it or both outside it.

For a single square (f = 1) of type (q, r), q, r >= 2, whose Latin and
block adjacency commute, a valid switch changes the cell-graph charpoly in
a closed form.  Let a = r(q - 1) and w = (t + 2)(t + 2 - a).  The
eigenvalues -2, -r-2, qr-2 and qr-r-2 leave the spectrum, and the product
of t - v over them is w(w - qr^2); the roots of w(w - qr^2) + 4q^2(r - 1)^2
join it.  So the new charpoly is the old divided by w(w - qr^2), times
w(w - qr^2) + 4q^2(r - 1)^2.  It exceeds the old by 4q^2(r - 1)^2 times
that quotient, a positive constant times a nonzero polynomial: a valid
switch of a block-permutational square always changes the charpoly.
"""

from __future__ import annotations

from dataclasses import dataclass

# spectra, graph, then designs: every layer compiles before designs imports
# numpy, so numpy's import reuses the compiler's heap when no bytecode is cached
from .spectra import IntPolynomial, charpoly_exact, poly_product
from .graph import build_mosls_graph
from .designs import CheckFailed, LatinSquare, MoslsFamily, is_block_permutational, is_latin, is_sudoku

import numpy as np


class SwitchError(CheckFailed):
    """Switch input is not a cycle or violates a precondition."""


class SwitchValidityError(SwitchError):
    """A line crossing the band separates the two symbols."""


class TheoremPreconditionError(CheckFailed):
    """The spectral-change formula does not apply to these inputs."""


@dataclass(frozen=True)
class RowCycle:
    """One cycle of the permutation sending row row_a to row row_b.

    columns lists the 1-based column support in traversal order, starting
    from the smallest unvisited column.
    """

    row_a: int
    row_b: int
    columns: tuple[int, ...]


@dataclass(frozen=True)
class SwitchSpec:
    """Symbol exchange inside one band: kind is 'row-block' (band of q
    rows, index 1..r) or 'col-block' (band of r columns, index 1..q)."""

    kind: str
    index: int
    symbols: tuple[int, int]


def _check_lines(kind: str, indices, n: int) -> None:
    for idx in indices:
        if not 1 <= idx <= n:
            raise SwitchError(f"{kind} {idx} outside 1..{n}")


def row_cycle_decompose(L: LatinSquare, row_a: int, row_b: int) -> list[RowCycle]:
    """Cycles of the symbol permutation L[row_a, c] -> L[row_b, c], each
    walked over the columns c -> the column of L[row_b, c] in row_a."""
    n = L.order
    if row_a == row_b:
        raise SwitchError("rows must differ")
    _check_lines("row", (row_a, row_b), n)
    top, bot = L.entries[row_a - 1].tolist(), L.entries[row_b - 1].tolist()
    col_of = {s: c for c, s in enumerate(top)}
    if len(col_of) != n or col_of.keys() != set(bot):
        raise SwitchError(f"rows {row_a} and {row_b} do not hold the same {n} distinct symbols")
    cycles = []
    seen = [False] * n
    for c in range(n):
        cols = []
        while not seen[c]:
            seen[c] = True
            cols.append(c + 1)
            c = col_of[bot[c]]
        if cols:
            cycles.append(RowCycle(row_a, row_b, tuple(cols)))
    return cycles


def row_cycle_switch(L: LatinSquare, cycle: RowCycle) -> LatinSquare:
    """Swap the two rows on the cycle's column support.

    The result must again be Latin; anything else means the input was not
    a full cycle of the row permutation.
    """
    if cycle.row_a == cycle.row_b:
        raise SwitchError("rows must differ")
    _check_lines("row", (cycle.row_a, cycle.row_b), L.order)
    _check_lines("column", cycle.columns, L.order)
    repeats = [c for k, c in enumerate(cycle.columns) if c in cycle.columns[:k]]
    if repeats:
        raise SwitchError(f"column {repeats[0]} repeats in the cycle")
    ent = L.entries.copy()
    a, b = cycle.row_a - 1, cycle.row_b - 1
    cols = [c - 1 for c in cycle.columns]
    ent[a, cols], ent[b, cols] = L.entries[b, cols], L.entries[a, cols]
    out = LatinSquare(ent, L.shape)
    if not is_latin(out):
        raise SwitchError("switched square is not Latin; the columns do not form a cycle")
    return out


def sudoku_symbol_switch(L: LatinSquare, spec: SwitchSpec) -> LatinSquare:
    """Exchange the two symbols everywhere inside the band.

    Valid only when every line crossing the band has both symbol
    occurrences inside the band or both outside it; the offending line is
    reported otherwise.  A valid switch preserves Latin and Sudoku: the
    band's lines and blocks lie wholly inside it, so the exchange relabels
    them, and each crossing line has both symbols swapped or neither.
    """
    if not (is_latin(L) and is_sudoku(L)):
        raise SwitchError("symbol switching requires a Sudoku square")
    ent = L.entries.copy()
    # one copy takes either edit: a column band is a row band of its
    # transposed view
    if spec.kind == "row-block":
        lines, q, bands, band_name, crossing = ent, L.shape.q, L.shape.r, "block-row", "column"
    elif spec.kind == "col-block":
        lines, q, bands, band_name, crossing = ent.T, L.shape.r, L.shape.q, "block-column", "row"
    else:
        raise SwitchError(f"unknown band kind {spec.kind!r}")
    _check_lines(band_name, (spec.index,), bands)
    k1, k2 = spec.symbols
    n = L.order
    if k1 == k2 or not (1 <= k1 <= n and 1 <= k2 <= n):
        raise SwitchError(f"symbols must be distinct values in 1..{n}, got {spec.symbols}")

    band = lines[(spec.index - 1) * q : spec.index * q]  # a view of the band's lines
    at1, at2 = band == k1, band == k2
    # each crossing line holds each symbol once; find one that is split
    inside1 = at1.any(axis=0)
    split = np.flatnonzero(inside1 != at2.any(axis=0))
    if split.size:
        idx = split[0]
        inside, outside = (k1, k2) if inside1[idx] else (k2, k1)
        raise SwitchValidityError(
            f"{crossing} {idx + 1}: symbol {inside} lies inside the band "
            f"but {outside} lies outside"
        )
    band[at1], band[at2] = k2, k1
    return LatinSquare(ent, L.shape)


def _leaving(q: int, r: int) -> tuple[int, ...]:
    """The four eigenvalues a type (q, r) switch removes (module docstring)."""
    return (-2, -(r + 2), q * r - 2, q * r - r - 2)


def switched_quartic(q: int, r: int) -> IntPolynomial:
    """The joining quartic of a type (q, r) switch (module docstring): the
    product of t - v over the four leaving eigenvalues plus 4q^2(r - 1)^2."""
    c0, *rest = poly_product([(IntPolynomial((-v, 1)), 1) for v in _leaving(q, r)]).coeffs
    return IntPolynomial((c0 + 4 * q * q * (r - 1) ** 2, *rest))


def switched_charpoly_expected(base: IntPolynomial, q: int, r: int) -> IntPolynomial:
    """Charpoly of the switched cell graph of one type (q, r) square whose
    Latin and block adjacency commute, predicted from the unswitched
    charpoly base by the theorem of the module docstring."""
    if q < 2 or r < 2:
        raise TheoremPreconditionError("needs q, r >= 2")
    coeffs = list(base.coeffs)
    for root in _leaving(q, r):
        # synthetic division by t - root: coeffs[k + 1] becomes the
        # quotient's coefficient of t**k and coeffs[0] the remainder
        for k in range(len(coeffs) - 2, -1, -1):
            coeffs[k] += root * coeffs[k + 1]
        if len(coeffs) < 2 or coeffs.pop(0):
            raise TheoremPreconditionError(
                "base charpoly is not divisible by the removed eigenvalues; "
                "the formula does not apply"
            )
    return poly_product([(IntPolynomial(tuple(coeffs)), 1), (switched_quartic(q, r), 1)])


@dataclass
class Certificate:
    """Cospectrality verdict for two single-square cell graphs."""

    charpoly_a: IntPolynomial
    charpoly_b: IntPolynomial
    differing_coefficient_index: int | None

    @property
    def verdict(self) -> str:  # distinct charpolys certify, equal ones do not
        return "INCONCLUSIVE" if self.differing_coefficient_index is None else "NOT-ISOMORPHIC"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "charpoly_a": self.charpoly_a.decimal_strings(),
            "charpoly_b": self.charpoly_b.decimal_strings(),
            "differing_coefficient_index": self.differing_coefficient_index,
        }


def nonisomorphism_certificate(a: LatinSquare, b: LatinSquare) -> Certificate:
    """Compare the single-square MOSLS cell graphs spectrally.

    Distinct charpolys certify non-isomorphic graphs (hence inequivalent
    squares); equal charpolys are inconclusive.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: type {(a.shape.q, a.shape.r)} vs type {(b.shape.q, b.shape.r)}")
    pa = charpoly_exact(build_mosls_graph(MoslsFamily(a.shape, (a,))).adjacency)
    pb = charpoly_exact(build_mosls_graph(MoslsFamily(b.shape, (b,))).adjacency)
    diff = next((idx for idx, (ca, cb) in enumerate(zip(pa.coeffs, pb.coeffs)) if ca != cb), None)
    return Certificate(pa, pb, diff)


def _theorem_verdict(square: LatinSquare, spec: SwitchSpec, cert: Certificate) -> str:
    """`switch`'s `closed form:` verdict on cert, of square and its switch by spec."""
    # a flat square is block-permutational, and the theorem refuses it (needs q, r >= 2)
    if not is_block_permutational(square):
        return "INAPPLICABLE (square is not block-permutational)"
    q, r = square.shape.q, square.shape.r
    if spec.kind == "col-block":  # a row-band switch of the transpose, of type (r, q)
        q, r = r, q
    try:
        expected = switched_charpoly_expected(cert.charpoly_a, q, r)
    except TheoremPreconditionError as exc:
        return f"INAPPLICABLE ({exc})"
    return "MATCH" if expected.coeffs == cert.charpoly_b.coeffs else "MISMATCH"
