"""Switching operations on Latin squares and the spectral bookkeeping
around them.

Row-cycle switching swaps the entries of two rows along one cycle of the
permutation carrying row r to row s; the result is always Latin, but the
Sudoku property may be lost.  Sudoku symbol switching exchanges two
symbols inside one band of blocks (a block-row or block-column) and keeps
the Sudoku property whenever every line crossing the band contains both
occurrences of the symbols inside it or both outside it.

For a single square (f = 1) with commuting Latin and block adjacency, a
valid switch changes the cell-graph charpoly in a closed form: four known
eigenvalues leave the spectrum and the roots of a quartic replace them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import CheckFailed, LatinSquare, MoslsFamily, is_latin, is_sudoku, transpose
from .graph import build_mosls_graph
from .spectra import IntPolynomial, charpoly_exact, check_exact_size, poly_product


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
    """Cycles of the symbol permutation L[row_a, c] -> L[row_b, c]."""
    n = L.order
    if row_a == row_b:
        raise SwitchError("rows must differ")
    _check_lines("row", (row_a, row_b), n)
    top = L.entries[row_a - 1]
    bot = L.entries[row_b - 1]
    col_of = {int(s): c for c, s in enumerate(top)}
    succ = {int(top[c]): int(bot[c]) for c in range(n)}
    if len(col_of) != n or set(succ.values()) != col_of.keys():
        raise SwitchError(f"rows {row_a} and {row_b} do not hold the same {n} distinct symbols")
    cycles = []
    visited = set()
    for c in range(n):
        start = int(top[c])
        if start in visited:
            continue
        cols = []
        cur = start
        while cur not in visited:
            visited.add(cur)
            cols.append(col_of[cur] + 1)
            cur = succ[cur]
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
    reported otherwise.  A valid switch preserves Latin and Sudoku.
    """
    if not (is_latin(L) and is_sudoku(L)):
        raise SwitchError("symbol switching requires a Sudoku square")
    # a column-band switch is a row-band switch of the transpose
    if spec.kind == "row-block":
        square, band_name, crossing = L, "block-row", "column"
    elif spec.kind == "col-block":
        square, band_name, crossing = transpose(L), "block-column", "row"
    else:
        raise SwitchError(f"unknown band kind {spec.kind!r}")
    q, bands = square.shape.q, square.shape.r
    if not 1 <= spec.index <= bands:
        raise SwitchError(f"{band_name} {spec.index} outside 1..{bands}")
    k1, k2 = spec.symbols
    n = L.order
    if k1 == k2 or not (1 <= k1 <= n and 1 <= k2 <= n):
        raise SwitchError(f"symbols must be distinct values in 1..{n}, got {spec.symbols}")

    ent = square.entries.copy()
    band = ent[(spec.index - 1) * q : spec.index * q]  # a view of the band's rows
    at1, at2 = band == k1, band == k2
    # each crossing column holds each symbol once; find one that is split
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
    out = LatinSquare(ent, square.shape)
    if spec.kind == "col-block":
        out = transpose(out)
    if not (is_latin(out) and is_sudoku(out)):
        raise RuntimeError("internal error: valid switch produced a non-Sudoku square")
    return out


def switched_quartic(q: int, r: int) -> IntPolynomial:
    """Monic quartic whose roots join the spectrum after a valid
    single-square switch on a type (q, r) square."""
    c3 = -2 * q * r + 2 * r + 8
    c2 = q * q * r * r - 3 * q * r * r - 12 * q * r + r * r + 12 * r + 24
    c1 = (
        q * q * r**3
        + 4 * q * q * r * r
        - q * r**3
        - 12 * q * r * r
        - 24 * q * r
        + 4 * r * r
        + 24 * r
        + 32
    )
    c0 = (
        2 * q * q * r**3
        + 8 * q * q * r * r
        - 8 * q * q * r
        + 4 * q * q
        - 2 * q * r**3
        - 12 * q * r * r
        - 16 * q * r
        + 4 * r * r
        + 16 * r
        + 16
    )
    return IntPolynomial((c0, c1, c2, c3, 1))


def switched_charpoly_expected(base: IntPolynomial, q: int, r: int) -> IntPolynomial:
    """Charpoly of the switched single-square cell graph, predicted from
    the unswitched charpoly.

    Applies to one square (f = 1) of type (q, r) with q, r >= 2 whose
    Latin adjacency commutes with the block adjacency.  The eigenvalues
    -2, -r-2, qr-2 and qr-r-2 leave the spectrum (their linear factors
    must divide base exactly) and the roots of switched_quartic join it.
    """
    if q < 2 or r < 2:
        raise TheoremPreconditionError(f"need q, r >= 2, got ({q}, {r})")
    coeffs = list(base.coeffs)
    for root in (-2, -(r + 2), q * r - 2, q * r - r - 2):
        # synthetic division by t - root: coeffs[k + 1] becomes the
        # quotient's coefficient of t**k and coeffs[0] the remainder
        for k in range(len(coeffs) - 2, -1, -1):
            coeffs[k] += root * coeffs[k + 1]
        if len(coeffs) < 2 or coeffs.pop(0):
            raise TheoremPreconditionError(
                "base charpoly is not divisible by the removed eigenvalues; "
                "the formula does not apply"
            )
    return poly_product(((IntPolynomial(tuple(coeffs)), 1), (switched_quartic(q, r), 1)))


@dataclass
class Certificate:
    """Cospectrality verdict for two single-square cell graphs."""

    verdict: str  # "NOT-ISOMORPHIC" or "INCONCLUSIVE"
    charpoly_a: IntPolynomial
    charpoly_b: IntPolynomial
    differing_coefficient_index: int | None

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
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    # refuse oversized squares before building their dense graphs
    check_exact_size(a.order ** 2)
    pa = charpoly_exact(build_mosls_graph(MoslsFamily(a.shape, (a,))).adjacency)
    pb = charpoly_exact(build_mosls_graph(MoslsFamily(b.shape, (b,))).adjacency)
    diff = None
    for idx, (ca, cb) in enumerate(zip(pa.coeffs, pb.coeffs)):
        if ca != cb:
            diff = idx
            break
    verdict = "INCONCLUSIVE" if diff is None else "NOT-ISOMORPHIC"
    return Certificate(verdict, pa, pb, diff)
