"""Test-side references for the designs layer: blocks of a square and
the row/column permutations between two blocks, the independent check of
mosls.designs.is_block_permutational, and pairwise orthogonality of a
whole family, which the command line reports pair by pair.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from mosls.designs import LatinSquare, MoslsFamily, are_orthogonal


@dataclass(frozen=True)
class Block:
    """One q-by-r block, addressed by block-row i and block-column j."""

    block_row: int
    block_col: int
    cells: np.ndarray

    def __eq__(self, other):
        return (
            isinstance(other, Block)
            and self.block_row == other.block_row
            and self.block_col == other.block_col
            and np.array_equal(self.cells, other.cells)
        )


def block(L: LatinSquare, i: int, j: int) -> Block:
    """Block in block-row i (1..r) and block-column j (1..q)."""
    q, r = L.shape.q, L.shape.r
    if not 1 <= i <= r:
        raise ValueError(f"block-row {i} outside 1..{r}")
    if not 1 <= j <= q:
        raise ValueError(f"block-column {j} outside 1..{q}")
    cells = L.entries[(i - 1) * q : i * q, (j - 1) * r : j * r].copy()
    cells.setflags(write=False)
    return Block(i, j, cells)


def block_map_factorization(M: Block, M2: Block):
    """Row/column permutations turning one block into another.

    Returns (sigma, tau) with M.cells[a, b] == M2.cells[sigma[a], tau[b]]
    (0-based tuples), or None when no such pair exists.  Both blocks must
    hold the same symbols with no repeats.
    """
    A, B = M.cells, M2.cells
    if A.shape != B.shape:
        raise ValueError(f"block shape mismatch: {A.shape} vs {B.shape}")
    q, r = A.shape
    syms_a = sorted(A.ravel().tolist())
    syms_b = sorted(B.ravel().tolist())
    if len(set(syms_a)) != q * r or len(set(syms_b)) != q * r:
        raise ValueError("blocks must have all-distinct entries")
    if syms_a != syms_b:
        raise ValueError("blocks must use the same symbol set")
    where = {int(B[a, b]): (a, b) for a in range(q) for b in range(r)}
    sigma = [None] * q
    tau = [None] * r
    for a in range(q):
        for b in range(r):
            a2, b2 = where[int(A[a, b])]
            if sigma[a] is None:
                sigma[a] = a2
            elif sigma[a] != a2:
                return None
            if tau[b] is None:
                tau[b] = b2
            elif tau[b] != b2:
                return None
    # distinct symbols force sigma and tau to be bijections at this point
    assert sorted(sigma) == list(range(q)) and sorted(tau) == list(range(r))
    return tuple(sigma), tuple(tau)


def family_pairwise_orthogonal(fam: MoslsFamily) -> bool:
    """True iff every two squares of the family are orthogonal."""
    return all(are_orthogonal(a, b) for a, b in combinations(fam.squares, 2))
