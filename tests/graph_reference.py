"""Test-side references for the graph layer: the dense block layer of a
shape, compared cell pair by cell pair, which mosls.graph writes per
block through the block map; the Sudoku clash that
mosls.graph.build_mosls_graph reports, read off that dense layer; and
the edge pairs that mosls.graph.edge_lines writes.
"""

import numpy as np

from mosls.designs import SudokuShape
from mosls.graph import _cells


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
