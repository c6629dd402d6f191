"""Test-side references for the graph layer: the dense block layer of a
shape, compared cell pair by cell pair, which mosls.graph holds as the
signed labels of _block_labels; the Sudoku clash that
mosls.graph.build_mosls_graph reports, read off that dense layer; and
the edge pairs that mosls.graph.edge_lines writes; and the text an
export writes, read back.
"""

import io

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
