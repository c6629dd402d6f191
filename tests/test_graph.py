import re
from collections import Counter

import numpy as np
import pytest

from mosls import (
    CellGraph,
    EquitabilityError,
    FamilyStructureError,
    LatinSquare,
    MoslsFamily,
    SudokuShape,
    block_partition,
    build_mols_graph,
    build_mosls_graph,
    commute_check,
    composite_mosls,
    quotient_matrix,
    srg_check,
)
from mosls.cli import _TABLE_ROWS
from mosls.designs import are_orthogonal, is_block_permutational, is_sudoku, transpose
from mosls.graph import (
    _CHUNK,
    MAX_VERTICES,
    _block_labels,
    _classes,
    _label_product,
    edge_lines,
    matrix_lines,
)
from fixtures import (
    FOUR_FAMILY,
    FOUR_PRINTED_ADJACENCY,
    NINE,
    NINE_SWITCHED,
    ORTHO8_FAMILY,
    REMARK4,
    SIX,
    Discard,
    cyclic_square,
    peak_traced,
    single,
)
from graph_reference import (
    SUDOKU_MOVES,
    _add_agreements,
    block_adjacency,
    edge_list,
    first_sudoku_clash,
    label_adjacency,
    matrix_text,
    one_pass_build,
    sudoku_equivalent,
    written,
)


def test_order2_graph_is_complete():
    g = build_mols_graph(single(cyclic_square(2)))
    assert g.num_vertices == 4
    assert np.array_equal(g.adjacency, np.ones((4, 4), dtype=np.int64) - np.eye(4))
    assert edge_list(g.adjacency) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_empty_subset_gives_rook_graph():
    g = build_mols_graph(single(cyclic_square(3)), subset=[])
    assert g.squares == ()
    assert srg_check(g) == (9, 4, 1, 2)


def test_subset_validation():
    with pytest.raises(ValueError, match="outside"):
        build_mols_graph(FOUR_FAMILY, subset=[3])
    with pytest.raises(ValueError, match="outside"):
        build_mols_graph(FOUR_FAMILY, subset=[0])
    # int() would truncate 1.7 to square 1 and parse "2" as square 2
    for subset in ([1.7], ["2"], [1, 2.0]):
        with pytest.raises(ValueError, match="square index is not an integer"):
            build_mols_graph(FOUR_FAMILY, subset=subset)
    numpy_index = build_mols_graph(FOUR_FAMILY, subset=[np.int64(2)])
    assert numpy_index.squares == (FOUR_FAMILY.squares[1],)
    # a graph keeps the squares it selected, once each, in index order
    assert build_mosls_graph(FOUR_FAMILY, [2, 1, 2]).squares == FOUR_FAMILY.squares
    assert build_mols_graph(FOUR_FAMILY, []).squares == ()
    assert np.array_equal(numpy_index.adjacency, build_mols_graph(FOUR_FAMILY, [2]).adjacency)


def test_mols_graph_degrees():
    n, f = 4, 2
    g = build_mols_graph(FOUR_FAMILY)
    assert (g.adjacency.sum(axis=1) == (f + 2) * (n - 1)).all()
    g1 = build_mols_graph(FOUR_FAMILY, subset=[1])
    assert (g1.adjacency.sum(axis=1) == 3 * (n - 1)).all()


def test_mols_graph_srg_parameters():
    assert srg_check(build_mols_graph(FOUR_FAMILY, subset=[1])) == (16, 9, 4, 6)
    assert srg_check(build_mols_graph(FOUR_FAMILY)) == (16, 12, 8, 12)


def test_mosls_graph_degree_and_not_srg():
    g = build_mosls_graph(single(SIX))
    assert (g.adjacency.sum(axis=1) == 17).all()  # 3(n-1) + (q-1)(r-1)
    assert srg_check(g) is None
    assert g.flavor == "mosls"


def test_mosls_graph_matches_printed_adjacency():
    # reorder row-major vertices into block-major order: blocks first
    # (block-row, block-col) lex, then cells row-major inside each block
    g = build_mosls_graph(FOUR_FAMILY)
    perm = []
    for br in range(2):
        for bc in range(2):
            for rw in range(2):
                for cw in range(2):
                    perm.append((2 * br + rw) * 4 + (2 * bc + cw))
    perm = np.array(perm)
    assert np.array_equal(g.adjacency[np.ix_(perm, perm)], FOUR_PRINTED_ADJACENCY)


def test_mols_graph_rejects_non_latin():
    bad = MoslsFamily(
        SudokuShape(1, 2),
        (single(cyclic_square(2)).squares[0],),
    )
    # duplicate square in the family: same symbol agreement counted twice
    dup = MoslsFamily(SudokuShape(1, 2), (bad.squares[0], bad.squares[0]))
    with pytest.raises(FamilyStructureError, match="symbol in square 1"):
        build_mols_graph(dup)
    # cells (1, 1) and (2, 2) agree in all 256 copies, a count that a
    # uint8 total would wrap to 0
    many = MoslsFamily(SudokuShape(1, 2), (bad.squares[0],) * 256)
    with pytest.raises(FamilyStructureError, match="symbol in square 1 and symbol in square 2"):
        build_mols_graph(many)


def test_mols_graph_rejects_a_clash_past_the_int16_wrap():
    # 2**16 copies of the order-2 square, 65538 labels: cells (1, 1) and
    # (2, 2) agree 65536 times, a count that an int16 total would wrap
    square = composite_mosls([(2, 0, 1)]).squares[0]
    many = MoslsFamily(square.shape, (square,) * 2**16)
    with pytest.raises(FamilyStructureError) as exc:
        build_mols_graph(many)
    assert str(exc.value) == (
        "cells (1, 1) and (2, 2) agree in symbol in square 1 and symbol in square 2; "
        "the family is not a valid MOLS family"
    )


def test_mols_graph_rejects_non_orthogonal_pair():
    a = cyclic_square(3)
    b = cyclic_square(3)
    with pytest.raises(FamilyStructureError) as exc:
        build_mols_graph(MoslsFamily(SudokuShape(1, 3), (a, b)))
    msg = str(exc.value)
    assert "symbol in square 1" in msg and "symbol in square 2" in msg


@pytest.mark.parametrize("shift", [70000, -5])
def test_builds_on_uniformly_shifted_symbols(shift):
    # symbols shifted past uint16 or below 0, both stored as int64: a
    # graph joins cells by equal symbols, whatever their values
    def shifted(square):
        moved = LatinSquare(square.entries.astype(np.int64) + shift, square.shape)
        assert moved.entries.dtype == np.int64
        return moved

    fam = composite_mosls([(3, 1, 1)])
    for build in (build_mols_graph, build_mosls_graph):
        for square in fam.squares[:2]:
            assert np.array_equal(build(single(shifted(square))).adjacency, build(single(square)).adjacency)
        moved = MoslsFamily(fam.shape, tuple(map(shifted, fam.squares)))
        assert np.array_equal(build(moved).adjacency, build(fam).adjacency)
    pair = (cyclic_square(3), cyclic_square(3))
    with pytest.raises(FamilyStructureError) as exc:
        build_mols_graph(MoslsFamily(SudokuShape(1, 3), pair))
    with pytest.raises(FamilyStructureError, match=f"^{re.escape(str(exc.value))}$"):
        build_mols_graph(MoslsFamily(SudokuShape(1, 3), tuple(map(shifted, pair))))


def test_mosls_graph_rejects_non_sudoku():
    with pytest.raises(FamilyStructureError, match="not Sudoku"):
        build_mosls_graph(single(REMARK4))


def _shuffled_latin(rng, shape):
    """A cyclic square with rows, columns and symbols permuted at random,
    drawn again until it is not Sudoku."""
    n = shape.order
    while True:
        rows, cols, symbols = rng.permutation(n), rng.permutation(n), rng.permutation(n)
        square = LatinSquare(symbols[(rows[:, None] + cols[None, :]) % n] + 1, shape)
        if not is_sudoku(square):
            return square


@pytest.mark.parametrize("q, r", [(2, 2), (2, 3), (3, 3)])
def test_sudoku_clash_names_the_dense_first_pair(q, r):
    # orders 4, 6 and 9, each square in both orientations: as drawn, of
    # shape (q, r), and transposed, of shape (r, q)
    rng = np.random.default_rng(10 * q + r)
    for _ in range(4):
        square = _shuffled_latin(rng, SudokuShape(q, r))
        for sq in (square, transpose(square)):
            fam = single(sq)
            mols = build_mols_graph(fam).adjacency
            overlap = np.logical_and(mols, block_adjacency(sq.shape))
            assert overlap.sum() >= 4  # several clashing pairs, both ways round
            n = sq.order
            (u1, u2), (v1, v2) = (divmod(w, n) for w in first_sudoku_clash(mols, sq.shape))
            with pytest.raises(FamilyStructureError) as exc:
                build_mosls_graph(fam)
            assert str(exc.value) == (
                f"cells ({u1 + 1}, {u2 + 1}) and ({v1 + 1}, {v2 + 1}) share a block "
                "and a symbol; some selected square is not Sudoku"
            )


def test_block_partition_layout():
    parts = block_partition(SudokuShape(2, 2))
    assert parts == ((0, 1, 4, 5), (2, 3, 6, 7), (8, 9, 12, 13), (10, 11, 14, 15))
    parts6 = block_partition(SudokuShape(2, 3))
    assert len(parts6) == 6 and all(len(p) == 6 for p in parts6)
    assert parts6[0] == (0, 1, 2, 6, 7, 8)


def test_quotient_matrix_order4():
    g = build_mosls_graph(FOUR_FAMILY)
    quo = quotient_matrix(g)
    expected = [[3, 4, 4, 2], [4, 3, 2, 4], [4, 2, 3, 4], [2, 4, 4, 3]]
    assert quo.entries.tolist() == expected


def test_quotient_matrix_order6():
    quo = quotient_matrix(build_mosls_graph(single(SIX)))
    # diagonal qr-1, same block-row r+f, same block-col q+f, else f
    expected = np.full((6, 6), 1, dtype=np.int64)
    for a in range(6):
        for b in range(6):
            if a == b:
                expected[a, b] = 5
            elif a // 2 == b // 2:
                expected[a, b] = 4
            elif a % 2 == b % 2:
                expected[a, b] = 3
    assert np.array_equal(quo.entries, expected)
    assert (quo.entries.sum(axis=1) == 17).all()


def test_quotient_matrix_custom_parts_and_errors():
    # the path 1-2-3-4 on the four cells of type (1, 2), whose blocks
    # {0, 1} and {2, 3} are not equitable for it
    path = np.zeros((4, 4), dtype=np.int64)
    for u, v in [(0, 1), (1, 2), (2, 3)]:
        path[u, v] = path[v, u] = 1
    g = CellGraph(SudokuShape(1, 2), (), "mols", path)
    assert block_partition(g.shape) == ((0, 1), (2, 3))
    with pytest.raises(EquitabilityError, match="part 1"):
        quotient_matrix(g)
    # the partition into ends {0, 3} and middles {1, 2} is equitable; the
    # quotient takes only the blocks, so relabel the path to make the ends
    # cells 0 and 1
    ends_first = [0, 3, 1, 2]
    relabelled = CellGraph(g.shape, (), "mols", path[np.ix_(ends_first, ends_first)])
    quo = quotient_matrix(relabelled)
    assert quo.entries.tolist() == [[0, 1], [1, 1]]
    # the parts are always the blocks, and they partition the vertex set
    for shape in (SudokuShape(1, 2), SudokuShape(2, 3), SudokuShape(3, 2)):
        nv = shape.order ** 2
        quo = quotient_matrix(CellGraph(shape, (), "mols", np.zeros((nv, nv), dtype=np.uint8)))
        assert quo.parts == block_partition(shape)
        assert sorted(v for part in quo.parts for v in part) == list(range(nv))
        assert not quo.entries.any()


# every field type (p**m, p**n) of order at most 25, flat types included
FIELD_TYPES_TO_25 = [
    (p, m, k - m) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23) for k in (1, 2, 3, 4) if p**k <= 25 for m in range(k + 1)
]


@pytest.mark.parametrize("p, m, n", FIELD_TYPES_TO_25)
def test_sudoku_equivalent_squares_give_isomorphic_cell_graphs(p, m, n):
    # each move alone, then all of them at once, on the family's first two
    # squares (a complete family of flat squares gives a complete graph)
    full = composite_mosls([(p, m, n)], order_cap=25)
    fam = MoslsFamily(full.shape, full.squares[:2])
    adjacency = build_mosls_graph(fam).adjacency
    every = [move for move in SUDOKU_MOVES if move != "transpose" or fam.shape.q == fam.shape.r]
    rng = np.random.default_rng([p, m, n])
    for moves in [[move] for move in every] + [every]:
        moved, cells = sudoku_equivalent(fam, rng, moves)
        assert np.array_equal(build_mosls_graph(moved).adjacency, adjacency[np.ix_(cells, cells)]), moves


def test_commute_check():
    assert commute_check(FOUR_FAMILY)
    assert commute_check(single(SIX))
    assert commute_check(single(NINE))
    assert not commute_check(single(NINE_SWITCHED))


def test_layer_cross_terms_need_not_vanish():
    """[L, B] is the sum of the commutators [S_k, B] of the same-symbol
    relations S_k, and for two orthogonal squares neither of which is
    block-permutational their Frobenius product -2 sum (N - b)**2 need not
    be 0: on ORTHO8 N, the B-adjacent blocks between the cells of symbol t
    in square 1 and of x in square 2, takes 1 and 5 around b = 3.  So the
    squared norm of [L, B] is no sum of the squares' own terms, and the
    proof at designs.is_block_permutational goes through N = b instead;
    the layers of ORTHO8 do not commute, as it proves."""
    a, b = ORTHO8_FAMILY.squares
    assert is_sudoku(a) and is_sudoku(b) and are_orthogonal(a, b)
    assert not is_block_permutational(a) and not is_block_permutational(b)
    blocks = block_adjacency(ORTHO8_FAMILY.shape).astype(np.int64)
    same = [np.equal.outer(sq.entries.ravel(), sq.entries.ravel()).astype(np.int64) for sq in (a, b)]
    commutators = [s @ blocks - blocks @ s for s in same]
    latin = build_mols_graph(ORTHO8_FAMILY).adjacency.astype(np.int64)
    assert np.array_equal(latin @ blocks - blocks @ latin, sum(commutators))
    onehot = [np.eye(8, dtype=np.int64)[sq.entries.ravel() - 1] for sq in (a, b)]
    counts = onehot[0].T @ blocks @ onehot[1]
    assert set(np.unique(counts).tolist()) == {1, 5} and counts.sum() == 3 * 64
    cross = int((commutators[0] * commutators[1]).sum())
    assert cross == -2 * int(((counts - 3) ** 2).sum()) == -512
    assert not commute_check(build_mols_graph(ORTHO8_FAMILY))
    assert not commute_check(build_mosls_graph(ORTHO8_FAMILY))


def _times_blocks(A, shape):
    """A @ B with the block layer B of the shape, as commute_check forms
    it: the label product B @ A.T of the block labels, transposed."""
    return _label_product(list(_classes(_block_labels(shape))), A.T).T


# Shapes with q = r and with q != r up to order 12; for q = 1 the block
# layer is empty.  commute_check reads one block at a time, of up to 12
# cells here, on up to 144 vertices.
RANDOM_SHAPES = [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 3)]


@pytest.mark.parametrize("q, r", RANDOM_SHAPES)
def test_block_sums_match_int64_product_on_random_matrices(q, r):
    shape = SudokuShape(q, r)
    n, nv = shape.order, shape.order ** 2
    blocks = block_adjacency(shape).astype(np.int64)
    rng = np.random.default_rng(100 * q + r)
    # the block labels add the block's sum, then take off the row and the
    # column segment's, so every partial count is at most n max|A|
    int16_max = (2**15 - 1) // n  # largest max|A| with n max|A| < 2**15
    for amax in (1, 3, int16_max):
        A = rng.integers(-amax, amax, size=(nv, nv), endpoint=True)
        A[0, -1] = -amax  # max|A| = amax exactly; A is not symmetric
        product = _times_blocks(A, shape)
        assert product.dtype == np.int16 and np.array_equal(product, A @ blocks)
    # commuting with B: a polynomial in B plus a multiple of the all-ones J,
    # which commutes with B as every row of B has (q - 1)(r - 1) ones
    eye = np.eye(nv, dtype=np.int64)
    for _ in range(3):
        a, b, c, d = rng.integers(-3, 3, size=4, endpoint=True)
        A = a * eye + b * blocks + c + d * (blocks @ blocks)
        product = _times_blocks(A, shape)
        assert np.array_equal(product, A @ blocks) and np.array_equal(product, product.T)
    # commute_check on random symmetric 0/1 graphs, and on the 0/1 sums of
    # the disjoint layers I, B and J - I - B, which all commute with B
    for _ in range(3):
        A = np.triu(rng.integers(0, 1, size=(nv, nv), endpoint=True), 1)
        A += A.T
        expected = A @ blocks
        assert np.array_equal(_times_blocks(A, shape), expected)
        assert commute_check(CellGraph(shape, (), "mols", A)) == np.array_equal(expected, expected.T)
    for a, b, c in np.ndindex(2, 2, 2):
        A = a * eye + b * blocks + c * (1 - eye - blocks)
        assert np.array_equal(_times_blocks(A, shape), A @ blocks)
        assert commute_check(CellGraph(shape, (), "mols", A))
    # non-symmetric 0/1 graphs are judged on A @ B: a random one, and the
    # column of B at cell 0 alone, whose A @ B = B e (B e)^T is symmetric
    # while its transpose gives e (B**2 e)^T, symmetric only for q, r <= 2
    # (B**2 = I) or q = 1 (B = 0)
    column = np.outer(blocks[:, 0], eye[0])
    verdicts = []
    for A in (rng.integers(0, 1, size=(nv, nv), endpoint=True), column, column.T):
        expected = A @ blocks
        verdicts.append(np.array_equal(expected, expected.T))
        assert commute_check(CellGraph(shape, (), "mols", A)) == verdicts[-1]
    assert verdicts[1] and verdicts[2] == (max(q, r) <= 2 or q == 1)


def test_cell_graph_refuses_a_wrong_shape_and_stores_uint8():
    shape = SudokuShape(2, 2)
    # the shape is checked before the entries
    for bad_shape in ((16, 15), (4, 4), (256,), (16, 16, 1)):
        with pytest.raises(ValueError, match=r"^adjacency has shape .*needs \(16, 16\)$"):
            CellGraph(shape, (), "mols", np.full(bad_shape, 7, dtype=np.int64))
    # a uint8 adjacency is kept, not copied; other 0/1 arrays become uint8
    built = build_mols_graph(FOUR_FAMILY)
    A = built.adjacency
    assert CellGraph(shape, built.squares, "mols", A).adjacency is A
    for dtype in (bool, np.int8, np.int64, np.float64):
        g = CellGraph(shape, built.squares, "mols", A.astype(dtype), built.labels)
        assert g.adjacency.dtype == np.uint8 and np.array_equal(g.adjacency, A)
        assert commute_check(g) and srg_check(g) == (16, 12, 8, 12)


def test_srg_check_reads_every_pair():
    # K4 beside two copies of K3,3 is 3-regular, and every pair at vertex
    # 1 (in the K4) reads lam = 2 and mu = 0, but adjacent pairs in a K3,3
    # have no common neighbour
    A = np.zeros((16, 16), dtype=np.uint8)
    A[:4, :4] = 1
    for start in (4, 10):
        A[start:start + 3, start + 3:start + 6] = 1
        A[start + 3:start + 6, start:start + 3] = 1
    np.fill_diagonal(A, 0)
    # E_a - E_c: a joins the K4 and each K3,3's six cells, and c takes out
    # the pairs inside each side of a K3,3 (its K4 cells are singletons)
    a = np.repeat([0, 1, 2], [4, 6, 6])
    c = np.concatenate([np.arange(4), np.repeat([4, 5, 6, 7], 3)])
    labels = [(1, a), (-1, c)]
    assert np.array_equal(label_adjacency(labels), A)
    assert srg_check(CellGraph(SudokuShape(2, 2), (), "mols", A, labels)) is None
    assert _srg_reference(A) is None
    # the friendship graph: four triangles share the centre, cell 8.  Every
    # distinct pair, adjacent or not, has one common neighbour, so lam =
    # mu = 1 holds on every pair and only the degrees, 2 and 8, refuse it
    W = np.zeros((9, 9), dtype=np.uint8)
    W[8, :8] = W[:8, 8] = 1
    for leaf in range(0, 8, 2):
        W[leaf, leaf + 1] = W[leaf + 1, leaf] = 1
    off = ~np.eye(9, dtype=bool)
    assert (W.astype(np.int64) @ W)[off].tolist() == [1] * 72
    # K9, less the pairs of leaves, plus the pairs inside a triangle
    leaves = (np.arange(9) < 8).astype(np.int64)
    triangles = np.arange(9) // 2
    friendship = [(1, np.zeros(9, dtype=np.int64)), (-1, leaves), (1, triangles)]
    assert np.array_equal(label_adjacency(friendship), W)
    assert srg_check(CellGraph(SudokuShape(1, 3), (), "mols", W, friendship)) is None
    assert _srg_reference(W) is None
    # four copies of K4 are strongly regular: one label
    cliques = np.kron(np.eye(4, dtype=np.uint8), np.ones((4, 4), dtype=np.uint8))
    np.fill_diagonal(cliques, 0)
    params = srg_check(CellGraph(SudokuShape(2, 2), (), "mols", cliques, [(1, np.arange(16) // 4)]))
    assert params == _srg_reference(cliques) == (16, 3, 2, 0)


def test_srg_check_needs_labels_that_give_the_adjacency():
    g = build_mols_graph(FOUR_FAMILY)
    with pytest.raises(ValueError, match="has none"):
        srg_check(CellGraph(g.shape, g.squares, "mols", g.adjacency))
    # a square left out, a square counted twice, a sign turned, a loop the
    # labels cannot give: none gets a verdict, not even None
    rows, cols, first, second = (label for _, label in g.labels)
    loop = g.adjacency.copy()
    loop[3, 3] = 1
    for adjacency, labels in [
        (g.adjacency, [(1, rows), (1, cols), (1, first)]),
        (g.adjacency, [*g.labels, (1, second)]),
        (g.adjacency, [(1, rows), (1, cols), (1, first), (-1, second)]),
        (loop, g.labels),
    ]:
        assert not np.array_equal(label_adjacency(labels), adjacency)
        with pytest.raises(ValueError, match="do not give its adjacency"):
            srg_check(CellGraph(g.shape, g.squares, "mols", adjacency, labels))
    # the path 1-2-3-4 is not regular, and the labels give only 1-2 and 3-4
    path = np.zeros((4, 4), dtype=np.uint8)
    for u, v in [(0, 1), (1, 2), (2, 3)]:
        path[u, v] = path[v, u] = 1
    with pytest.raises(ValueError, match="do not give its adjacency"):
        srg_check(CellGraph(SudokuShape(1, 2), (), "mols", path, [(1, np.array([0, 0, 1, 1]))]))
    path_labels = [(1, np.array([0, 0, 1, 1])), (1, np.array([0, 1, 1, 2]))]
    assert srg_check(CellGraph(SudokuShape(1, 2), (), "mols", path, path_labels)) is None


def test_srg_check_compares_the_last_slab_with_the_adjacency():
    # the order-12 MOLS graph, three slabs of _CHUNK columns, and one more
    # +1 label that joins only cells 130 and 140, a non-adjacent pair of
    # the last slab: the labels give one edge more than the adjacency
    g = build_mols_graph(composite_mosls([(2, 1, 1), (3, 0, 1)]))
    assert g.num_vertices == 144 > 2 * _CHUNK and 130 // _CHUNK == 140 // _CHUNK == 2
    joined = np.arange(144)
    joined[140] = 130
    labels = [*g.labels, (1, joined)]
    extra = label_adjacency(labels) - g.adjacency
    assert g.adjacency[130, 140] == 0
    assert np.argwhere(extra).tolist() == [[130, 140], [140, 130]]
    with pytest.raises(ValueError, match="do not give its adjacency"):
        srg_check(CellGraph(g.shape, g.squares, "mols", g.adjacency, labels))
    assert srg_check(g) == (144, 44, 16, 12)


def test_cell_graph_and_srg_check_refuse_malformed_labels():
    A = np.zeros((16, 16), dtype=np.uint8)
    shape = SudokuShape(2, 2)
    for sign, label in [(2, np.zeros(16)), (0, np.zeros(16)), (1, np.zeros(15)), (1, np.zeros((4, 4)))]:
        with pytest.raises(ValueError, match="a label is a sign of 1 or -1 and 16 cell values"):
            CellGraph(shape, (), "mols", A, [(sign, label)])
    # one class of 16 cells adds up to 15 to a count, so 2185 such labels
    # could reach 32775, whatever their signs
    one_class = np.zeros(16, dtype=np.int64)
    labels = [(1, one_class), (-1, one_class)] * 1092 + [(1, one_class)]
    with pytest.raises(ValueError, match="reach 32775 in a count, beyond int16"):
        srg_check(CellGraph(shape, (), "mols", A, labels))
    assert srg_check(CellGraph(shape, (), "mols", A, labels[:2])) == (16, 0, 0, 0)


def test_label_product_on_column_slabs_matches_int64_products():
    # the slabs srg_check counts in, joined, against the int64 product:
    # classes of unequal sizes (singletons and one class of every cell
    # among them), signs -1, a non-symmetric X, and a vertex count that is
    # no multiple of the slab width
    rng = np.random.default_rng(20)
    nv = 2 * _CHUNK + 17
    labels = [
        (1, rng.integers(0, 6, size=nv)),
        (-1, rng.integers(0, 50, size=nv)),
        (1, np.minimum(np.arange(nv), 100) // 7),
        (-1, np.zeros(nv, dtype=np.int64)),
    ]
    classes = list(_classes(labels))
    assert {len(members) for _, members, _ in classes} > {1}  # unequal sizes
    M = label_adjacency(labels)
    for X in (rng.integers(0, 1, size=(nv, nv), endpoint=True).astype(np.uint8),
              rng.integers(-3, 3, size=(nv, nv), endpoint=True)):
        assert not np.array_equal(X, X.T)
        slabs = [_label_product(classes, X[:, start:start + _CHUNK]) for start in range(0, nv, _CHUNK)]
        assert [slab.shape for slab in slabs] == [(nv, _CHUNK), (nv, _CHUNK), (nv, 17)]
        assert all(slab.dtype == np.int16 for slab in slabs)
        assert np.array_equal(np.hstack(slabs), M @ X.astype(np.int64))


def test_agreement_counts_over_classes_wider_than_a_part():
    # a class of every cell, and classes of 70 cells: wider than the slabs
    # of graph._CHUNK rows the build sums in; the counts, clamped at 2, and
    # the first pair counted twice against the dense reference
    nv = 2 * _CHUNK + 17
    assert nv - 70 > _CHUNK
    for labels in ([(1, np.zeros(nv, dtype=np.int64))],
                   [(1, np.arange(nv) % 3), (1, np.arange(nv) >= 70), (1, np.arange(nv) // 2)]):
        counts = np.zeros((nv, nv), dtype=np.uint8)
        clash = _add_agreements(counts, labels)
        expected = label_adjacency(labels)
        assert np.array_equal(counts, np.minimum(expected, 2))
        over = np.argwhere(expected > 1)
        assert clash == (tuple(map(int, over[0])) if len(over) else None)


def _corrupted(rng, fam, picked):
    """The family after one to three seeded corruptions of the 1-based
    squares picked, made in int64: two cells of one square swapped, the
    rows of one square permuted, the columns of every square permuted
    alike, one square's symbols shifted uniformly (past uint16 or below 0),
    or relabelled to span more than n values."""
    n = fam.shape.order
    entries = np.array([sq.entries for sq in fam.squares], dtype=np.int64)
    for kind in rng.integers(0, 5, size=rng.integers(1, 4)):
        k = rng.choice(picked) - 1
        if kind == 0:
            (i, j), (a, b) = rng.integers(n, size=(2, 2))
            entries[k, i, j], entries[k, a, b] = entries[k, a, b], entries[k, i, j]
        elif kind == 1:
            entries[k] = entries[k][rng.permutation(n)]
        elif kind == 2:
            entries = entries[:, :, rng.permutation(n)]
        elif kind == 3:
            entries[k] += rng.choice([70000, -5, -70000])
        else:
            entries[k] *= n + 1
    return MoslsFamily(fam.shape, tuple(LatinSquare(e, fam.shape) for e in entries))


@pytest.mark.parametrize("flavor", ["mols", "mosls"])
def test_builds_match_the_one_pass_reference(flavor):
    # seeded families of orders 4 to 27, corrupted or not, on all their
    # squares or a few: the same adjacency as the counts summed in one
    # pass, or the same error, which names the first pair counted twice
    factors = [[(2, 1, 1)], [(2, 1, 0), (3, 0, 1)], [(2, 2, 1)], [(3, 1, 1)], [(2, 0, 1), (5, 1, 0)],
               [(2, 1, 1), (3, 1, 0)], [(3, 1, 0), (5, 0, 1)], [(2, 2, 2)], [(2, 1, 0), (3, 1, 1)],
               [(2, 1, 1), (5, 0, 1)], [(5, 1, 1)], [(3, 1, 2)]]
    families = [composite_mosls(f, order_cap=27) for f in factors]
    assert sorted({fam.shape.order for fam in families}) == [4, 6, 8, 9, 10, 12, 15, 16, 18, 20, 25, 27]
    build = build_mols_graph if flavor == "mols" else build_mosls_graph
    rng = np.random.default_rng(36 if flavor == "mols" else 37)
    outcomes = []
    for _ in range(150):
        fam = families[rng.integers(len(families))]
        size = len(fam) if rng.random() < 0.2 else rng.integers(1, min(len(fam), 3) + 1)
        picked = sorted(rng.choice(len(fam), size=size, replace=False) + 1)
        if rng.random() < 0.8:
            fam = _corrupted(rng, fam, picked)
        adjacency, message = one_pass_build(fam, picked, flavor)
        if message is None:
            assert np.array_equal(build(fam, picked).adjacency, adjacency)
        else:
            with pytest.raises(FamilyStructureError) as exc:
                build(fam, picked)
            assert str(exc.value) == message
        outcomes.append(message.split("; ")[1] if message else "built")
    assert min(Counter(outcomes).values()) >= 20 and len(set(outcomes)) == (2 if flavor == "mols" else 3)


def test_srg_check_counts_joint_classes_of_many_ids():
    # disjoint 4-cycles on 144 cells: a label of quarters less one of
    # halves, compared with the adjacency over three slabs of columns, as
    # are quarters less thirds; 2-regular, adjacent pairs share no
    # neighbour, non-adjacent ones share 2 or 0: no verdict but None, and
    # only once the labels are known to give the adjacency
    cells = np.arange(144)
    labels = [(1, cells // 4), (-1, cells // 2)]
    A = label_adjacency(labels).astype(np.uint8)
    assert set(np.unique(A)) == {0, 1} and (A.sum(axis=1) == 2).all()
    g = CellGraph(SudokuShape(3, 4), (), "mols", A, labels)
    assert srg_check(g) is None and _srg_reference(A) is None
    with pytest.raises(ValueError, match="do not give its adjacency"):
        srg_check(CellGraph(SudokuShape(3, 4), (), "mols", A, [(1, cells // 4), (-1, cells // 3)]))


def test_label_product_reach_bound():
    # a class of c cells adds up to c - 1 to a count, whatever the sign:
    # 2184 labels with one class of all 16 cells and one whose largest
    # class has 8 cells reach 32767, which int16 holds, and an all-ones X
    # reads it on that class; a largest class of 9 cells reaches 32768,
    # refused before any count
    whole = np.zeros(16, dtype=np.int64)
    eight, nine = np.minimum(np.arange(16), 8), np.minimum(np.arange(16), 7)
    labels = [(1, whole)] * 2184 + [(1, eight)]
    ones = np.ones((16, 3), dtype=np.uint8)
    product = _label_product(list(_classes(labels)), ones)
    assert product.max() == 2**15 - 1
    assert np.array_equal(product, label_adjacency(labels) @ ones)
    with pytest.raises(ValueError, match="reach 32768 in a count, beyond int16"):
        _label_product(list(_classes([(1, whole)] * 2184 + [(-1, nine)])), ones)


def test_sudoku_clash_past_the_first_slab_names_the_dense_first_pair():
    # an order-16 Sudoku square with 4 x 4 blocks and rows 5 and 9 swapped
    # stays Latin; its first clash lies past the first graph._CHUNK rows
    # of the counts, which the build scans a slab at a time
    shape = SudokuShape(4, 4)
    i, j = np.indices((16, 16))
    entries = (4 * (i % 4) + i // 4 + j) % 16 + 1
    assert is_sudoku(LatinSquare(entries, shape))
    entries[[5, 9]] = entries[[9, 5]]
    fam = single(LatinSquare(entries, shape))
    u, v = first_sudoku_clash(build_mols_graph(fam).adjacency, shape)
    assert u >= _CHUNK
    with pytest.raises(FamilyStructureError) as exc:
        build_mosls_graph(fam)
    assert str(exc.value) == (
        f"cells ({u // 16 + 1}, {u % 16 + 1}) and ({v // 16 + 1}, {v % 16 + 1}) share a block "
        "and a symbol; some selected square is not Sudoku"
    )


def test_export_formats():
    g = build_mols_graph(single(cyclic_square(2)))
    assert written(edge_lines, g) == "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
    lines = written(matrix_lines, g).splitlines()
    assert lines[0] == "0 1 1 1"
    assert len(lines) == 4
    mosls_graph = build_mosls_graph(FOUR_FAMILY)
    assert written(matrix_lines, mosls_graph) == matrix_text(mosls_graph.adjacency)


# every constructible `table` row of order at most 12, plus a switched
# square whose Latin and block adjacencies do not commute
PRODUCT_CASES = [
    (f"order{order}-type{q}x{r}", composite_mosls(factors))
    for order, q, r, factors, _ in _TABLE_ROWS
    if factors and order <= 12
] + [("nine-switched", single(NINE_SWITCHED))]


def _srg_reference(A):
    """srg_check with a plain int64 product."""
    A = A.astype(np.int64)  # uint8 @ uint8 would wrap at 256
    deg = A.sum(axis=1)
    if deg.min() != deg.max():
        return None
    common = A @ A
    off = ~np.eye(A.shape[0], dtype=bool)
    params = []
    for mask in ((A == 1) & off, (A == 0) & off):
        vals = np.unique(common[mask])
        if vals.size > 1:
            return None
        params.append(int(vals[0]) if vals.size else 0)
    return (A.shape[0], int(deg[0]), *params)


def _quotient_reference(graph):
    """Block quotient with a plain int64 product, or None if not equitable."""
    parts = block_partition(graph.shape)
    indicator = np.zeros((graph.num_vertices, len(parts)), dtype=np.int64)
    for pid, members in enumerate(parts):
        indicator[list(members), pid] = 1
    counts = graph.adjacency.astype(np.int64) @ indicator
    rows = [counts[list(members)] for members in parts]
    if any(not (part_rows == part_rows[0]).all() for part_rows in rows):
        return None
    return np.array([part_rows[0] for part_rows in rows])


@pytest.mark.parametrize("fam", [f for _, f in PRODUCT_CASES], ids=[i for i, _ in PRODUCT_CASES])
def test_counts_match_int64_reference(fam):
    """The label counts of commute_check and srg_check, and the column sums
    of quotient_matrix, against int64 products; no BLAS runs in graph."""
    mols = build_mols_graph(fam).adjacency
    blocks = block_adjacency(fam.shape)
    assert mols.dtype == np.uint8 and blocks.dtype == bool
    wide = mols.astype(np.int64)  # uint8 @ uint8 would wrap at 256
    assert np.array_equal(_times_blocks(mols, fam.shape), wide @ blocks)
    commutes = np.array_equal(wide @ blocks, blocks @ wide)
    assert commute_check(fam) == commutes

    mosls_graph = build_mosls_graph(fam)
    assert mosls_graph.adjacency.dtype == np.uint8
    assert np.array_equal(
        _times_blocks(mosls_graph.adjacency, fam.shape),
        mosls_graph.adjacency.astype(np.int64) @ blocks,
    )
    assert commute_check(build_mols_graph(fam)) == commutes
    assert commute_check(mosls_graph) == commutes
    for g in (build_mols_graph(fam, [1]), build_mols_graph(fam), mosls_graph):
        assert srg_check(g) == _srg_reference(g.adjacency)
        assert np.array_equal(label_adjacency(g.labels), g.adjacency)

    expected = _quotient_reference(mosls_graph)
    if expected is None:
        with pytest.raises(EquitabilityError):
            quotient_matrix(mosls_graph)
    else:
        quo = quotient_matrix(mosls_graph)
        assert quo.entries.dtype == np.int64
        assert np.array_equal(quo.entries, expected)


# the field families of the large-graph inputs: orders 16 and 25, and
# order 27 in both types
FIELD_CASES = {"f16": [(2, 2, 2)], "f25": [(5, 1, 1)], "f27-3x9": [(3, 1, 2)], "f27-9x3": [(3, 2, 1)]}


@pytest.mark.parametrize("factors", FIELD_CASES.values(), ids=FIELD_CASES.keys())
def test_labels_give_the_adjacency_of_field_families(factors):
    fam = composite_mosls(factors, order_cap=27)
    for g in (build_mols_graph(fam), build_mosls_graph(fam)):
        assert np.array_equal(label_adjacency(g.labels), g.adjacency)


def test_cell_graph_refuses_entries_outside_0_1():
    # entries that only a product sized per call could take: 2, 4097 (whose
    # square float32 rounds to an even neighbour), 2**26, and negatives,
    # where np.abs would wrap -2**63 to itself
    shape = SudokuShape(2, 2)
    for dtype, bad in [
        (np.int64, 2),
        (np.int64, 4097),
        (np.int64, 2**26),
        (np.int64, -1),
        (np.int64, -(2**63)),
        (np.float64, 0.5),
        (np.uint8, 2),
        (np.uint8, 255),  # -1 wrapped to uint8
    ]:
        A = np.zeros((16, 16), dtype=dtype)
        A[0, 5] = A[5, 0] = bad
        with pytest.raises(ValueError, match="^adjacency entries must be 0 or 1$"):
            CellGraph(shape, (), "mols", A)


def test_vertex_cap_refuses_before_allocating():
    fam = composite_mosls([(2, 3, 3)], order_cap=64)
    assert fam.shape.order ** 2 > MAX_VERTICES

    def refuse_all():
        with pytest.raises(ValueError, match="dense graph cap"):
            build_mols_graph(fam)
        with pytest.raises(ValueError, match="dense graph cap"):
            block_adjacency(fam.shape)
        with pytest.raises(ValueError, match="dense graph cap"):
            build_mosls_graph(fam)
        with pytest.raises(ValueError, match="dense graph cap"):
            commute_check(fam)
        # a graph refuses its shape before it reads the adjacency
        with pytest.raises(ValueError, match="dense graph cap"):
            CellGraph(fam.shape, (), "mols", np.zeros((1, 1), dtype=np.int64))

    _, peak = peak_traced(refuse_all)
    # one dense 4096 x 4096 int64 array would take 134 MB
    assert peak < 1 << 20


def _dense_peaks_within_pins(fam, subset, srg_params):
    """Build the MOSLS and MOLS graphs of the squares in subset, run
    commute_check (on the graph and on the family of those squares),
    quotient_matrix and srg_check (on the MOLS graph and on that of the
    first square alone) and both exports, pinning each traced peak in
    units of n**4 bytes, one byte per cell pair: the uint8 adjacency takes
    1 and an int64 array 8.  The adjacency is the only n**4-sized array: a
    build holds it, one bool agreement mask of mosls.graph._CHUNK rows and
    the labels' joint codes, the checks and exports slabs of _CHUNK rows or
    columns, or of one block, and the labels' classes (16 bytes per cell
    and label), commute_check(family) also the adjacency it builds, and
    quotient_matrix one part's columns and the int64 counts (8 bytes per
    vertex and part).  Exports write to a stream that discards their
    text.  Returns the MOSLS graph and its block quotient."""
    g, build_peak = peak_traced(lambda: build_mosls_graph(fam, subset))
    units = g.num_vertices ** 2
    assert g.adjacency.dtype == np.uint8
    assert build_peak <= 1.5 * units
    commutes, commute_peak = peak_traced(lambda: commute_check(g))
    assert commutes and commute_peak <= 1 * units
    squares = fam if subset is None else MoslsFamily(fam.shape, tuple(fam.squares[k - 1] for k in subset))
    commutes, family_peak = peak_traced(lambda: commute_check(squares))
    assert commutes and family_peak <= 2 * units
    quotient, quotient_peak = peak_traced(lambda: quotient_matrix(g))
    assert quotient_peak <= 1 * units
    mols, mols_peak = peak_traced(lambda: build_mols_graph(fam, subset))
    assert mols_peak <= 1.5 * units
    params, srg_peak = peak_traced(lambda: srg_check(mols))
    assert params == srg_params and srg_peak <= 1.25 * units
    one = build_mols_graph(fam, [1])
    n = fam.shape.order
    params, one_peak = peak_traced(lambda: srg_check(one))
    assert params == (n * n, 3 * (n - 1), n, 6)  # f = 1 in the parameters above
    assert one_peak <= 1 * units
    for export in (edge_lines, matrix_lines):
        _, export_peak = peak_traced(lambda: export(g, Discard()))
        assert export_peak <= 1 * units
    assert written(matrix_lines, g) == matrix_text(g.adjacency)
    return g, quotient


def test_dense_layer_memory_at_729_vertices():
    field27 = composite_mosls([(3, 1, 2)], order_cap=27)
    f = len(field27)
    srg_params = (729, (f + 2) * 26, 25 + f * (f + 1), (f + 1) * (f + 2))
    g, quotient = _dense_peaks_within_pins(field27, None, srg_params)
    assert g.num_vertices == 729 and f == 18
    # every row of the quotient counts the degree (f + 2)(n - 1) + (q - 1)(r - 1)
    assert (quotient.entries.sum(axis=1) == (f + 2) * 26 + 2 * 8).all()
    assert written(edge_lines, g) == "".join(f"{u} {v}\n" for u, v in edge_list(g.adjacency))
    # one square's graph too, whose text is small next to its adjacency:
    # the export's own arrays, which no dense int64 copy (8 bytes per cell
    # pair) may take
    one = build_mosls_graph(field27, [1])
    _, export_peak = peak_traced(lambda: edge_lines(one, Discard()))
    assert written(edge_lines, one) == "".join(f"{u} {v}\n" for u, v in edge_list(one.adjacency))
    assert export_peak <= 1 * g.num_vertices ** 2


def test_dense_layer_at_the_vertex_cap():
    fam = composite_mosls([(7, 1, 1)], order_cap=49)
    # the MOLS graph of f = 2 squares: (n**2, (f + 2)(n - 1), n - 2 + f(f + 1), (f + 1)(f + 2))
    g, quotient = _dense_peaks_within_pins(fam, [1, 2], (MAX_VERTICES, 4 * 48, 47 + 6, 12))
    assert g.num_vertices == MAX_VERTICES
    assert (g.adjacency.sum(axis=1) == 4 * 48 + 6 * 6).all()  # (f + 2)(n - 1) + (q - 1)(r - 1)
    # diagonal qr - 1, same block-row r + f, same block-column q + f, else f
    band, stack = np.divmod(np.arange(49), 7)
    same_line = (band[:, None] == band[None, :]) | (stack[:, None] == stack[None, :])
    expected = np.where(same_line, 7 + 2, 2)
    np.fill_diagonal(expected, 48)
    assert np.array_equal(quotient.entries, expected)
    # the MOLS graph of all f = 42 squares: 44 labels, the most at the cap
    every = build_mols_graph(fam)
    f = len(fam)
    params, peak = peak_traced(lambda: srg_check(every))
    assert f == 42 and params == (MAX_VERTICES, (f + 2) * 48, 47 + f * (f + 1), (f + 1) * (f + 2))
    assert peak <= 1 * MAX_VERTICES ** 2


def test_graph_without_edges_exports_no_line():
    g = build_mols_graph(single(cyclic_square(1)))
    assert g.num_vertices == 1
    assert srg_check(g) == (1, 0, 0, 0)  # no pair of either kind
    assert edge_list(g.adjacency) == [] and written(edge_lines, g) == ""
    assert written(matrix_lines, g) == matrix_text(g.adjacency) == "0\n"


def test_edge_list_and_lines_agree():
    g = build_mosls_graph(FOUR_FAMILY)
    edges = edge_list(g.adjacency)
    assert all(type(u) is int and type(v) is int for u, v in edges)
    assert edges == sorted(edges) and all(u < v for u, v in edges)
    assert len(edges) == g.adjacency.sum() // 2
    assert written(edge_lines, g) == "".join(f"{u} {v}\n" for u, v in edges)
