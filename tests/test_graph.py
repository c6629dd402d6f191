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
from mosls.designs import is_sudoku, transpose
from mosls.graph import MAX_VERTICES, _times_block_layer, edge_lines, matrix_lines
from fixtures import (
    FOUR_FAMILY,
    FOUR_PRINTED_ADJACENCY,
    NINE,
    NINE_SWITCHED,
    REMARK4,
    SIX,
    cyclic_square,
    peak_traced,
    single,
)
from graph_reference import block_adjacency, edge_list, first_sudoku_clash


def test_order2_graph_is_complete():
    g = build_mols_graph(single(cyclic_square(2)))
    assert g.num_vertices == 4
    assert np.array_equal(g.adjacency, np.ones((4, 4), dtype=np.int64) - np.eye(4))
    assert edge_list(g.adjacency) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_empty_subset_gives_rook_graph():
    g = build_mols_graph(single(cyclic_square(3)), subset=[])
    assert g.family_size == 0
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
    assert numpy_index.family_size == 1
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


def test_mols_graph_rejects_non_orthogonal_pair():
    a = cyclic_square(3)
    b = cyclic_square(3)
    with pytest.raises(FamilyStructureError) as exc:
        build_mols_graph(MoslsFamily(SudokuShape(1, 3), (a, b)))
    msg = str(exc.value)
    assert "symbol in square 1" in msg and "symbol in square 2" in msg


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
    g = CellGraph(SudokuShape(1, 2), 0, "mols", path)
    assert block_partition(g.shape) == ((0, 1), (2, 3))
    with pytest.raises(EquitabilityError, match="part 1"):
        quotient_matrix(g)
    # the partition into ends {0, 3} and middles {1, 2} is equitable; the
    # quotient takes only the blocks, so relabel the path to make the ends
    # cells 0 and 1
    ends_first = [0, 3, 1, 2]
    relabelled = CellGraph(g.shape, 0, "mols", path[np.ix_(ends_first, ends_first)])
    quo = quotient_matrix(relabelled)
    assert quo.entries.tolist() == [[0, 1], [1, 1]]
    # the parts are always the blocks, and they partition the vertex set
    for shape in (SudokuShape(1, 2), SudokuShape(2, 3), SudokuShape(3, 2)):
        nv = shape.order ** 2
        quo = quotient_matrix(CellGraph(shape, 0, "mols", np.zeros((nv, nv), dtype=np.uint8)))
        assert quo.parts == block_partition(shape)
        assert sorted(v for part in quo.parts for v in part) == list(range(nv))
        assert not quo.entries.any()


def test_commute_check():
    assert commute_check(FOUR_FAMILY)
    assert commute_check(single(SIX))
    assert commute_check(single(NINE))
    assert not commute_check(single(NINE_SWITCHED))


# Shapes with q = r and with q != r up to order 9; for q = 1 the block
# layer is empty.
RANDOM_SHAPES = [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3)]


@pytest.mark.parametrize("q, r", RANDOM_SHAPES)
def test_block_sums_match_int64_product_on_random_matrices(q, r):
    shape = SudokuShape(q, r)
    n, nv = shape.order, shape.order ** 2
    blocks = block_adjacency(shape).astype(np.int64)
    rng = np.random.default_rng(100 * q + r)
    int16_max = (2**15 - 1) // n  # largest max|A| with n max|A| < 2**15
    for amax in (1, 3, int16_max):
        A = rng.integers(-amax, amax, size=(nv, nv), endpoint=True)
        A[0, -1] = -amax  # max|A| = amax exactly; A is not symmetric
        product = _times_block_layer(A, shape)
        assert product.dtype == np.int16 and np.array_equal(product, A @ blocks)
    # commuting with B: a polynomial in B plus a multiple of the all-ones J,
    # which commutes with B as every row of B has (q - 1)(r - 1) ones
    eye = np.eye(nv, dtype=np.int64)
    for _ in range(3):
        a, b, c, d = rng.integers(-3, 3, size=4, endpoint=True)
        A = a * eye + b * blocks + c + d * (blocks @ blocks)
        product = _times_block_layer(A, shape)
        assert np.array_equal(product, A @ blocks) and np.array_equal(product, product.T)
    # commute_check on random symmetric 0/1 graphs, and on the 0/1 sums of
    # the disjoint layers I, B and J - I - B, which all commute with B
    for _ in range(3):
        A = np.triu(rng.integers(0, 1, size=(nv, nv), endpoint=True), 1)
        A += A.T
        expected = A @ blocks
        assert np.array_equal(_times_block_layer(A, shape), expected)
        assert commute_check(CellGraph(shape, 0, "mols", A)) == np.array_equal(expected, expected.T)
    for a, b, c in np.ndindex(2, 2, 2):
        A = a * eye + b * blocks + c * (1 - eye - blocks)
        assert np.array_equal(_times_block_layer(A, shape), A @ blocks)
        assert commute_check(CellGraph(shape, 0, "mols", A))


def test_cell_graph_refuses_a_wrong_shape_and_stores_uint8():
    shape = SudokuShape(2, 2)
    # the shape is checked before the entries
    for bad_shape in ((16, 15), (4, 4), (256,), (16, 16, 1)):
        with pytest.raises(ValueError, match=r"^adjacency has shape .*needs \(16, 16\)$"):
            CellGraph(shape, 0, "mols", np.full(bad_shape, 7, dtype=np.int64))
    # a uint8 adjacency is kept, not copied; other 0/1 arrays become uint8
    A = build_mols_graph(FOUR_FAMILY).adjacency
    assert CellGraph(shape, 2, "mols", A).adjacency is A
    for dtype in (bool, np.int8, np.int64, np.float64):
        g = CellGraph(shape, 2, "mols", A.astype(dtype))
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
    assert srg_check(CellGraph(SudokuShape(2, 2), 0, "mols", A)) is None
    assert _srg_reference(A) is None
    # four copies of K4 are strongly regular
    cliques = np.kron(np.eye(4, dtype=np.uint8), np.ones((4, 4), dtype=np.uint8))
    np.fill_diagonal(cliques, 0)
    params = srg_check(CellGraph(SudokuShape(2, 2), 0, "mols", cliques))
    assert params == _srg_reference(cliques) == (16, 3, 2, 0)


def test_export_formats():
    g = build_mols_graph(single(cyclic_square(2)))
    assert edge_lines(g) == "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
    lines = matrix_lines(g).splitlines()
    assert lines[0] == "0 1 1 1"
    assert len(lines) == 4


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
def test_blas_products_match_int64_reference(fam):
    mols = build_mols_graph(fam).adjacency
    blocks = block_adjacency(fam.shape)
    assert mols.dtype == np.uint8 and blocks.dtype == bool
    wide = mols.astype(np.int64)  # uint8 @ uint8 would wrap at 256
    assert np.array_equal(_times_block_layer(mols, fam.shape), wide @ blocks)
    commutes = np.array_equal(wide @ blocks, blocks @ wide)
    assert commute_check(fam) == commutes

    mosls_graph = build_mosls_graph(fam)
    assert mosls_graph.adjacency.dtype == np.uint8
    assert np.array_equal(
        _times_block_layer(mosls_graph.adjacency, fam.shape),
        mosls_graph.adjacency.astype(np.int64) @ blocks,
    )
    assert commute_check(build_mols_graph(fam)) == commutes
    assert commute_check(mosls_graph) == commutes
    for g in (build_mols_graph(fam, [1]), build_mols_graph(fam), mosls_graph):
        assert srg_check(g) == _srg_reference(g.adjacency)

    expected = _quotient_reference(mosls_graph)
    if expected is None:
        with pytest.raises(EquitabilityError):
            quotient_matrix(mosls_graph)
    else:
        quo = quotient_matrix(mosls_graph)
        assert quo.entries.dtype == np.int64
        assert np.array_equal(quo.entries, expected)


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
            CellGraph(shape, 0, "mols", A)


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
            CellGraph(fam.shape, 0, "mols", np.zeros((1, 1), dtype=np.int64))

    _, peak = peak_traced(refuse_all)
    # one dense 4096 x 4096 int64 array would take 134 MB
    assert peak < 1 << 20


def _dense_peaks_within_pins(fam, subset, srg_params):
    """Build the MOSLS and MOLS graphs of the squares in subset and run
    commute_check, quotient_matrix and srg_check on them, pinning each
    traced peak in units of n**4 bytes, one byte per cell pair: an int64
    array takes 8.  A build holds the uint8 adjacency and one bool buffer
    (the block layer is written per block, on n**3 pairs), commute_check
    an int16 product and its bool symmetry test, quotient_matrix one
    part's columns and the int64 counts (8 bytes per vertex and part), and
    srg_check one float32 copy of the adjacency and the float32 product.  Returns the MOSLS graph and its block quotient."""
    g, build_peak = peak_traced(lambda: build_mosls_graph(fam, subset))
    units = g.num_vertices ** 2
    assert g.adjacency.dtype == np.uint8
    assert build_peak <= 2.5 * units
    commutes, commute_peak = peak_traced(lambda: commute_check(g))
    assert commutes and commute_peak <= 4.5 * units
    quotient, quotient_peak = peak_traced(lambda: quotient_matrix(g))
    assert quotient_peak <= 1 * units
    mols, mols_peak = peak_traced(lambda: build_mols_graph(fam, subset))
    assert mols_peak <= 2.5 * units
    params, srg_peak = peak_traced(lambda: srg_check(mols))
    assert params == srg_params and srg_peak <= 8.5 * units
    return g, quotient


def test_dense_layer_memory_at_729_vertices():
    field27 = composite_mosls([(3, 1, 2)], order_cap=27)
    f = len(field27)
    srg_params = (729, (f + 2) * 26, 25 + f * (f + 1), (f + 1) * (f + 2))
    g, quotient = _dense_peaks_within_pins(field27, None, srg_params)
    assert g.num_vertices == 729 and f == 18
    # every row of the quotient counts the degree (f + 2)(n - 1) + (q - 1)(r - 1)
    assert (quotient.entries.sum(axis=1) == (f + 2) * 26 + 2 * 8).all()
    # one square keeps the output text small next to the adjacency, so the
    # peak measures the export's own arrays, which no dense int64 copy
    # (8 bytes per cell pair) may take
    one = build_mosls_graph(field27, [1])
    text, export_peak = peak_traced(lambda: edge_lines(one))
    assert text == "".join(f"{u} {v}\n" for u, v in edge_list(one.adjacency))
    assert export_peak <= 4 * g.num_vertices ** 2


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


def test_graph_without_edges_exports_no_line():
    g = build_mols_graph(single(cyclic_square(1)))
    assert g.num_vertices == 1
    assert srg_check(g) == (1, 0, 0, 0)  # no pair of either kind
    assert edge_list(g.adjacency) == [] and edge_lines(g) == ""


def test_edge_list_and_lines_agree():
    g = build_mosls_graph(FOUR_FAMILY)
    edges = edge_list(g.adjacency)
    assert all(type(u) is int and type(v) is int for u, v in edges)
    assert edges == sorted(edges) and all(u < v for u, v in edges)
    assert len(edges) == g.adjacency.sum() // 2
    assert edge_lines(g) == "".join(f"{u} {v}\n" for u, v in edges)
