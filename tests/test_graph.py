import tracemalloc

import numpy as np
import pytest

from mosls import (
    CellGraph,
    EquitabilityError,
    FamilyStructureError,
    MoslsFamily,
    SudokuShape,
    block_partition,
    build_mols_graph,
    build_mosls_graph,
    commute_check,
    composite_mosls,
    per_prime_family,
    quotient_matrix,
    srg_check,
)
from mosls.cli import _TABLE_ROWS
from mosls.graph import (
    MAX_VERTICES,
    _block_adjacency,
    _exact_matmul,
    edge_lines,
    edge_list,
    matrix_lines,
)
from fixtures import (
    FOUR_FAMILY,
    FOUR_PRINTED_ADJACENCY,
    NINE,
    NINE_SWITCHED,
    REMARK4,
    SIX,
    cyclic_square,
    single,
)


def test_order2_graph_is_complete():
    g = build_mols_graph(single(cyclic_square(2)))
    assert g.num_vertices == 4
    assert np.array_equal(g.adjacency, np.ones((4, 4), dtype=np.int64) - np.eye(4))
    assert edge_list(g) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_empty_subset_gives_rook_graph():
    g = build_mols_graph(single(cyclic_square(3)), subset=[])
    assert g.family_size == 0
    assert srg_check(g) == (9, 4, 1, 2)


def test_subset_validation():
    with pytest.raises(ValueError, match="outside"):
        build_mols_graph(FOUR_FAMILY, subset=[3])
    with pytest.raises(ValueError, match="outside"):
        build_mols_graph(FOUR_FAMILY, subset=[0])


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
    path = np.zeros((4, 4), dtype=np.int64)
    for u, v in [(0, 1), (1, 2), (2, 3)]:
        path[u, v] = path[v, u] = 1
    g = CellGraph(SudokuShape(1, 2), 0, "mols", path)
    with pytest.raises(EquitabilityError, match="part 1"):
        quotient_matrix(g, parts=[(0, 1), (2, 3)])
    quo = quotient_matrix(g, parts=[(0, 3), (1, 2)])
    assert quo.entries.tolist() == [[0, 1], [1, 1]]
    with pytest.raises(ValueError, match="partition"):
        quotient_matrix(g, parts=[(0, 1), (1, 2, 3)])
    # a vertex outside 0..3, a non-integer, an empty part
    for parts in ([(0, 1), (2, 3, 4)], [(0, 1), (2, 3.0)], [(0, 1), (), (2, 3)]):
        with pytest.raises(ValueError, match="parts must partition the vertex set"):
            quotient_matrix(g, parts=parts)


def test_commute_check():
    assert commute_check(FOUR_FAMILY)
    assert commute_check(single(SIX))
    assert commute_check(single(NINE))
    assert not commute_check(single(NINE_SWITCHED))


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
    counts = graph.adjacency @ indicator
    rows = [counts[list(members)] for members in parts]
    if any(not (part_rows == part_rows[0]).all() for part_rows in rows):
        return None
    return np.array([part_rows[0] for part_rows in rows])


@pytest.mark.parametrize("fam", [f for _, f in PRODUCT_CASES], ids=[i for i, _ in PRODUCT_CASES])
def test_blas_products_match_int64_reference(fam):
    mols = build_mols_graph(fam).adjacency
    blocks = _block_adjacency(fam.shape)
    assert np.array_equal(_exact_matmul(mols, blocks), mols @ blocks)
    assert np.array_equal(_exact_matmul(blocks, mols), blocks @ mols)
    commutes = np.array_equal(mols @ blocks, blocks @ mols)
    assert commute_check(fam) == commutes

    mosls_graph = build_mosls_graph(fam)
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


def test_exact_matmul_bound():
    big = np.array([[2**26]], dtype=np.int64)
    product = _exact_matmul(big, big)
    assert product.dtype == np.int64 and product.tolist() == [[2**52]]
    with pytest.raises(ValueError, match="2\\*\\*53"):
        _exact_matmul(np.array([[2**27]]), np.array([[2**27]]))
    # two terms of 2**52 reach the bound exactly
    row = np.array([[2**26, 2**26]], dtype=np.int64)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        _exact_matmul(row, row.T)
    # np.abs wraps -2**63 to itself, which would read as a negative max
    with pytest.raises(ValueError, match="2\\*\\*53"):
        _exact_matmul(np.array([[-(2**63)]], dtype=np.int64), np.array([[2]]))


def test_vertex_cap_refuses_before_allocating():
    fam = per_prime_family(2, 3, 3, order_cap=64)
    assert fam.shape.order ** 2 > MAX_VERTICES
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense graph cap"):
            build_mols_graph(fam)
        with pytest.raises(ValueError, match="dense graph cap"):
            _block_adjacency(fam.shape)
        with pytest.raises(ValueError, match="dense graph cap"):
            build_mosls_graph(fam)
        with pytest.raises(ValueError, match="dense graph cap"):
            commute_check(fam)
        # a graph's block layer comes from its shape, refused the same way
        tiny = CellGraph(fam.shape, 0, "mols", np.zeros((1, 1), dtype=np.int64))
        with pytest.raises(ValueError, match="dense graph cap"):
            commute_check(tiny)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one dense 4096 x 4096 int64 array would take 134 MB
    assert peak < 1 << 20


def test_edge_list_and_lines_agree():
    g = build_mosls_graph(FOUR_FAMILY)
    edges = edge_list(g)
    assert all(type(u) is int and type(v) is int for u, v in edges)
    assert edges == sorted(edges) and all(u < v for u, v in edges)
    assert len(edges) == g.adjacency.sum() // 2
    assert edge_lines(g) == "".join(f"{u} {v}\n" for u, v in edges)
