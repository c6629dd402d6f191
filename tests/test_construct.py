import numpy as np
import pytest

from mosls import gf
from mosls import (
    MoslsFamily,
    OrderCapError,
    SudokuShape,
    composite_count,
    composite_mosls,
    field_square,
    is_block_permutational,
    is_latin,
    is_sudoku,
    product,
)
from mosls.designs import LatinSquare
from designs_reference import family_pairwise_orthogonal


def assert_coset_bands(ctx, size):
    """The canonical order, cut into consecutive bands of `size` elements,
    lists the additive cosets of the subgroup {0, ..., size - 1}; returns
    the bands."""
    base = np.arange(size)
    assert set(ctx.add[:size, :size].ravel().tolist()) == set(range(size))
    bands = np.arange(ctx.size).reshape(-1, size)
    for band in bands:
        assert sorted(ctx.add[band[0], base].tolist()) == band.tolist()
    return bands.tolist()


def test_spec_validation():
    fam = composite_mosls([(2, 1, 2)])
    assert (fam.shape.q, fam.shape.r, fam.shape.order) == (2, 4, 8)
    with pytest.raises(ValueError):
        composite_mosls([(4, 1, 1)])
    with pytest.raises(ValueError):
        composite_mosls([(2, 0, 0)])
    with pytest.raises(ValueError):
        composite_mosls([(2, -1, 2)])


def test_coset_partition_gf4():
    # type (2, 2): q-row bands and r-column bands of GF(4)
    ctx = gf.make_field(2, 2)
    assert assert_coset_bands(ctx, 2) == [[0, 1], [2, 3]]


def test_coset_partition_gf9_base():
    ctx = gf.make_field(3, 2)
    bands = assert_coset_bands(ctx, 3)
    assert bands[0] == [0, 1, 2]
    assert len(bands) == 3 and len(bands[0]) == 3
    assert sorted(x for band in bands for x in band) == list(range(9))


def test_coset_partition_gf8_asymmetric():
    # type (4, 2): row bands have q = 4 elements, column bands r = 2
    ctx = gf.make_field(2, 3)
    rows = assert_coset_bands(ctx, 4)
    cols = assert_coset_bands(ctx, 2)
    assert [len(c) for c in rows] == [4, 4]
    assert [len(c) for c in cols] == [2, 2, 2, 2]
    assert rows[0] == [0, 1, 2, 3]  # span of degrees < 2
    assert cols[0] == [0, 1]


def test_coset_partition_rejects_mismatched_context():
    # a field square has one row and one column per field element
    with pytest.raises(ValueError):
        field_square(gf.make_field(2, 3), 2, SudokuShape(2, 2))


# hand-computed squares x - a*y over GF(4) with rows/cols 0,1,t,t+1
GF4_SQUARE_T = [[1, 3, 4, 2], [2, 4, 3, 1], [3, 1, 2, 4], [4, 2, 1, 3]]
GF4_SQUARE_T1 = [[1, 4, 2, 3], [2, 3, 1, 4], [3, 2, 4, 1], [4, 1, 3, 2]]
GF4_SQUARE_ONE = [[1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 1, 2], [4, 3, 2, 1]]


def test_field_square_gf4_values():
    ctx = gf.make_field(2, 2)
    t = 2
    sq = field_square(ctx, t, SudokuShape(2, 2))
    assert sq.entries.tolist() == GF4_SQUARE_T
    assert is_sudoku(sq)


def test_field_square_degree_gate():
    # multiplier of degree 0 yields a Latin square that is not Sudoku
    ctx = gf.make_field(2, 2)
    shape = SudokuShape(2, 2)
    sq = field_square(ctx, 1, shape)
    assert sq.entries.tolist() == GF4_SQUARE_ONE
    assert is_latin(sq) and not is_sudoku(sq)
    for a in (0, 4, -1):
        with pytest.raises(ValueError):
            field_square(ctx, a, shape)


def test_field_mosls_order4():
    fam = composite_mosls([(2, 1, 1)])
    assert fam.shape == SudokuShape(2, 2) and len(fam) == 2
    assert fam.squares[0].entries.tolist() == GF4_SQUARE_T
    assert fam.squares[1].entries.tolist() == GF4_SQUARE_T1
    assert family_pairwise_orthogonal(fam)
    assert all(is_block_permutational(sq) for sq in fam)


def test_field_mosls_order9():
    fam = composite_mosls([(3, 1, 1)])
    assert fam.shape == SudokuShape(3, 3) and len(fam) == 6
    assert family_pairwise_orthogonal(fam)
    assert all(is_block_permutational(sq) for sq in fam)


def test_field_mosls_order8_transposed_orientation():
    # m < n realises the max(q, r)*(p-1) count by transposition
    fam = composite_mosls([(2, 1, 2)])
    assert fam.shape == SudokuShape(2, 4) and len(fam) == 4
    assert family_pairwise_orthogonal(fam)
    assert all(is_block_permutational(sq) for sq in fam)
    tall = composite_mosls([(2, 2, 1)])
    assert tall.shape == SudokuShape(4, 2) and len(tall) == 4
    assert [sq.entries.tolist() for sq in fam] == [
        sq.entries.T.tolist() for sq in tall
    ]


def test_mosls_count_values():
    assert composite_count([(2, 1, 1)]) == 2
    assert composite_count([(3, 1, 1)]) == 6
    assert composite_count([(2, 1, 2)]) == 4
    assert composite_count([(2, 2, 2)]) == 4
    assert composite_count([(2, 2, 0)]) == 3  # plain MOLS count p**k - 1
    assert composite_count([(3, 0, 2)]) == 8


def test_plain_mols_order2():
    fam = composite_mosls([(2, 0, 1)])
    assert fam.shape == SudokuShape(1, 2) and len(fam) == 1
    assert fam.squares[0].entries.tolist() == [[1, 2], [2, 1]]


def test_plain_mols_order3():
    fam = composite_mosls([(3, 0, 1)])
    assert len(fam) == 2
    assert fam.squares[0].entries.tolist() == [[1, 3, 2], [2, 1, 3], [3, 2, 1]]
    assert fam.squares[1].entries.tolist() == [[1, 2, 3], [2, 3, 1], [3, 1, 2]]
    assert family_pairwise_orthogonal(fam)


def test_plain_mols_order4_and_7():
    fam4 = composite_mosls([(2, 0, 2)])
    assert fam4.shape == SudokuShape(1, 4) and len(fam4) == 3
    assert family_pairwise_orthogonal(fam4)
    fam7 = composite_mosls([(7, 0, 1)])
    assert len(fam7) == 6
    assert family_pairwise_orthogonal(fam7)
    assert all(is_latin(sq) for sq in fam7)


def test_per_prime_family_orientations():
    assert composite_mosls([(2, 1, 1)]).shape == SudokuShape(2, 2)
    flat = composite_mosls([(3, 0, 1)])
    assert flat.shape == SudokuShape(1, 3) and len(flat) == 2
    tall = composite_mosls([(3, 1, 0)])
    assert tall.shape == SudokuShape(3, 1) and len(tall) == 2
    assert tall.squares[0].entries.tolist() == np.array(
        flat.squares[0].entries
    ).T.tolist()


def test_product_with_trivial_factor_is_identity():
    fam = composite_mosls([(2, 1, 1)])
    trivial = MoslsFamily(
        SudokuShape(1, 1), (LatinSquare([[1]], SudokuShape(1, 1)),)
    )
    prod = product(fam, trivial)
    assert prod.shape == fam.shape and len(prod) == 1
    assert prod.squares[0] == fam.squares[0]


def test_product_order6():
    f2 = composite_mosls([(2, 1, 1)])  # type (2,2), 2 squares
    f3 = composite_mosls([(3, 0, 1)])  # type (1,3), 2 squares
    prod = product(f2, f3)
    assert prod.shape == SudokuShape(2, 6) and len(prod) == 2
    assert family_pairwise_orthogonal(prod)
    assert all(is_sudoku(sq) for sq in prod)


def test_product_size_is_min():
    f2 = composite_mosls([(2, 1, 1)])  # 2 squares
    f9 = composite_mosls([(3, 1, 1)])  # 6 squares
    with pytest.raises(OrderCapError):
        composite_mosls([(2, 1, 1), (3, 1, 1)])  # order 36
    prod = product(f2, f9)
    assert len(prod) == 2
    assert prod.shape == SudokuShape(6, 6)


def test_composite_count():
    assert composite_count([(2, 1, 1), (3, 0, 1)]) == 2
    assert composite_count([(2, 1, 0), (3, 0, 1)]) == 1
    assert composite_count([(3, 1, 0), (2, 0, 2)]) == 2
    with pytest.raises(ValueError):
        composite_count([(2, 1, 1), (2, 0, 1)])
    with pytest.raises(ValueError):
        composite_count([])


def test_composite_mosls_order6():
    fam = composite_mosls([(2, 1, 0), (3, 0, 1)])
    assert fam.shape == SudokuShape(2, 3) and len(fam) == 1
    assert is_sudoku(fam.squares[0])
    fam26 = composite_mosls([(2, 1, 1), (3, 0, 1)])
    assert fam26.shape == SudokuShape(2, 6) and len(fam26) == 2
    assert family_pairwise_orthogonal(fam26)
    assert all(is_sudoku(sq) for sq in fam26)


def test_composite_mosls_sorts_factors_by_prime():
    a = composite_mosls([(3, 0, 1), (2, 1, 0)])
    b = composite_mosls([(2, 1, 0), (3, 0, 1)])
    assert a.squares[0] == b.squares[0]


def test_composite_mosls_order12():
    fam = composite_mosls([(3, 1, 0), (2, 0, 2)])
    assert fam.shape == SudokuShape(3, 4) and len(fam) == 2
    assert family_pairwise_orthogonal(fam)
    assert all(is_sudoku(sq) for sq in fam)


def test_order_cap():
    with pytest.raises(OrderCapError):
        composite_mosls([(2, 3, 2)])  # order 32
    with pytest.raises(OrderCapError):
        composite_mosls([(17, 0, 1)])
    assert len(composite_mosls([(17, 0, 1)], order_cap=17)) == 16
    fam = composite_mosls([(2, 1, 0), (3, 1, 1)], order_cap=18)
    assert fam.shape == SudokuShape(6, 3)


def test_composite_mosls_rejects_bad_factors():
    with pytest.raises(ValueError):
        composite_mosls([])
    with pytest.raises(ValueError):
        composite_mosls([(2, 1, 1), (2, 0, 1)])


@pytest.mark.parametrize(
    "p,m,n",
    [(2, 1, 1), (3, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (13, 0, 1)],
)
def test_families_valid_sweep(p, m, n):
    fam = composite_mosls([(p, m, n)])
    assert len(fam) == composite_count([(p, m, n)])
    assert family_pairwise_orthogonal(fam)
    for sq in fam:
        assert is_sudoku(sq)
        assert is_block_permutational(sq)
