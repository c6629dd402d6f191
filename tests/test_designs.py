from itertools import combinations

import numpy as np
import pytest

from mosls import (
    Block,
    SwitchSpec,
    SwitchValidityError,
    FormatError,
    LatinSquare,
    MoslsFamily,
    SudokuShape,
    are_orthogonal,
    block,
    block_map_factorization,
    composite_mosls,
    format_family,
    is_block_permutational,
    is_latin,
    is_sudoku,
    parse_family,
    sudoku_symbol_switch,
    transpose,
)
from mosls.cli import _TABLE_ROWS
from fixtures import FOUR_A, FOUR_B, FOUR_FAMILY, NINE, REMARK4, cyclic_square


def test_shape_validation():
    assert SudokuShape(2, 3).order == 6
    with pytest.raises(ValueError):
        SudokuShape(0, 3)
    with pytest.raises(ValueError):
        LatinSquare([[1, 2], [2, 1]], SudokuShape(1, 3))
    with pytest.raises(ValueError):
        LatinSquare([[1, 2, 3], [3, 1, 2]], SudokuShape(1, 3))


def test_square_immutable():
    sq = cyclic_square(3)
    with pytest.raises(ValueError):
        sq.entries[0, 0] = 2
    with pytest.raises(AttributeError):
        sq.shape = SudokuShape(3, 1)


def test_is_latin():
    assert is_latin(FOUR_A)
    assert is_latin(cyclic_square(5))
    bad = LatinSquare([[1, 2], [1, 2]], SudokuShape(1, 2))
    assert not is_latin(bad)


def test_is_latin_rejects_out_of_range():
    sq = LatinSquare([[1, 2], [2, 3]], SudokuShape(1, 2))
    with pytest.raises(ValueError, match="outside"):
        is_latin(sq)


def test_is_sudoku():
    assert is_sudoku(NINE)
    assert not is_sudoku(REMARK4)
    assert is_sudoku(cyclic_square(4))  # shape (1, n): blocks are rows
    with pytest.raises(ValueError):
        is_sudoku(LatinSquare([[1, 2], [1, 2]], SudokuShape(1, 2)))


def test_are_orthogonal():
    assert are_orthogonal(FOUR_A, FOUR_B)
    assert not are_orthogonal(FOUR_A, FOUR_A)
    with pytest.raises(ValueError):
        are_orthogonal(FOUR_A, cyclic_square(3))


def test_are_orthogonal_needs_symbols_in_range():
    # the pair codes (a-1)*n + (b-1) are distinct, but (3, 1) and (0, 2)
    # are no pairs of symbols in 1..2, and (1, 2), (2, 1) are missing
    a = LatinSquare([[1, 2], [3, 0]], SudokuShape(1, 2))
    b = LatinSquare([[1, 2], [1, 2]], SudokuShape(1, 2))
    assert not are_orthogonal(a, b)
    assert not are_orthogonal(b, a)
    top = LatinSquare([[1, 2], [2, 3]], SudokuShape(1, 2))
    assert not are_orthogonal(top, LatinSquare([[1, 1], [2, 2]], SudokuShape(1, 2)))


def test_block_indexing():
    b = block(NINE, 1, 1)
    assert np.array_equal(b.cells, [[5, 6, 4], [9, 7, 8], [1, 2, 3]])
    sq = cyclic_square(4)  # shape (1, 4): block (i, 1) is row i
    assert np.array_equal(block(sq, 2, 1).cells, [[2, 3, 4, 1]])
    tall = transpose(sq)  # shape (4, 1): block (1, j) is column j
    assert np.array_equal(block(tall, 1, 2).cells, [[2], [3], [4], [1]])
    with pytest.raises(ValueError):
        block(NINE, 4, 1)
    with pytest.raises(ValueError):
        block(NINE, 1, 0)


def _blk(cells):
    return Block(1, 1, np.array(cells, dtype=np.int64))


def test_block_map_factorization_identity_and_swap():
    m = block(NINE, 1, 1)
    assert block_map_factorization(m, m) == ((0, 1, 2), (0, 1, 2))
    a = _blk([[1, 2], [3, 4]])
    col_swapped = _blk([[2, 1], [4, 3]])
    assert block_map_factorization(a, col_swapped) == ((0, 1), (1, 0))


def test_block_map_factorization_absent():
    a = _blk([[1, 2], [3, 4]])
    twisted = _blk([[1, 4], [3, 2]])
    assert block_map_factorization(a, twisted) is None


def test_block_map_factorization_exhaustive_permutations():
    # every (row perm, col perm) image must factor back
    from itertools import permutations

    base = np.arange(1, 7).reshape(2, 3)
    a = _blk(base.tolist())
    for sigma in permutations(range(2)):
        for tau in permutations(range(3)):
            image = np.empty_like(base)
            for i in range(2):
                for j in range(3):
                    image[sigma[i], tau[j]] = base[i, j]
            got = block_map_factorization(a, _blk(image.tolist()))
            assert got == (tuple(sigma), tuple(tau))


def test_block_map_factorization_input_checks():
    a = _blk([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        block_map_factorization(a, _blk([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ValueError):
        block_map_factorization(a, _blk([[5, 6], [7, 8]]))  # other symbols


def test_is_block_permutational():
    assert is_block_permutational(NINE)
    assert is_block_permutational(cyclic_square(4))
    with pytest.raises(ValueError):
        is_block_permutational(REMARK4)  # not Sudoku


def _block_permutational_reference(L):
    base = block(L, 1, 1)
    return all(
        block_map_factorization(base, block(L, i, j)) is not None
        for i in range(1, L.shape.r + 1)
        for j in range(1, L.shape.q + 1)
    )


def test_is_block_permutational_matches_block_map_reference():
    # the squares of every constructible table row of order <= 12 and all
    # of their valid symbol switches
    squares = []
    for order, q, r, factors, _ in _TABLE_ROWS:
        if not factors or order > 12:
            continue
        for sq in composite_mosls(factors):
            squares.append(sq)
            for kind, bands in (("row-block", r), ("col-block", q)):
                for index in range(1, bands + 1):
                    for pair in combinations(range(1, order + 1), 2):
                        try:
                            squares.append(sudoku_symbol_switch(sq, SwitchSpec(kind, index, pair)))
                        except SwitchValidityError:
                            pass
    verdicts = [is_block_permutational(sq) for sq in squares]
    assert verdicts == [_block_permutational_reference(sq) for sq in squares]
    assert len(squares) == 2282 and verdicts.count(False) == 982


def test_is_sudoku_and_are_orthogonal_match_references():
    # row-shuffled squares of the constructible table rows of order <= 12:
    # still Latin, mostly neither Sudoku nor orthogonal to the original
    rng = np.random.default_rng(5)
    sudoku, orthogonal = [], []
    for order, q, r, factors, _ in _TABLE_ROWS:
        if not factors or order > 12:
            continue
        fam = composite_mosls(factors)
        for sq in fam:
            for rows in [np.arange(order)] + [rng.permutation(order) for _ in range(3)]:
                L = LatinSquare(sq.entries[rows], sq.shape)
                blocks_full = all(
                    np.unique(block(L, i, j).cells).size == order
                    for i in range(1, r + 1)
                    for j in range(1, q + 1)
                )
                sudoku.append(is_sudoku(L))
                assert sudoku[-1] == blocks_full
                codes = (fam.squares[0].entries - 1) * order + (L.entries - 1)
                orthogonal.append(are_orthogonal(fam.squares[0], L))
                assert orthogonal[-1] == (np.unique(codes).size == order * order)
    assert set(sudoku) == {True, False} and set(orthogonal) == {True, False}


def test_transpose():
    t = transpose(NINE)
    assert t.shape == SudokuShape(3, 3)
    assert np.array_equal(t.entries, NINE.entries.T)
    sq = cyclic_square(6, SudokuShape(2, 3))
    assert transpose(sq).shape == SudokuShape(3, 2)
    assert transpose(transpose(sq)) == sq


# ---------------------------------------------------------------------------
# text format


def test_format_roundtrip():
    text = format_family(FOUR_FAMILY)
    lines = text.splitlines()
    assert lines[0] == "mosls v1"
    assert lines[1] == "order 4 type 2 2 count 2"
    assert lines[6] == ""  # blank separator
    assert parse_family(text) == FOUR_FAMILY


def test_parse_rejects_bad_header():
    with pytest.raises(FormatError, match="line 1"):
        parse_family("nope\norder 2 type 1 2 count 1\n1 2\n2 1\n")


def test_parse_rejects_type_order_mismatch():
    with pytest.raises(FormatError, match="line 2"):
        parse_family("mosls v1\norder 4 type 2 3 count 1\n")


def test_parse_rejects_wrong_row_length():
    text = "mosls v1\norder 2 type 1 2 count 1\n1 2\n2\n"
    with pytest.raises(FormatError, match="line 4"):
        parse_family(text)


def test_parse_rejects_out_of_range_symbol():
    text = "mosls v1\norder 2 type 1 2 count 1\n1 3\n2 1\n"
    with pytest.raises(FormatError, match="line 3"):
        parse_family(text)


def test_parse_rejects_trailing_garbage():
    text = "mosls v1\norder 2 type 1 2 count 1\n1 2\n2 1\nextra\n"
    with pytest.raises(FormatError, match="trailing"):
        parse_family(text)


def test_parse_rejects_missing_square():
    text = "mosls v1\norder 2 type 1 2 count 2\n1 2\n2 1\n"
    with pytest.raises(FormatError):
        parse_family(text)


# (square rows of an order-2, two-square file, the first error) when the
# entries are converted all at once: the first failing line is named, and a
# non-integer on it comes before its bad symbols
ENTRY_ERRORS = [
    (["1 2", "2 x", "", "1 2"], "line 4: entries must be integers"),
    (["1 2", "2 1", "", "0 2", "2"], "line 6: symbol 0 outside 1..2"),
    (["1 3", "2 x", "", "1 2", "2 1"], "line 3: symbol 3 outside 1..2"),
    (["3 x", "2 1", "", "1 2", "2 1"], "line 3: entries must be integers"),
    (["1 2", "0 99999999999999999999", "", "1 2", "2 1"], "line 4: symbol 0 outside 1..2"),
    (["1 2", "99999999999999999999 0", "", "1 2", "2 1"], "line 4: symbol 99999999999999999999 outside 1..2"),
    (["1 2", "2 -9223372036854775809"], "line 4: symbol -9223372036854775809 outside 1..2"),
    (["1 2", "2 1", "", "1 2", "2 1", "extra"], "line 8: trailing content after last square"),
    (["1 2", "2 1", "", "1 2", "2 3", "extra"], "line 7: symbol 3 outside 1..2"),
    (["1 2", "2 1", "1 2", "2 1"], "line 5: expected blank line before square 2"),
    (["1 2", "0 1", "1 2", "2 1"], "line 4: symbol 0 outside 1..2"),
    (["1_0 ٢", "٢ 1"], "line 3: symbol 10 outside 1..2"),
]


@pytest.mark.parametrize("rows,message", ENTRY_ERRORS)
def test_parse_names_the_first_failing_line(rows, message):
    text = "\n".join(["mosls v1", "order 2 type 1 2 count 2", *rows]) + "\n"
    with pytest.raises(FormatError) as info:
        parse_family(text)
    assert str(info.value) == message


def test_parse_converts_tokens_as_int_does():
    # int() accepts underscores, signs and non-ASCII decimal digits
    text = "mosls v1\norder 2 type 1 2 count 1\n+1 ٢\n0_2 １\n"
    assert parse_family(text).squares[0].entries.tolist() == [[1, 2], [2, 1]]


def test_family_shape_consistency():
    with pytest.raises(ValueError):
        MoslsFamily(SudokuShape(1, 4), (cyclic_square(4), cyclic_square(3)))
