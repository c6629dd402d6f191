from itertools import combinations

import numpy as np
import pytest

from mosls import (
    SwitchSpec,
    SwitchValidityError,
    FormatError,
    LatinSquare,
    MoslsFamily,
    SudokuShape,
    are_orthogonal,
    composite_mosls,
    format_family,
    is_block_permutational,
    is_latin,
    is_sudoku,
    load_family,
    parse_family,
    product,
    save_family,
    sudoku_symbol_switch,
    transpose,
    write_family,
)
from mosls.cli import _TABLE_ROWS
from designs_reference import Block, block, block_map_factorization, block_permutational_reference, latin_reference
from fixtures import FOUR_A, FOUR_B, FOUR_FAMILY, NINE, REMARK4, Discard, cyclic_square, peak_traced, single


def test_shape_validation():
    assert SudokuShape(2, 3).order == 6
    with pytest.raises(ValueError):
        SudokuShape(0, 3)
    with pytest.raises(ValueError):
        LatinSquare([[1, 2], [2, 1]], SudokuShape(1, 3))
    with pytest.raises(ValueError):
        LatinSquare([[1, 2, 3], [3, 1, 2]], SudokuShape(1, 3))


def test_square_entries_must_be_integers_within_int64():
    # an int64 cast stored [[1, 2], [2, 1]], which is_latin then accepted
    with pytest.raises(ValueError, match="integers"):
        LatinSquare([[1.5, 2.9], [2.2, 1.0]], SudokuShape(1, 2))
    with pytest.raises(ValueError, match="integers"):
        LatinSquare([[2**70, 1], [1, 2**70]], SudokuShape(1, 2))
    assert LatinSquare([[1.0, 2.0], [2.0, 1.0]], SudokuShape(1, 2)) == cyclic_square(2)


def test_square_immutable():
    sq = cyclic_square(3)
    with pytest.raises(ValueError):
        sq.entries[0, 0] = 2
    with pytest.raises(AttributeError):
        sq.shape = SudokuShape(3, 1)
    # an int64 input is copied, so the caller cannot write through it
    arr = np.array([[1, 2], [2, 1]], dtype=np.int64)
    sq = LatinSquare(arr, SudokuShape(1, 2))
    arr[0, 0] = 2
    assert sq.entries[0, 0] == 1 and not sq.entries.flags.writeable


@pytest.mark.parametrize(
    "high,dtype", [(255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, np.int64), (-1, np.int64)]
)
def test_square_holds_the_narrowest_dtype(high, dtype):
    sq = LatinSquare([[1, high], [high, 1]], SudokuShape(1, 2))
    assert sq.entries.dtype == dtype and sq.entries.tolist() == [[1, high], [high, 1]]
    # a square that is not Latin stays diagnosable
    with pytest.raises(ValueError, match=f"^symbol {high} at row 1, column 2 outside 1..2$"):
        is_latin(sq)
    assert not are_orthogonal(sq, cyclic_square(2))


@pytest.mark.parametrize("n,dtype", [(255, np.uint8), (256, np.uint16)])
def test_parsed_square_holds_the_narrowest_dtype(n, dtype):
    fam = parse_family(format_family(single(cyclic_square(n))))
    assert fam.squares[0].entries.dtype == dtype and fam.squares[0] == cyclic_square(n)


def test_symbol_arithmetic_runs_in_intp():
    # pair codes reach n**2 - 1, beyond uint8 from order 17 on
    a, b = composite_mosls([(17, 0, 1)], order_cap=17).squares[:2]
    assert a.entries.dtype == b.entries.dtype == np.uint8 and are_orthogonal(a, b)
    # the product of uint8 squares of orders 16 and 17 has symbols up to 272
    got = product(single(cyclic_square(16)), single(cyclic_square(17))).squares[0]
    # its line 17*i + j pairs line i of the order-16 square and line j of the other
    i, j = np.divmod(np.arange(272), 17)
    first = (i[:, None] + i[None, :]) % 16 + 1
    second = (j[:, None] + j[None, :]) % 17 + 1
    assert got.entries.dtype == np.uint16
    assert np.array_equal(got.entries, 1 + (first - 1) * 17 + (second - 1)) and is_latin(got)


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
    assert verdicts == [block_permutational_reference(sq) for sq in squares]
    assert len(squares) == 2282 and verdicts.count(False) == 982


def test_is_sudoku_and_are_orthogonal_match_references():
    # row-shuffled squares of the constructible table rows of order <= 12:
    # still Latin, mostly neither Sudoku nor orthogonal to the original
    rng, edits = np.random.default_rng(5), np.random.default_rng(6)
    sudoku, orthogonal = [], []
    for order, q, r, factors, _ in _TABLE_ROWS:
        if not factors or order > 12:
            continue
        fam = composite_mosls(factors)
        for sq in fam:
            for rows in [np.arange(order)] + [rng.permutation(order) for _ in range(3)]:
                L = LatinSquare(sq.entries[rows], sq.shape)
                assert is_latin(L) and latin_reference(L)
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
            # seeded edits: a cell changed and two cells of a row swapped
            # (not Latin), the symbols cycled by a constant (Latin), and
            # shifted by one out of 1..n, which is_latin refuses
            i, j, k = edits.integers(order), *edits.choice(order, 2, replace=False)
            changed, swapped = sq.entries.astype(np.int64), sq.entries.astype(np.int64)
            changed[i, j] = changed[i, j] % order + 1
            swapped[i, [j, k]] = swapped[i, [k, j]]
            cycled = (sq.entries.astype(np.int64) + j) % order + 1
            for entries in (changed, swapped, cycled):
                L = LatinSquare(entries, sq.shape)
                assert is_latin(L) == latin_reference(L) == (entries is cycled)
            for shift in (-1, 1):
                L = LatinSquare(sq.entries.astype(np.int64) + shift, sq.shape)
                assert not latin_reference(L)
                with pytest.raises(ValueError, match="outside"):
                    is_latin(L)
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


def test_format_writes_values_outside_the_symbols():
    # a square built in code may hold 0, values above n or negative ones;
    # they are written as str() writes them, and the family text is kept
    entries = [[0, 5, 70000, 2], [-3, 4, 1, 2], [1, 2, 3, 4], [255, 256, 3, 1]]
    text = format_family(single(LatinSquare(entries, SudokuShape(2, 2))))
    rows = [" ".join(map(str, row)) for row in entries]
    assert text.splitlines() == ["mosls v1", "order 4 type 2 2 count 1", *rows]
    for high in (5, 300):  # uint8 and uint16 entries
        sq = LatinSquare([[1, 2, 3, 4]] * 3 + [[1, 2, 3, high]], SudokuShape(2, 2))
        assert format_family(single(sq)).endswith(f"\n1 2 3 {high}\n")

def _parsed(text: str, tmp_path):
    """parse_family(text), or the text of the FormatError it raises;
    load_family must give the same on a file holding the text."""
    path = tmp_path / "family.txt"
    path.write_bytes(text.encode())
    outcomes = []
    for parse, source in ((parse_family, text), (load_family, path)):
        try:
            outcomes.append(parse(source))
        except FormatError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def test_parse_rejects_bad_header(tmp_path):
    text = "nope\norder 2 type 1 2 count 1\n1 2\n2 1\n"
    assert _parsed(text, tmp_path) == "line 1: expected header 'mosls v1'"
    text = "mosls v1\norder 2 type 1 2 count x\n1 2\n2 1\n"
    assert _parsed(text, tmp_path) == "line 2: size header fields must be integers"
    text = "mosls v1\norder 2 type 1 2 count 0\n"
    assert _parsed(text, tmp_path) == "line 2: count must be positive, got 0"


def test_parse_rejects_type_order_mismatch(tmp_path):
    text = "mosls v1\norder 4 type 2 3 count 1\n"
    assert _parsed(text, tmp_path) == "line 2: type (2, 3) does not match order 4"


def test_parse_rejects_wrong_row_length(tmp_path):
    text = "mosls v1\norder 2 type 1 2 count 1\n1 2\n2\n"
    assert _parsed(text, tmp_path) == "line 4: expected 2 integers, got 1"


def test_parse_rejects_out_of_range_symbol(tmp_path):
    text = "mosls v1\norder 2 type 1 2 count 1\n1 3\n2 1\n"
    assert _parsed(text, tmp_path) == "line 3: symbol 3 outside 1..2"


def test_parse_rejects_trailing_garbage(tmp_path):
    text = "mosls v1\norder 2 type 1 2 count 1\n1 2\n2 1\nextra\n"
    assert _parsed(text, tmp_path) == "line 5: trailing content after last square"


def test_parse_rejects_missing_square(tmp_path):
    text = "mosls v1\norder 2 type 1 2 count 2\n1 2\n2 1\n"
    assert _parsed(text, tmp_path) == "line 5: expected blank line before square 2"


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
def test_parse_names_the_first_failing_line(rows, message, tmp_path):
    text = "\n".join(["mosls v1", "order 2 type 1 2 count 2", *rows]) + "\n"
    assert _parsed(text, tmp_path) == message


TWO = "mosls v1\norder 2 type 1 2 count 2\n1 2\n2 1\n\n2 1\n1 2\n"

# (name, a layout of the two-square family TWO, the error or None where it
# parses to TWO's family)
LAYOUTS = [
    ("crlf", TWO.replace("\n", "\r\n"), None),
    ("no-final-newline", TWO[:-1], None),
    ("one-trailing-blank-line", TWO + "\n", "line 8: trailing content after last square"),
    ("two-trailing-blank-lines", TWO + "\n\n", "line 8: trailing content after last square"),
    ("crlf-trailing-blank-line", TWO.replace("\n", "\r\n") + "\r\n", "line 8: trailing content after last square"),
    ("trailing-row", TWO + "1 2\n", "line 8: trailing content after last square"),
    ("trailing-text-without-newline", TWO + "x", "line 8: trailing content after last square"),
    ("empty", "", "line 1: expected header 'mosls v1'"),
    ("header-only", "mosls v1\n", "line 2: missing size header"),
    ("end-inside-square", TWO[: -len("1 2\n")], "line 7: unexpected end of file inside square 2"),
    # nothing the size of a square is allocated before its rows are read
    (
        "huge-order",
        "mosls v1\norder 4000000000 type 1 4000000000 count 1\n1 2\n",
        "line 3: expected 4000000000 integers, got 2",
    ),
]


@pytest.mark.parametrize("text,message", [case[1:] for case in LAYOUTS], ids=[case[0] for case in LAYOUTS])
def test_parse_and_load_agree_on_layout(text, message, tmp_path):
    assert _parsed(text, tmp_path) == (message or parse_family(TWO))


def test_parse_converts_tokens_as_int_does(tmp_path):
    # int() accepts underscores, signs and non-ASCII decimal digits
    text = "mosls v1\norder 2 type 1 2 count 1\n+1 ٢\n0_2 １\n"
    assert _parsed(text, tmp_path).squares[0].entries.tolist() == [[1, 2], [2, 1]]


def test_family_text_streams_one_square_at_a_time(tmp_path):
    # traced peaks in units of n**2 bytes, one uint8 entry: the writer holds
    # one square's rows as lists of Python ints (8 bytes an entry) and one
    # row's text, the reader the f squares it built and about 1024 tokens
    # (read 9.3 and 31.5; the whole text took 169 and 328, the whole text
    # of the file as lines alone 118)
    fam = composite_mosls([(3, 2, 2)], order_cap=81)
    f, units = len(fam), 81**2
    assert f == 18 and {sq.entries.dtype for sq in fam} == {np.dtype(np.uint8)}
    _, write_peak = peak_traced(lambda: write_family(fam, Discard()))
    assert write_peak <= 16 * units
    path = tmp_path / "f81.txt"
    save_family(fam, path)
    assert path.read_text() == format_family(fam)
    loaded, load_peak = peak_traced(lambda: load_family(path))
    assert loaded == fam and load_peak <= (f + 40) * units


def test_family_shape_consistency():
    with pytest.raises(ValueError):
        MoslsFamily(SudokuShape(1, 4), (cyclic_square(4), cyclic_square(3)))
