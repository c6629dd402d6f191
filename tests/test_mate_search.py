"""The exact-cover search for orthogonal Sudoku mates, and what it finds
about the claim at mosls.designs.is_block_permutational: the Latin and
block layers of mutually orthogonal Sudoku squares commute if every square
is block-permutational, and only if every square is while at most three
are not.  Past three the claim fails: the search reaches families of six
order-9 squares, none of them block-permutational, whose layers commute.

A mate of mutually orthogonal Sudoku squares is a Sudoku square orthogonal
to each of them.  Its symbol classes are Sudoku transversals of theirs: n
cells, one in each row, column and block, with distinct symbols in each
square.  So the mates are the exact covers of the n**2 cells by n such
transversals, and a family's transversals are those of its parent that
its newest square keeps.

The search grows families by mates from two kinds of seeds:
- a subfamily of a field family, with all its transversals;
- a regrouped square of a field family, whose symbol classes are cliques
  of the family's MOLS graph (any two of their cells share a symbol in
  some field square), with the transversals that are such cliques.  Six
  orthogonal regrouped squares of order 9 cover the field family's 6 * 9 *
  36 symbol pairs, each once, so their cell graph is the field family's,
  and their layers commute whether or not they are block-permutational.
"""

from collections import Counter
from itertools import combinations, islice

import numpy as np

from mosls import LatinSquare, MoslsFamily, build_mols_graph, build_mosls_graph, commute_check, composite_mosls
from mosls.designs import is_block_permutational, transpose

from fixtures import NINE_REGROUPED_FAMILY
from graph_reference import layers_commute


def _transversals(shape, squares=(), cliques_of=None) -> np.ndarray:
    """The Sudoku transversals of the squares, one row of n row-major cell
    indices each, a cell per grid row in order; with a 0/1 adjacency
    cliques_of, only those whose cells it joins pairwise.  A cell's column,
    block and symbols are the bits of one key, so it fits a partial
    transversal whose keys its own meets nowhere."""
    q, r, n = shape.q, shape.r, shape.order
    keys = [
        [
            (j, 1 << j | 1 << n + i // q * q + j // r
             | sum(1 << (k + 2) * n + int(sq.entries[i, j]) - 1 for k, sq in enumerate(squares)))
            for j in range(n)
        ]
        for i in range(n)
    ]
    joined = None if cliques_of is None else [
        int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in cliques_of
    ]
    found, cells = [], [0] * n

    def extend(i, used, allowed):
        if i == n:
            found.append(cells.copy())
            return
        for j, key in keys[i]:
            if not used & key and allowed >> i * n + j & 1:
                cells[i] = i * n + j
                extend(i + 1, used | key, allowed if joined is None else allowed & joined[i * n + j])

    extend(0, 0, (1 << n * n) - 1)
    return np.array(found, dtype=np.intp).reshape(-1, n)


def _squares(T: np.ndarray, shape):
    """Yields the exact covers of the cells by n transversals of T, as
    squares with symbol j + 1 on the transversal through cell (1, j + 1)."""
    n = shape.order
    through = [[] for _ in range(n)]
    for t in T.tolist():
        through[t[0]].append((t, sum(1 << c for c in t)))
    entries = np.empty(n * n, dtype=np.intp)

    def cover(j, used):
        if j == n:
            yield LatinSquare(entries.reshape(n, n), shape)  # a copy
            return
        for t, mask in through[j]:
            if not used & mask:
                entries[t] = j + 1
                yield from cover(j + 1, used | mask)

    yield from cover(0, 0)


def _keep(T: np.ndarray, square) -> np.ndarray:
    """The transversals of T on which the square's symbols differ."""
    symbols = np.sort(square.entries.ravel()[T], axis=1)
    return T[(np.diff(symbols, axis=1) > 0).all(axis=1)]


def _grow(family: tuple, T: np.ndarray, seen: set):
    """Yields the family and every family reached from it by adding mates
    whose symbol classes are in T, its transversals; none twice over the
    calls that share seen."""
    key = frozenset(sq.entries.tobytes() for sq in family)
    if key in seen:
        return
    seen.add(key)
    yield family
    for mate in _squares(T, family[0].shape):
        yield from _grow(family + (mate,), _keep(T, mate), seen)


def _permutational(square, known: dict) -> bool:
    """is_block_permutational, once per square in the dict known."""
    key = square.entries.tobytes()
    if key not in known:
        known[key] = is_block_permutational(square)
    return known[key]


def _field(factors, transposed=False) -> MoslsFamily:
    fam = composite_mosls(factors)
    if not transposed:
        return fam
    squares = tuple(map(transpose, fam.squares))
    return MoslsFamily(squares[0].shape, squares)


def _search(fam: MoslsFamily, seeds, mates=None, rng=None):
    """Every family grown from the subfamilies of fam with the 0-based
    square indices of seeds; with mates, from each seed and only the first
    mates of its mates, in the order of its transversals shuffled by rng."""
    seen = set()
    for seed in seeds:
        squares = tuple(fam.squares[k] for k in seed)
        T = _transversals(fam.shape, squares)
        if mates is None:
            yield from _grow(squares, T, seen)
            continue
        T = T[rng.permutation(len(T))]
        for mate in islice(_squares(T, fam.shape), mates):
            yield from _grow(squares + (mate,), _keep(T, mate), seen)


def _regrouped_search(fam: MoslsFamily, rng, known: dict):
    """Every family grown from a regrouped square of fam that is not
    block-permutational (by _permutational with known), among regrouped
    squares, in the order of the transversals shuffled by rng."""
    T = _transversals(fam.shape, cliques_of=build_mols_graph(fam).adjacency)
    T = T[rng.permutation(len(T))]
    seen = set()
    for square in _squares(T, fam.shape):
        if not _permutational(square, known):
            yield from _grow((square,), _keep(T, square), seen)


def _tally(families, known: dict, stop_at_counterexample=False) -> Counter:
    """(order, squares, squares not block-permutational, layers commute)
    over the families, the last None below four squares, a case the proof
    covers.  From four squares on, layers_commute decides.  While at
    most three squares are not block-permutational, the layers commute iff
    none is not, as proved; past three no proof decides, and commute_check
    on the MOLS graph must agree with layers_commute."""
    tally = Counter()
    for family in families:
        n, failing = family[0].order, sum(not _permutational(sq, known) for sq in family)
        commutes = None
        if len(family) >= 4:
            fam = MoslsFamily(family[0].shape, family)
            commutes = layers_commute(fam)
            if failing <= 3:
                assert commutes == (failing == 0)
            else:
                assert commute_check(build_mols_graph(fam)) == commutes
        tally[n, len(family), failing, commutes] += 1
        if stop_at_counterexample and failing and commutes:
            break
    return tally


def test_mate_search(request):
    """The seeded search: from one order-8 field pair of each type (2, 4)
    and (4, 2), one order-9 field triple, and the order-9 regrouped squares
    (seed 2021) until four or more squares that are not all
    block-permutational commute.  With --full-sweep: from every order-8
    field square alone, every order-9 field pair and every order-9
    regrouped square that is not block-permutational; from the first
    square of each order-12 product family of types (3, 4), (2, 6) and
    (4, 3) with 10 of its mates; and from the order-16 field family of
    type (4, 4) with 1000 of its mates.  Only the order-9 families of six
    regrouped squares commute with a square that is not
    block-permutational, and none of their squares is."""
    eight, eight_t, nine = _field([(2, 1, 2)]), _field([(2, 1, 2)], True), _field([(3, 1, 1)])
    rng, known = np.random.default_rng(2021), {}
    if request.config.getoption("--full-sweep"):
        tally = _tally(_search(eight, combinations(range(4), 1)), known)
        tally += _tally(_search(eight_t, combinations(range(4), 1)), known)
        tally += _tally(_search(nine, combinations(range(6), 2)), known)
        tally += _tally(_regrouped_search(nine, rng, known), known)
        for factors in ([(3, 1, 0), (2, 0, 2)], [(2, 1, 1), (3, 0, 1)], [(2, 2, 0), (3, 0, 1)]):
            tally += _tally(_search(_field(factors), [(0,)], mates=10, rng=rng), known)
        tally += _tally(_search(_field([(2, 2, 2)]), [range(4)], mates=1000, rng=rng), known)
    else:
        tally = _tally(_search(eight, [(0, 1)]), known) + _tally(_search(eight_t, [(0, 1)]), known)
        tally += _tally(_search(nine, [(0, 1, 2)]), known)
        tally += _tally(_regrouped_search(nine, rng, known), known, stop_at_counterexample=True)
    print(sorted(tally.items(), key=str))
    assert {key[:3] for key in tally if key[2] and key[3]} == {(9, 6, 6)}


def test_regrouped_squares_keep_the_field_cell_graph():
    """The six squares of NINE_REGROUPED_FAMILY, none block-permutational,
    are mutually orthogonal Sudoku squares with the MOLS and the MOSLS cell
    graph of the order-9 field family, so their layers commute, and
    commute_check and layers_commute say so."""
    fam, field = NINE_REGROUPED_FAMILY, composite_mosls([(3, 1, 1)])
    assert not any(map(is_block_permutational, fam.squares))
    for build in (build_mols_graph, build_mosls_graph):
        assert np.array_equal(build(fam).adjacency, build(field).adjacency)
    assert commute_check(build_mols_graph(fam)) and layers_commute(fam)
