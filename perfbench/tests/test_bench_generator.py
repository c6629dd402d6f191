"""The seeded input generator: reproducible, seed-sensitive, and always
valid input with the closed-form spectrum."""

from pathlib import Path

import numpy as np
import pytest

import checker
import gen
import workloads

SMALL = ["spectrum-verify", "switch-certify"]


def _inputs(workload: str, seed: int, work: Path) -> dict[str, bytes]:
    """Input files a workload generates, by name (job outputs excluded)."""
    workloads.make_jobs(workload, work, seed)
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


def _cell_graph(fam: gen.Family) -> np.ndarray:
    """MOSLS cell graph: same row, column, block, or symbol in a square."""
    n = fam.order
    rows, cols = np.divmod(np.arange(n * n), n)
    labels = [rows, cols, (rows // fam.q) * fam.q + cols // fam.r]
    labels += [sq.ravel() for sq in fam.squares]
    adj = np.zeros((n * n, n * n), dtype=bool)
    for lab in labels:
        adj |= lab[:, None] == lab[None, :]
    np.fill_diagonal(adj, False)
    return adj.astype(np.float64)


def _grouped_eigenvalues(adj: np.ndarray):
    values = np.linalg.eigvalsh(adj)
    rounded = np.round(values)
    assert np.abs(values - rounded).max() < 1e-8
    uniq, counts = np.unique(rounded.astype(int), return_counts=True)
    return list(zip(uniq.tolist(), counts.tolist()))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    assert _inputs(workload, 5, tmp_path / "a") == _inputs(workload, 5, tmp_path / "b")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seed_changes_files_not_shapes(workload, tmp_path):
    one, two = _inputs(workload, 1, tmp_path / "a"), _inputs(workload, 2, tmp_path / "b")
    assert one.keys() == two.keys()
    assert any(one[name] != two[name] for name in one)
    for name in one:
        head_one, head_two = one[name].split(b"\n")[:2], two[name].split(b"\n")[:2]
        assert head_one == head_two, name


@pytest.mark.parametrize("workload", SMALL)
def test_seeds_keep_the_closed_form_spectrum(workload, tmp_path):
    for seed in (1, 2):
        work = tmp_path / str(seed)
        for name in _inputs(workload, seed, work):
            fam = checker.parse_family((work / name).read_text())
            want = checker.mosls_spectrum(fam.q, fam.r, len(fam))
            assert _grouped_eigenvalues(_cell_graph(fam)) == sorted(want.items()), name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_generated_family_passes_the_checker(workload, tmp_path):
    names = _inputs(workload, 3, tmp_path)
    assert names
    for name in names:
        fam = checker.parse_family((tmp_path / name).read_text())
        assert checker.family_problems(fam, fam.q, fam.r, len(fam)) == [], name


def test_checker_rejects_broken_families():
    fam = gen.build([(3, 1, 1)])
    assert checker.family_problems(fam, 3, 3, 6) == []
    assert checker.family_problems(fam, 3, 3, 5) == ["6 squares, expected 5"]
    broken = fam.squares[0].copy()
    broken[0, [0, 1]] = broken[0, [1, 0]]  # two columns now repeat a symbol
    assert checker.family_problems(gen.Family(3, 3, [broken]), 3, 3, 1) == ["square 1 is not a Sudoku Latin square"]
    moved = fam.squares[0][:, [3, 1, 2, 0, 4, 5, 6, 7, 8]]  # still Sudoku, blocks no longer alike
    assert checker.family_problems(gen.Family(3, 3, [moved]), 3, 3, 1) == ["square 1 is not block-permutational"]
    twice = gen.Family(3, 3, [fam.squares[0], fam.squares[0]])
    assert checker.family_problems(twice, 3, 3, 2) == ["squares 1,2 are not orthogonal"]
    switch = gen.valid_switches(fam.squares[0], 3, 3)[0]
    switched = gen.apply_switch(fam.squares[0], 3, 3, switch)
    assert checker.is_sudoku(switched, 3, 3)
    assert not checker.is_block_permutational(switched, 3, 3)


@pytest.mark.parametrize("factors", [
    [(5, 1, 1)], [(3, 1, 2)], [(3, 2, 1)], [(2, 2, 2)], [(2, 1, 2)],
    [(2, 1, 0), (3, 0, 1)], [(2, 1, 1), (3, 0, 1)], [(3, 1, 0), (2, 0, 2)], [(2, 2, 0), (3, 0, 1)],
])
def test_unscrambled_families_equal_the_package_construction(factors):
    from mosls import construct

    mine = gen.build(factors)
    theirs = construct.composite_mosls(factors, order_cap=27)
    assert (mine.q, mine.r) == (theirs.shape.q, theirs.shape.r)
    assert len(mine) == len(theirs) == gen.family_size(factors)
    for a, b in zip(mine.squares, theirs.squares):
        assert np.array_equal(a, b.entries)


@pytest.mark.parametrize("factors", [[(2, 1, 0), (3, 0, 1)], [(2, 1, 2)], [(3, 1, 1)]])
def test_valid_switches_agree_with_the_package(factors):
    from mosls import designs, switching

    fam = gen.scramble(gen.build(factors), np.random.default_rng(0))
    sq = fam.squares[0]
    square = designs.LatinSquare(sq, designs.SudokuShape(fam.q, fam.r))
    mine = gen.valid_switches(sq, fam.q, fam.r)
    theirs = []
    for kind, bands in (("row-block", fam.r), ("col-block", fam.q)):
        for index in range(1, bands + 1):
            for k1 in range(1, fam.order + 1):
                for k2 in range(k1 + 1, fam.order + 1):
                    spec = switching.SwitchSpec(kind, index, (k1, k2))
                    try:
                        out = switching.sudoku_symbol_switch(square, spec)
                    except switching.SwitchValidityError:
                        continue
                    theirs.append((kind, index, (k1, k2)))
                    assert np.array_equal(out.entries, gen.apply_switch(sq, fam.q, fam.r, theirs[-1]))
    assert mine == theirs
