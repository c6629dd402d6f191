import json

import numpy as np
import pytest

from mosls.cli import main
from mosls import composite_mosls, designs, graph, spectra, switching
from mosls.graph import commute_check
from mosls.switching import SwitchSpec, sudoku_symbol_switch
from fixtures import (
    FOUR_FAMILY,
    NINE,
    NINE_REGROUPED_FAMILY,
    NINE_SWITCHED,
    REMARK4,
    SIX,
    SWITCH4_A,
    SWITCH4_B,
    cyclic_square,
    single,
    switch_chain,
    switches_of,
)
from designs_reference import block, block_permutational_reference
from graph_reference import edge_list, matrix_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def four_file(tmp_path):
    path = tmp_path / "four.txt"
    designs.save_family(FOUR_FAMILY, path)
    return str(path)


@pytest.fixture
def nine_file(tmp_path):
    path = tmp_path / "nine.txt"
    designs.save_family(single(NINE), path)
    return str(path)


@pytest.fixture(scope="module")
def switched27_file(tmp_path_factory):
    """An order-27 square of type (3, 9) after 40 seeded valid symbol
    switches: its guess leaves 46 of its 729 eigenvalues to the power sums,
    and 46 * 729 exceeds the exact cap 150**2."""
    square = composite_mosls([(3, 1, 2)], order_cap=27).squares[0]
    path = tmp_path_factory.mktemp("switched27") / "s27.txt"
    designs.save_family(single(switch_chain(square, 40, np.random.default_rng(1))), path)
    return str(path)


REFUSED27 = (
    "exact charpoly refused: 46 of 729 eigenvalues uncertified, 46 * 729 > 22500; "
    "spectrum --numeric needs no charpoly"
)


# ---------------------------------------------------------------------------
# construct


def test_construct_field_family(tmp_path, capsys):
    out = tmp_path / "fam.txt"
    code, stdout, _ = run(capsys, "construct", "--p", "2", "--m", "1", "--n", "1", "--out", str(out))
    assert code == 0
    assert "validation PASS" in stdout
    fam = designs.load_family(out)
    assert fam.shape == designs.SudokuShape(2, 2) and len(fam) == 2


def test_construct_composite(tmp_path, capsys):
    out = tmp_path / "fam.txt"
    code, stdout, _ = run(
        capsys,
        "construct", "--factor", "2:1:1", "--factor", "3:0:1", "--out", str(out),
    )
    assert code == 0
    fam = designs.load_family(out)
    assert fam.shape == designs.SudokuShape(2, 6) and len(fam) == 2


def test_construct_to_stdout_with_count(capsys):
    code, stdout, stderr = run(
        capsys, "construct", "--p", "3", "--m", "1", "--n", "1", "--count", "2"
    )
    assert code == 0
    fam = designs.parse_family(stdout)
    assert len(fam) == 2
    assert "validation PASS" in stderr


def test_construct_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, "construct", "--p", "3", "--m", "1", "--n", "1", "--out", str(a))
    run(capsys, "construct", "--p", "3", "--m", "1", "--n", "1", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_construct_flag_errors(capsys):
    code, _, err = run(capsys, "construct", "--p", "2", "--m", "1", "--n", "1", "--factor", "2:1:1")
    assert code == 2 and "not both" in err
    code, _, err = run(capsys, "construct", "--p", "2", "--m", "1")
    assert code == 2 and "required" in err
    code, _, err = run(capsys, "construct", "--factor", "2:1")
    assert code == 2 and "p:m:n" in err
    code, _, err = run(capsys, "construct", "--p", "2", "--m", "1", "--n", "1", "--count", "9")
    assert code == 2 and "outside" in err


def test_construct_order_cap(capsys):
    code, _, err = run(capsys, "construct", "--p", "2", "--m", "3", "--n", "2")
    assert code == 2 and "cap" in err
    code, stdout, _ = run(
        capsys,
        "construct", "--p", "2", "--m", "3", "--n", "2", "--order-cap", "32",
    )
    assert code == 0
    assert designs.parse_family(stdout).shape == designs.SudokuShape(8, 4)


@pytest.mark.parametrize(
    "p, m, order",
    [("3", "3000000", "3**3000001"), ("3", "1500", "3**1501"), ("2305843009213693951", "0", "2305843009213693951")],
)
def test_construct_oversized_factor_fails_fast(p, m, order, capsys):
    code, stdout, err = run(capsys, "construct", "--p", p, "--m", m, "--n", "1")
    assert (code, stdout, err) == (2, "", f"error: order {order} exceeds cap 16\n")


@pytest.mark.parametrize(
    "p,m,n",
    [("3", "1", "1"), ("2", "2", "0"), ("3", "0", "2"), ("4", "1", "1"), ("2", "-1", "1"), ("5", "1", "1")],
)
def test_construct_flag_forms_agree(p, m, n, capsys):
    # valid, flat, not prime, bad exponent, over the cap
    by_prime = run(capsys, "construct", "--p", p, "--m", m, "--n", n)
    by_factor = run(capsys, "construct", "--factor", f"{p}:{m}:{n}")
    assert by_prime == by_factor


# ---------------------------------------------------------------------------
# check


def test_check_pass(four_file, capsys):
    code, stdout, _ = run(capsys, "check", "--in", four_file)
    assert code == 0
    assert "verdict: PASS" in stdout
    assert "square 1: latin yes sudoku yes block-permutational yes" in stdout
    assert "squares 1,2: orthogonal yes" in stdout


def test_check_json(four_file, capsys):
    code, stdout, _ = run(capsys, "check", "--in", four_file, "--json")
    assert code == 0
    report = json.loads(stdout)
    assert report["pass"] is True
    assert report["type"] == [2, 2]
    assert report["orthogonal"] == [[1, 2, True]]


def test_check_fail_not_sudoku(tmp_path, capsys):
    path = tmp_path / "remark.txt"
    designs.save_family(single(REMARK4), path)
    code, stdout, _ = run(capsys, "check", "--in", str(path))
    assert code == 1
    assert "latin yes sudoku no" in stdout
    assert "verdict: FAIL" in stdout


def test_check_fail_not_orthogonal(tmp_path, capsys):
    fam = designs.MoslsFamily(NINE.shape, (NINE, NINE))
    path = tmp_path / "dup.txt"
    designs.save_family(fam, path)
    code, stdout, _ = run(capsys, "check", "--in", str(path))
    assert code == 1
    assert "squares 1,2: orthogonal no" in stdout


def test_check_json_matches_references(tmp_path, capsys):
    # a field square, a copy with two cells of a row swapped (not Latin), a
    # row permutation across bands (Latin, not Sudoku, and not orthogonal
    # to the first) and a second field square
    field = composite_mosls([(3, 1, 1)])
    a = field.squares[0]
    swapped = a.entries.copy()
    swapped[0, [0, 1]] = swapped[0, [1, 0]]
    squares = [
        a,
        designs.LatinSquare(swapped, a.shape),
        designs.LatinSquare(a.entries[[4, 1, 2, 3, 0, 5, 6, 7, 8]], a.shape),
        field.squares[1],
    ]
    path = tmp_path / "mixed.txt"
    designs.save_family(designs.MoslsFamily(a.shape, tuple(squares)), path)
    code, stdout, _ = run(capsys, "check", "--in", str(path), "--json")

    def each_once(groups):
        return all(np.unique(g).size == 9 for g in groups)

    expected = []
    for sq in squares:
        latin = each_once(sq.entries) and each_once(sq.entries.T)
        blocks = [block(sq, i, j).cells for i in range(1, 4) for j in range(1, 4)]
        sudoku = latin and each_once(blocks)
        bp = sudoku and block_permutational_reference(sq)
        expected.append({"latin": latin, "sudoku": sudoku, "block_permutational": bp})
    orthogonal = [
        [i + 1, j + 1, np.unique(squares[i].entries.astype(int) * 10 + squares[j].entries).size == 81]
        for i in range(4)
        for j in range(i + 1, 4)
    ]
    assert [s["latin"] for s in expected] == [True, False, True, True]
    assert [s["sudoku"] for s in expected] == [True, False, False, True]
    assert [o[2] for o in orthogonal] == [False, False, True, False, False, False]
    assert code == 1
    assert json.loads(stdout) == {
        "order": 9,
        "type": [3, 3],
        "count": 4,
        "squares": expected,
        "orthogonal": orthogonal,
        "pass": False,
    }


def test_check_passes_without_are_orthogonal(tmp_path, capsys, monkeypatch):
    # `check` decides every pair in one pass over the family, not pair by pair
    path = tmp_path / "field9.txt"
    designs.save_family(composite_mosls([(3, 1, 1)]), path)

    def refuse(a, b):
        raise AssertionError("are_orthogonal called")

    monkeypatch.setattr(designs, "are_orthogonal", refuse)
    code, stdout, _ = run(capsys, "check", "--in", str(path))
    assert code == 0 and stdout.endswith("verdict: PASS\n")
    assert stdout.count("orthogonal yes") == 15


def test_check_corrupted_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("mosls v1\norder 4 type 2 2 count 1\n1 2 3 4\n1 2 3\n")
    code, _, err = run(capsys, "check", "--in", str(path))
    assert code == 2
    assert "line 4" in err


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "--in", "/nonexistent/family.txt")
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_refuses_a_group_tol_that_breaks_grouping(tmp_path, capsys):
    # the order-4 single-square graph has the eigenvalue 0 x6: a negative
    # or NaN width read "residual: 1.000e+00", inf one group "x16"; --exact,
    # which groups nothing, refuses the same widths
    path = tmp_path / "one.txt"
    designs.save_family(single(FOUR_FAMILY.squares[0]), path)
    for bad in ("-1e-6", "nan", "inf", "-inf"):
        for mode in ([], ["--exact"]):
            code, stdout, err = run(capsys, "spectrum", "--in", str(path), *mode, f"--group-tol={bad}")
            assert code == 2 and stdout == "", mode
            assert err == f"error: group_tol must be finite and >= 0, got {float(bad)!r}\n"
    # 0 is a valid width, and the default groups the six zeros
    code, stdout, err = run(capsys, "spectrum", "--in", str(path), "--group-tol", "0")
    assert code == 0 and err == ""
    # under width 0 the zeros stay apart, and each is evaluated at 0
    assert float(stdout.split("residual: ")[1]) < 1e-12
    code, stdout, err = run(capsys, "spectrum", "--in", str(path))
    assert code == 0 and err == "" and " x6\n" in stdout
    assert float(stdout.split("residual: ")[1]) < 1e-12


def test_spectrum_verify_closed_form(four_file, capsys):
    code, stdout, _ = run(capsys, "spectrum", "--in", four_file, "--verify-closed-form")
    assert code == 0
    assert "closed form: MATCH" in stdout
    assert "charpoly:" in stdout
    assert "residual:" in stdout


def test_spectrum_json(four_file, capsys):
    code, stdout, _ = run(
        capsys, "spectrum", "--in", four_file, "--json", "--verify-closed-form"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["flavor"] == "mosls"
    assert payload["order"] == 4 and payload["type"] == [2, 2]
    assert payload["closed_form"] == "MATCH"
    assert payload["charpoly"][-1] == "1"
    assert sum(entry["mult"] for entry in payload["numeric"]) == 16
    assert payload["residual"] < 1e-6


def test_spectrum_mols_only_matches_srg(four_file, capsys):
    code, stdout, _ = run(
        capsys, "spectrum", "--in", four_file, "--mols-only", "--verify-closed-form"
    )
    assert code == 0
    assert "flavor mols" in stdout
    assert "closed form: MATCH" in stdout


def test_spectrum_subset(four_file, capsys):
    code, stdout, _ = run(
        capsys,
        "spectrum", "--in", four_file, "--subset", "1", "--verify-closed-form",
    )
    assert code == 0
    assert "squares 1" in stdout
    assert "closed form: MATCH" in stdout


def test_spectrum_exact_only_and_numeric_only(four_file, capsys):
    code, stdout, _ = run(capsys, "spectrum", "--in", four_file, "--exact")
    assert code == 0
    assert "charpoly:" in stdout and "numeric:" not in stdout
    code, stdout, _ = run(capsys, "spectrum", "--in", four_file, "--numeric")
    assert code == 0
    assert "charpoly:" not in stdout and "numeric:" in stdout


def test_spectrum_exact_json_has_no_residual(four_file, capsys):
    # --exact computes no numeric values, so there is no residual to report,
    # in JSON as in text
    code, stdout, _ = run(capsys, "spectrum", "--in", four_file, "--exact", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["charpoly"][-1] == "1" and payload["numeric"] == []
    assert "residual" not in payload


@pytest.mark.parametrize("text", ["", ","])
@pytest.mark.parametrize("command", ["spectrum", "graph-export"])
def test_subset_selecting_no_square_exits_2(command, text, four_file, capsys):
    code, stdout, err = run(capsys, command, "--in", four_file, "--subset", text)
    assert code == 2
    assert "--subset selects no square" in err and stdout == ""


def test_spectrum_inapplicable_when_layers_do_not_commute(tmp_path, capsys):
    path = tmp_path / "switched.txt"
    designs.save_family(single(NINE_SWITCHED), path)
    code, stdout, _ = run(
        capsys, "spectrum", "--in", str(path), "--verify-closed-form"
    )
    assert code == 0
    assert "closed form: INAPPLICABLE (adjacency layers do not commute)" in stdout


def test_spectrum_subset_checks_the_selected_squares(tmp_path, capsys):
    path = tmp_path / "mixed.txt"
    designs.save_family(designs.MoslsFamily(NINE.shape, (NINE, NINE_SWITCHED)), path)
    code, stdout, _ = run(
        capsys,
        "spectrum", "--in", str(path), "--subset", "2", "--verify-closed-form",
    )
    assert code == 0
    assert "closed form: INAPPLICABLE (adjacency layers do not commute)" in stdout


@pytest.fixture
def mixed8_file(tmp_path):
    """Squares 1 and 2 of the order-8 field family, square 2 given a valid
    switch that keeps the pair orthogonal, so only it is not
    block-permutational."""
    first, second = composite_mosls([(2, 1, 2)]).squares[:2]
    switched = sudoku_symbol_switch(second, SwitchSpec("col-block", 1, (1, 3)))
    assert designs.is_block_permutational(first) and not designs.is_block_permutational(switched)
    path = tmp_path / "mixed8.txt"
    designs.save_family(designs.MoslsFamily(first.shape, (first, switched)), path)
    return str(path)


def test_spectrum_closed_form_reads_the_selected_squares(mixed8_file, capsys):
    code, stdout, _ = run(capsys, "check", "--in", mixed8_file)
    assert code == 0 and stdout.endswith("verdict: PASS\n")
    code, stdout, _ = run(capsys, "spectrum", "--in", mixed8_file, "--subset", "1", "--verify-closed-form")
    assert code == 0 and stdout.endswith("closed form: MATCH\n")
    for subset in ("1,2", "2"):
        code, stdout, _ = run(capsys, "spectrum", "--in", mixed8_file, "--subset", subset, "--verify-closed-form")
        assert code == 0
        assert stdout.endswith("closed form: INAPPLICABLE (adjacency layers do not commute)\n")


@pytest.mark.parametrize(
    "command,flags",
    [("spectrum", ["--subset", "2,1,2", "--verify-closed-form"]), ("graph-export", ["--subset", "1"])],
    ids=["spectrum", "graph-export"],
)
def test_subset_is_resolved_once(command, flags, four_file, capsys, monkeypatch):
    # the builder resolves --subset, and the closed form reads the
    # squares off the graph it built
    calls = []
    resolve = graph._resolve_subset
    monkeypatch.setattr(graph, "_resolve_subset", lambda fam, subset: calls.append(subset) or resolve(fam, subset))
    code, _, err = run(capsys, command, "--in", four_file, *flags)
    assert code == 0 and err == "" and len(calls) == 1


def test_spectrum_asks_the_graph_whether_the_layers_commute(tmp_path, capsys, monkeypatch):
    # the MOSLS closed form needs the Latin and block layers to commute, and
    # block-permutational squares decide that only while at most three
    # selected squares are not (designs.is_block_permutational), so the
    # graph alone decides, once per MOSLS check.  The six regrouped order-9
    # squares, none block-permutational, have the cell graph of the field
    # family: all six match, four and three of them read INAPPLICABLE; the
    # MOLS form and a spectrum without the check never ask
    path = tmp_path / "regrouped9.txt"
    designs.save_family(NINE_REGROUPED_FAMILY, path)
    calls = []
    monkeypatch.setattr(graph, "commute_check", lambda g: calls.append(g) or commute_check(g))
    inapplicable = "closed form: INAPPLICABLE (adjacency layers do not commute)\n"
    cases = [
        (["--verify-closed-form"], "closed form: MATCH\n", 1),
        (["--subset", "1,2,3,4", "--verify-closed-form"], inapplicable, 1),
        (["--subset", "1,2,3", "--verify-closed-form"], inapplicable, 1),
        (["--mols-only", "--verify-closed-form"], "closed form: MATCH\n", 0),
        ([], "residual: ", 0),
    ]
    for flags, tail, asked in cases:
        calls.clear()
        code, stdout, _ = run(capsys, "spectrum", "--in", str(path), *flags)
        assert code == 0 and stdout.splitlines(True)[-1].startswith(tail) and len(calls) == asked, flags


def test_spectrum_rejects_invalid_family(tmp_path, capsys):
    path = tmp_path / "remark.txt"
    designs.save_family(single(REMARK4), path)
    code, _, err = run(capsys, "spectrum", "--in", str(path))
    assert code == 1
    assert "check failed" in err


def test_spectrum_cap_fallback(tmp_path, capsys):
    # 169 vertices: above the old vertex cap of 150, which made spectrum
    # fall back to numeric-only output and --exact exit 2; both now give
    # the charpoly, with no warning
    path = tmp_path / "big.txt"
    code, stdout, _ = run(
        capsys,
        "construct", "--p", "13", "--m", "0", "--n", "1", "--count", "1",
        "--order-cap", "16", "--out", str(path),
    )
    assert code == 0
    code, stdout, err = run(capsys, "spectrum", "--in", str(path))
    assert code == 0 and err == ""
    assert "vertices 169" in stdout and "residual: " in stdout
    charpoly = next(line for line in stdout.splitlines() if line.startswith("charpoly: "))
    assert charpoly == "charpoly: " + " ".join(
        spectra.poly_product(spectra.mosls_graph_spectrum(1, 13, 1)).decimal_strings()
    )
    code, stdout, err = run(capsys, "spectrum", "--in", str(path), "--exact")
    assert code == 0 and err == ""
    assert stdout.splitlines()[1:] == [charpoly]


@pytest.fixture(scope="module")
def field16_file(tmp_path_factory):
    """The order-16 field family, type (4, 4): 256 vertices, above the old cap."""
    path = tmp_path_factory.mktemp("field16") / "f16.txt"
    assert main(["construct", "--p", "2", "--m", "2", "--n", "2", "--out", str(path)]) == 0
    return str(path)


def test_spectrum_certifies_the_closed_form_above_the_cap(field16_file, capsys):
    # the charpoly of 256 vertices is computed and compared with the closed
    # form; under --numeric the closed form is certified on the graph
    closed = spectra.poly_product(spectra.mosls_graph_spectrum(4, 4, 4))
    code, stdout, err = run(capsys, "spectrum", "--in", field16_file, "--verify-closed-form")
    assert code == 0 and err == ""
    assert "vertices 256" in stdout and "residual: " in stdout
    assert "charpoly: " + " ".join(closed.decimal_strings()) + "\n" in stdout
    assert stdout.endswith("closed form: MATCH\n")
    code, stdout, err = run(
        capsys, "spectrum", "--in", field16_file, "--numeric", "--verify-closed-form"
    )
    assert code == 0 and err == ""
    assert "charpoly:" not in stdout and "residual:" not in stdout
    assert stdout.endswith("closed form: MATCH\n")


def test_spectrum_expands_the_closed_form_nowhere(field16_file, capsys, monkeypatch):
    # one (4, 4) square, 256 vertices: the certified factors match the
    # closed form as lists, so the one degree-256 expansion is the printed
    # charpoly (the degree-7 one is the certificate's product of roots)
    degrees, real = [], spectra.poly_product
    monkeypatch.setattr(spectra, "poly_product", lambda f: degrees.append((p := real(f)).degree) or p)
    argv = ["spectrum", "--in", field16_file, "--subset", "1", "--verify-closed-form"]
    code, stdout, _ = run(capsys, *argv)
    assert code == 0 and stdout.endswith("closed form: MATCH\n")
    assert degrees.count(256) == 1
    for only in ("--exact", "--numeric"):
        code, stdout, _ = run(capsys, *argv, only)
        assert code == 0 and stdout.endswith("closed form: MATCH\n"), only


def test_spectrum_wrong_closed_form_above_the_cap(field16_file, capsys, monkeypatch):
    def moved(right):
        def wrong(*params):
            # one eigenvalue gives up a unit of multiplicity to the next
            (f0, m0), (f1, m1), *rest = right(*params)
            return [(f0, m0 - 1), (f1, m1 + 1), *rest]

        return wrong

    # both flavours' closed forms: against the certified factors, against
    # the one expanded factor of --exact, and certified on the graph under
    # --numeric
    for name, flavor in (("mosls_graph_spectrum", []), ("srg_spectrum", ["--mols-only"])):
        monkeypatch.setattr(spectra, name, moved(getattr(spectra, name)))
        for extra in ([], ["--numeric"], ["--exact"]):
            code, stdout, err = run(
                capsys, "spectrum", "--in", field16_file, *flavor, *extra, "--verify-closed-form"
            )
            assert code == 1 and err == "", (name, extra)
            assert ("charpoly: " in stdout) == (extra != ["--numeric"])
            assert stdout.endswith("closed form: MISMATCH\n"), (name, extra)


# the field families above the old exact cap that the large-graph inputs
# use: order 25, and order 27 in both types
ABOVE_CAP = {
    "f25": ["--p", "5", "--m", "1", "--n", "1"],
    "f27-3x9": ["--p", "3", "--m", "1", "--n", "2"],
    "f27-9x3": ["--p", "3", "--m", "2", "--n", "1"],
}


@pytest.mark.parametrize("construct", ABOVE_CAP.values(), ids=ABOVE_CAP.keys())
def test_spectrum_certifies_large_field_families(construct, tmp_path, capsys):
    path = tmp_path / "fam.txt"
    assert main(["construct", *construct, "--order-cap", "27", "--out", str(path)]) == 0
    capsys.readouterr()
    code, stdout, err = run(capsys, "spectrum", "--in", str(path), "--verify-closed-form")
    assert code == 0 and err == ""
    assert "charpoly: " in stdout and "residual: " in stdout
    assert stdout.endswith("closed form: MATCH\n")


def test_spectrum_refuses_the_closed_form_of_a_switched_order27_square(tmp_path, capsys):
    fam = composite_mosls([(3, 1, 2)], order_cap=27)
    square = fam.squares[0]
    # symbols 1 and 10 fill the same columns of block-row 1, so the switch
    # is valid; it keeps the square Sudoku but breaks the commuting layers
    switched = sudoku_symbol_switch(square, SwitchSpec("row-block", 1, (1, 10)))
    for sq, verdict in ((square, "MATCH"), (switched, "INAPPLICABLE (adjacency layers do not commute)")):
        path = tmp_path / "one.txt"
        designs.save_family(single(sq), path)
        code, stdout, err = run(capsys, "spectrum", "--in", str(path), "--verify-closed-form")
        assert code == 0 and err == "" and "vertices 729" in stdout
        assert "charpoly: " in stdout
        assert stdout.endswith(f"closed form: {verdict}\n")


def test_spectrum_refuses_a_charpoly_left_to_the_power_sums(switched27_file, capsys, monkeypatch):
    # refused before any power-sum product, with one line that names
    # --numeric, which gives the eigenvalues
    def refuse(*args):
        raise AssertionError("ran the modular power chain")

    monkeypatch.setattr(spectra, "_chain", refuse)
    for extra in ([], ["--verify-closed-form"], ["--json"]):
        code, stdout, err = run(capsys, "spectrum", "--in", switched27_file, *extra)
        assert (code, stdout, err) == (2, "", f"error: {REFUSED27}\n")
    code, stdout, err = run(capsys, "spectrum", "--in", switched27_file, "--numeric")
    assert code == 0 and err == ""
    assert "vertices 729" in stdout and "charpoly:" not in stdout
    assert sum(int(line.rsplit("x", 1)[1]) for line in stdout.splitlines()[2:]) == 729


def test_spectrum_numeric_certifies_the_closed_form(four_file, capsys):
    code, stdout, _ = run(capsys, "spectrum", "--in", four_file, "--numeric", "--verify-closed-form")
    assert code == 0
    assert "charpoly:" not in stdout
    assert "closed form: MATCH" in stdout


@pytest.mark.parametrize(
    "construct,extra",
    [
        (["--p", "2", "--m", "1", "--n", "2", "--count", "1"], []),  # eigenvalue 0 x3
        (["--p", "3", "--m", "1", "--n", "1"], ["--subset", "1,2"]),  # eigenvalue 0 x4
    ],
    ids=["order8-one-square", "order9-two-squares"],
)
def test_residual_with_a_zero_eigenvalue(construct, extra, tmp_path, capsys):
    path = tmp_path / "fam.txt"
    assert main(["construct", *construct, "--out", str(path)]) == 0
    capsys.readouterr()
    code, stdout, _ = run(capsys, "spectrum", "--in", str(path), *extra, "--verify-closed-form")
    assert code == 0
    assert "closed form: MATCH" in stdout
    assert "charpoly: 0 " in stdout  # constant term 0: the root 0
    residual = float(stdout.split("residual: ")[1].split()[0])
    assert residual < 1e-12


def test_spectrum_is_deterministic(four_file, capsys):
    args = ("spectrum", "--in", four_file, "--json", "--verify-closed-form")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# graph-export


def test_graph_export_edges(tmp_path, capsys):
    path = tmp_path / "two.txt"
    designs.save_family(single(cyclic_square(2)), path)
    code, stdout, _ = run(capsys, "graph-export", "--in", str(path))
    assert code == 0
    assert stdout == "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"


def test_graph_export_edges_of_a_graph_without_edges(tmp_path, capsys):
    # the order-1 family: one cell, no edges, so no line at all
    path = tmp_path / "one.txt"
    path.write_text("mosls v1\norder 1 type 1 1 count 1\n1\n")
    code, stdout, _ = run(capsys, "graph-export", "--in", str(path), "--format", "edges")
    assert code == 0
    assert stdout == ""


def test_graph_export_matrix_to_file(tmp_path, capsys):
    src = tmp_path / "two.txt"
    designs.save_family(single(cyclic_square(2)), src)
    out = tmp_path / "adj.txt"
    code, _, _ = run(
        capsys,
        "graph-export", "--in", str(src), "--format", "matrix", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4 and lines[0] == "0 1 1 1"


def test_graph_export_is_deterministic(four_file, tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, "graph-export", "--in", four_file, "--out", str(a))
    run(capsys, "graph-export", "--in", four_file, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("fmt", ["edges", "matrix"])
def test_graph_export_writes_the_same_bytes_to_stdout_and_to_a_file(fmt, tmp_path, capsys):
    # order 9: 81 vertices, more rows than one slab of graph._CHUNK
    src, out = tmp_path / "f9.txt", tmp_path / "graph.txt"
    code, _, _ = run(capsys, "construct", "--p", "3", "--m", "1", "--n", "1", "--out", str(src))
    assert code == 0
    g = graph.build_mosls_graph(designs.load_family(src))
    assert g.num_vertices > graph._CHUNK
    code, stdout, _ = run(capsys, "graph-export", "--in", str(src), "--format", fmt)
    assert code == 0
    code, nothing, _ = run(capsys, "graph-export", "--in", str(src), "--format", fmt, "--out", str(out))
    assert code == 0 and nothing == ""
    assert out.read_bytes() == stdout.encode("ascii")
    expected = matrix_text(g.adjacency) if fmt == "matrix" else "".join(
        f"{u} {v}\n" for u, v in edge_list(g.adjacency)
    )
    assert stdout == expected


@pytest.mark.parametrize("command", ["graph-export", "spectrum"])
def test_dense_graph_cap_exits_2(command, tmp_path, capsys):
    path = tmp_path / "f64.txt"
    code, _, _ = run(
        capsys,
        "construct", "--p", "2", "--m", "3", "--n", "3", "--count", "1",
        "--order-cap", "64", "--out", str(path),
    )
    assert code == 0
    # the builders refuse the vertex count before they resolve --subset
    for extra in ([], ["--subset", "0"]):
        code, stdout, err = run(capsys, command, "--in", str(path), *extra)
        assert code == 2 and stdout == ""
        assert err == "error: order 64 gives 4096 vertices, above the dense graph cap of 2401\n"


# ---------------------------------------------------------------------------
# switch


def test_switch_col_band_order9(nine_file, tmp_path, capsys):
    out = tmp_path / "switched.txt"
    code, stdout, _ = run(
        capsys,
        "switch", "--in", nine_file,
        "--col-block", "3", "--symbols", "1,2", "--out", str(out),
    )
    assert code == 0
    assert "certificate: NOT-ISOMORPHIC" in stdout
    assert "closed form: MATCH" in stdout
    fam = designs.load_family(out)
    assert fam.squares[0] == NINE_SWITCHED


def test_switch_wrong_prediction_exits_1(nine_file, tmp_path, capsys, monkeypatch):
    right = switching.switched_quartic

    def shifted(q, r):
        c0, *rest = right(q, r).coeffs
        return spectra.IntPolynomial((c0 + 1, *rest))

    monkeypatch.setattr(switching, "switched_quartic", shifted)
    out = tmp_path / "switched.txt"
    code, stdout, err = run(
        capsys,
        "switch", "--in", nine_file,
        "--col-block", "3", "--symbols", "1,2", "--out", str(out),
    )
    assert code == 1 and err == ""
    assert stdout == "certificate: NOT-ISOMORPHIC\nclosed form: MISMATCH\n"
    assert designs.load_family(out).squares[0] == NINE_SWITCHED


def test_switch_row_band_order6(tmp_path, capsys):
    src = tmp_path / "six.txt"
    designs.save_family(single(SIX), src)
    out = tmp_path / "switched.txt"
    code, stdout, _ = run(
        capsys,
        "switch", "--in", str(src),
        "--row-block", "1", "--symbols", "1,4", "--out", str(out),
    )
    assert code == 0
    assert "closed form: MATCH" in stdout


def test_switch_involution_round_trip(nine_file, tmp_path, capsys):
    first = tmp_path / "sw1.txt"
    second = tmp_path / "sw2.txt"
    run(
        capsys,
        "switch", "--in", nine_file,
        "--col-block", "3", "--symbols", "1,2", "--out", str(first),
    )
    run(
        capsys,
        "switch", "--in", str(first),
        "--col-block", "3", "--symbols", "1,2", "--out", str(second),
    )
    with open(nine_file, "rb") as fh:
        assert second.read_bytes() == fh.read()


def test_switch_json_payload(nine_file, capsys):
    # without --out the family goes to stdout and diagnostics to stderr
    code, stdout, err = run(
        capsys,
        "switch", "--in", nine_file, "--col-block", "3", "--symbols", "1,2",
        "--json",
    )
    assert code == 0
    fam = designs.parse_family(stdout)
    assert fam.squares[0] == NINE_SWITCHED
    assert "certificate: NOT-ISOMORPHIC" in err
    payload = json.loads(err[err.index("{"):])
    assert payload["verdict"] == "NOT-ISOMORPHIC"
    assert payload["closed_form"] == "MATCH"


def test_switch_invalid_separating_line(tmp_path, capsys):
    src = tmp_path / "six.txt"
    designs.save_family(single(SIX), src)
    code, _, err = run(
        capsys,
        "switch", "--in", str(src), "--row-block", "1", "--symbols", "1,2",
    )
    assert code == 1
    assert "check failed" in err and "lies inside the band" in err


def test_switch_on_a_non_latin_square_exits_1(tmp_path, capsys):
    # well-formed, symbols in range, columns repeat: an invalid square, as
    # `check` and `spectrum` report it
    bad = designs.LatinSquare([[1, 2, 3, 4], [3, 4, 1, 2]] * 2, designs.SudokuShape(2, 2))
    src = tmp_path / "bad.txt"
    designs.save_family(single(bad), src)
    code, stdout, err = run(
        capsys, "switch", "--in", str(src), "--row-block", "1", "--symbols", "1,2"
    )
    assert code == 1 and stdout == ""
    assert err == "check failed: symbol switching requires a Sudoku square\n"
    assert run(capsys, "check", "--in", str(src))[0] == 1


def test_switch_flag_errors(nine_file, four_file, capsys):
    code, _, err = run(capsys, "switch", "--in", nine_file, "--symbols", "1,2")
    assert code == 2 and "exactly one" in err
    code, _, err = run(
        capsys,
        "switch", "--in", nine_file,
        "--row-block", "1", "--col-block", "2", "--symbols", "1,2",
    )
    assert code == 2
    code, _, err = run(
        capsys, "switch", "--in", four_file, "--row-block", "1", "--symbols", "1,2"
    )
    assert code == 2 and "single-square" in err
    code, _, err = run(
        capsys, "switch", "--in", nine_file, "--col-block", "3", "--symbols", "12"
    )
    assert code == 2 and "K1,K2" in err


def test_switch_inapplicable_for_flat_type(tmp_path, capsys):
    src = tmp_path / "flat.txt"
    designs.save_family(single(cyclic_square(4)), src)
    code, _, err = run(
        capsys,
        "switch", "--in", str(src), "--col-block", "1", "--symbols", "1,2",
    )
    assert code == 0
    assert "INAPPLICABLE (needs q, r >= 2)" in err


def test_commands_build_each_graph_once(nine_file, capsys, monkeypatch):
    calls = []
    build = graph.build_mols_graph

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(graph, "build_mols_graph", counted)
    code, stdout, _ = run(capsys, "spectrum", "--in", nine_file, "--verify-closed-form")
    assert code == 0 and stdout.endswith("closed form: MATCH\n")
    # the closed-form verdict reads the squares, not a second graph
    assert len(calls) == 1
    calls.clear()
    code, _, err = run(
        capsys, "switch", "--in", nine_file, "--col-block", "3", "--symbols", "1,2"
    )
    assert code == 0 and "closed form: MATCH" in err
    # one graph for the square and one for the switched square
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# compare


def test_compare_not_isomorphic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    designs.save_family(single(SWITCH4_A), a)
    designs.save_family(single(SWITCH4_B), b)
    code, stdout, _ = run(capsys, "compare", "--a", str(a), "--b", str(b))
    assert code == 0
    assert "verdict: NOT-ISOMORPHIC" in stdout
    assert "first differing coefficient: t^5" in stdout


def test_compare_inconclusive(tmp_path, capsys):
    a = tmp_path / "a.txt"
    designs.save_family(single(SWITCH4_A), a)
    code, stdout, _ = run(capsys, "compare", "--a", str(a), "--b", str(a))
    assert code == 0
    assert "verdict: INCONCLUSIVE" in stdout


def test_compare_json(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    designs.save_family(single(SWITCH4_A), a)
    designs.save_family(single(SWITCH4_B), b)
    code, stdout, _ = run(capsys, "compare", "--a", str(a), "--b", str(b), "--json")
    payload = json.loads(stdout)
    assert payload["verdict"] == "NOT-ISOMORPHIC"
    assert payload["differing_coefficient_index"] == 5


def test_compare_rejects_multi_square_files(four_file, tmp_path, capsys):
    b = tmp_path / "b.txt"
    designs.save_family(single(SWITCH4_B), b)
    code, _, err = run(capsys, "compare", "--a", four_file, "--b", str(b))
    assert code == 2 and "single-square" in err


def test_compare_refuses_before_any_power_sum_product(switched27_file, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("ran the modular power chain")

    monkeypatch.setattr(spectra, "_chain", refuse)
    code, stdout, err = run(capsys, "compare", "--a", switched27_file, "--b", switched27_file)
    assert (code, stdout, err) == (2, "", f"error: {REFUSED27}\n")


def test_switch_above_exact_cap_writes_nothing(tmp_path, switched27_file, capsys):
    a = tmp_path / "f16.txt"
    code, _, _ = run(
        capsys, "construct", "--p", "2", "--m", "2", "--n", "2", "--count", "1", "--out", str(a),
    )
    assert code == 0
    switch = ["switch", "--in", str(a), "--row-block", "1", "--symbols", "1,2"]
    # an invalid switch is still refused first, with exit 1
    code, stdout, err = run(capsys, *switch[:-1], "1,5")
    assert code == 1 and stdout == "" and "check failed" in err
    # a valid switch on 256 vertices is certified and written, and
    # compare tells the two squares apart
    out = tmp_path / "switched.txt"
    code, stdout, err = run(capsys, *switch, "--out", str(out))
    assert code == 0 and err == "" and out.exists()
    assert stdout == "certificate: NOT-ISOMORPHIC\nclosed form: MATCH\n"
    code, stdout, err = run(capsys, "compare", "--a", str(a), "--b", str(out))
    assert code == 0 and err == "" and stdout.startswith("verdict: NOT-ISOMORPHIC\n")
    # a valid switch whose charpoly is refused: no family on stdout or in --out
    spec, _ = next(switches_of(designs.load_family(switched27_file).squares[0]))
    switch = [
        "switch", "--in", switched27_file, f"--{spec.kind}", str(spec.index),
        "--symbols", ",".join(map(str, spec.symbols)),
    ]
    code, stdout, err = run(capsys, *switch)
    assert (code, stdout, err) == (2, "", f"error: {REFUSED27}\n")
    out = tmp_path / "refused.txt"
    code, stdout, err = run(capsys, *switch, "--out", str(out))
    assert (code, stdout, err) == (2, "", f"error: {REFUSED27}\n") and not out.exists()


# every usage error a command raises itself: (argv, stderr line), with
# {four}, {nine} and {switched27} the family files of the fixtures
COMMAND_USAGE_ERRORS = [
    (
        ["construct", "--p", "2", "--m", "1", "--n", "1", "--factor", "2:1:1"],
        "use either --p/--m/--n or --factor, not both",
    ),
    (["construct", "--p", "2", "--m", "1"], "--p, --m and --n are required without --factor"),
    (["construct", "--p", "2", "--m", "1", "--n", "1", "--count", "9"], "--count 9 outside 1..2"),
    (["spectrum", "--in", "{switched27}", "--exact"], REFUSED27),
    (
        ["switch", "--in", "{four}", "--row-block", "1", "--symbols", "1,2"],
        "switch expects a single-square family file",
    ),
    (
        ["switch", "--in", "{nine}", "--symbols", "1,2"],
        "exactly one of --row-block or --col-block is required",
    ),
    (["compare", "--a", "{four}", "--b", "{nine}"], "compare expects single-square family files"),
    (["construct", "--factor", "2:1"], "--factor expects 'p:m:n', got '2:1'"),
    (["construct", "--factor", "2:x:1"], "--factor expects integers, got '2:x:1'"),
    (
        ["switch", "--in", "{nine}", "--row-block", "1", "--symbols", "12"],
        "--symbols expects 'K1,K2', got '12'",
    ),
    (
        ["switch", "--in", "{nine}", "--row-block", "1", "--symbols", "1,x"],
        "--symbols expects integers, got '1,x'",
    ),
    (["spectrum", "--in", "{four}", "--subset", "x"], "--subset expects integers, got 'x'"),
    (["spectrum", "--in", "{four}", "--subset", ","], "--subset selects no square: ','"),
]


@pytest.mark.parametrize("argv, message", COMMAND_USAGE_ERRORS)
def test_command_usage_errors_exit_2_with_one_line(
    argv, message, four_file, nine_file, switched27_file, capsys
):
    files = {"four": four_file, "nine": nine_file, "switched27": switched27_file}
    code, stdout, err = run(capsys, *(arg.format(**files) for arg in argv))
    assert (code, stdout, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# table


def test_table_default(capsys):
    code, stdout, _ = run(capsys, "table")
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 18
    assert "order  2 type (1, 2) count 1 VERIFIED" in stdout
    assert "order  4 type (2, 2) count 2 VERIFIED" in stdout
    assert "order  9 type (3, 3) count 6 VERIFIED" in stdout
    assert "order 11 type (1, 11) count 10 VERIFIED" in stdout
    assert "order 10 type (1, 10) count >=2 SKIPPED (external construction)" in stdout
    assert "order 12 type (1, 12) count >=5 SKIPPED (external construction)" in stdout
    assert "FAILED" not in stdout


def test_table_max_order(capsys):
    code, stdout, _ = run(capsys, "table", "--max-order", "6")
    assert code == 0
    assert len(stdout.splitlines()) == 7
    assert "order 7" not in stdout


def test_table_json(capsys):
    code, stdout, _ = run(capsys, "table", "--json")
    rows = json.loads(stdout)
    assert len(rows) == 18
    statuses = {row["status"] for row in rows}
    assert statuses == {"VERIFIED", "SKIPPED (external construction)"}


# ---------------------------------------------------------------------------
# parser-level errors


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_spectrum_exact_and_numeric_are_exclusive(four_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--in", four_file, "--exact", "--numeric"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error,code,prefix",
    [
        ("FamilyStructureError", 1, "check failed"),
        ("EquitabilityError", 1, "check failed"),
        ("SrgParameterError", 1, "check failed"),
        ("SwitchError", 1, "check failed"),
        ("SwitchValidityError", 1, "check failed"),
        ("TheoremPreconditionError", 1, "check failed"),
        ("FormatError", 2, "error"),
        ("OrderCapError", 2, "error"),
        ("FieldError", 2, "error"),
        ("ClosedFormRangeError", 2, "error"),
    ],
)
def test_failed_checks_exit_1_and_other_value_errors_exit_2(error, code, prefix, monkeypatch, capsys):
    import mosls

    exc_type = getattr(mosls, error)
    assert issubclass(exc_type, mosls.CheckFailed) == (code == 1)

    def raise_it(path):
        raise exc_type("boom")

    monkeypatch.setattr(designs, "load_family", raise_it)
    assert main(["check", "--in", "unused"]) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"
