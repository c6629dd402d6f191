import json

import pytest

from mosls.cli import main
from mosls import composite_mosls, designs, graph, spectra
from mosls.switching import SwitchSpec, sudoku_symbol_switch
from fixtures import (
    FOUR_FAMILY,
    NINE,
    NINE_SWITCHED,
    REMARK4,
    SIX,
    SWITCH4_A,
    SWITCH4_B,
    cyclic_square,
    single,
)


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
    # or NaN width read "residual: 1.000e+00", inf one group "x16"
    path = tmp_path / "one.txt"
    designs.save_family(single(FOUR_FAMILY.squares[0]), path)
    for bad in ("-1e-6", "nan", "inf", "-inf"):
        code, stdout, err = run(capsys, "spectrum", "--in", str(path), f"--group-tol={bad}")
        assert code == 2 and stdout == ""
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


def test_spectrum_rejects_invalid_family(tmp_path, capsys):
    path = tmp_path / "remark.txt"
    designs.save_family(single(REMARK4), path)
    code, _, err = run(capsys, "spectrum", "--in", str(path))
    assert code == 1
    assert "check failed" in err


def test_spectrum_cap_fallback(tmp_path, capsys):
    path = tmp_path / "big.txt"
    code, stdout, _ = run(
        capsys,
        "construct", "--p", "13", "--m", "0", "--n", "1", "--count", "1",
        "--order-cap", "16", "--out", str(path),
    )
    assert code == 0
    code, stdout, err = run(capsys, "spectrum", "--in", str(path))
    assert code == 0
    assert "falling back to numeric-only" in err
    assert "charpoly:" not in stdout
    code, _, err = run(capsys, "spectrum", "--in", str(path), "--exact")
    assert code == 2
    assert "exceed the exact cap" in err


@pytest.fixture(scope="module")
def field16_file(tmp_path_factory):
    """The order-16 field family, type (4, 4): 256 vertices, above the cap."""
    path = tmp_path_factory.mktemp("field16") / "f16.txt"
    assert main(["construct", "--p", "2", "--m", "2", "--n", "2", "--out", str(path)]) == 0
    return str(path)


def test_spectrum_certifies_the_closed_form_above_the_cap(field16_file, capsys):
    code, stdout, err = run(capsys, "spectrum", "--in", field16_file, "--verify-closed-form")
    assert code == 0
    assert "vertices 256" in stdout
    assert "exceed the exact cap 150; falling back to numeric-only" in err
    assert "charpoly:" not in stdout and "residual:" not in stdout
    assert stdout.endswith("closed form: MATCH\n")


def test_spectrum_wrong_closed_form_above_the_cap(field16_file, capsys, monkeypatch):
    right = spectra.mosls_graph_spectrum

    def moved(q, r, f):
        # one eigenvalue gives up a unit of multiplicity to the next
        (f0, m0), (f1, m1), *rest = right(q, r, f)
        return [(f0, m0 - 1), (f1, m1 + 1), *rest]

    monkeypatch.setattr(spectra, "mosls_graph_spectrum", moved)
    code, stdout, err = run(capsys, "spectrum", "--in", field16_file, "--verify-closed-form")
    assert code == 1
    assert "falling back to numeric-only" in err
    assert stdout.endswith("closed form: MISMATCH\n")


# the field families above the exact cap that the large-graph inputs use:
# order 25, and order 27 in both types
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
    assert code == 0
    assert "falling back to numeric-only" in err
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
        assert code == 0 and "vertices 729" in stdout
        assert "falling back to numeric-only" in err
        assert stdout.endswith(f"closed form: {verdict}\n")


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


@pytest.mark.parametrize("command", ["graph-export", "spectrum"])
def test_dense_graph_cap_exits_2(command, tmp_path, capsys):
    path = tmp_path / "f64.txt"
    code, _, _ = run(
        capsys,
        "construct", "--p", "2", "--m", "3", "--n", "3", "--count", "1",
        "--order-cap", "64", "--out", str(path),
    )
    assert code == 0
    code, stdout, err = run(capsys, command, "--in", str(path))
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
    # the commute check reads the graph the command already holds
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


def test_compare_above_exact_cap_fails_before_building_graphs(tmp_path, capsys, monkeypatch):
    a = tmp_path / "f16.txt"
    code, _, _ = run(
        capsys, "construct", "--p", "2", "--m", "2", "--n", "2", "--count", "1", "--out", str(a),
    )
    assert code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("built a cell graph above the exact cap")

    monkeypatch.setattr("mosls.switching.build_mosls_graph", refuse)
    code, stdout, err = run(capsys, "compare", "--a", str(a), "--b", str(a))
    assert code == 2 and stdout == ""
    assert err == "error: matrix size 256 exceeds exact cap 150\n"


def test_switch_above_exact_cap_writes_nothing(tmp_path, capsys):
    a = tmp_path / "f16.txt"
    code, _, _ = run(
        capsys, "construct", "--p", "2", "--m", "2", "--n", "2", "--count", "1", "--out", str(a),
    )
    assert code == 0
    switch = ["switch", "--in", str(a), "--row-block", "1", "--symbols", "1,2"]
    # an invalid switch is still refused first, with exit 1
    code, stdout, err = run(capsys, *switch[:-1], "1,5")
    assert code == 1 and stdout == "" and "check failed" in err
    # a valid switch on 256 vertices: no family on stdout or in --out
    code, stdout, err = run(capsys, *switch)
    assert code == 2 and stdout == ""
    assert err == "error: matrix size 256 exceeds exact cap 150\n"
    out = tmp_path / "switched.txt"
    code, stdout, err = run(capsys, *switch, "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err == "error: matrix size 256 exceeds exact cap 150\n"


# every usage error a command raises itself: (argv, stderr line), with
# {four}, {nine} and {field16} the family files of the fixtures
COMMAND_USAGE_ERRORS = [
    (
        ["construct", "--p", "2", "--m", "1", "--n", "1", "--factor", "2:1:1"],
        "use either --p/--m/--n or --factor, not both",
    ),
    (["construct", "--p", "2", "--m", "1"], "--p, --m and --n are required without --factor"),
    (["construct", "--p", "2", "--m", "1", "--n", "1", "--count", "9"], "--count 9 outside 1..2"),
    (["spectrum", "--in", "{field16}", "--exact"], "256 vertices exceed the exact cap 150"),
    (
        ["switch", "--in", "{four}", "--row-block", "1", "--symbols", "1,2"],
        "switch expects a single-square family file",
    ),
    (
        ["switch", "--in", "{nine}", "--symbols", "1,2"],
        "exactly one of --row-block or --col-block is required",
    ),
    (["compare", "--a", "{four}", "--b", "{nine}"], "compare expects single-square family files"),
]


@pytest.mark.parametrize("argv, message", COMMAND_USAGE_ERRORS)
def test_command_usage_errors_exit_2_with_one_line(
    argv, message, four_file, nine_file, field16_file, capsys
):
    files = {"four": four_file, "nine": nine_file, "field16": field16_file}
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
