"""Which modules each command loads, seen in fresh processes, and the lazy
package namespace: `import mosls` loads no layer, and every exported name
is the object its layer module defines."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mosls

SRC = str(Path(mosls.__file__).parent.parent)
LAYERS = {"mosls.graph", "mosls.spectra", "mosls.switching"}

# run cli.main(argv) with its output discarded, then print sys.modules
RUN_CLI = """
import contextlib, io, sys
from mosls import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        cli.main(sys.argv[1:])
    except SystemExit:
        pass
print("\\n".join(sys.modules))
"""

PUBLIC = {
    "Block", "CellGraph", "Certificate", "CheckFailed", "ClosedFormRangeError",
    "ConvergenceError", "DEFAULT_ORDER_CAP", "EquitabilityError", "FamilyStructureError",
    "FieldError", "FormatError", "IntPolynomial", "LatinSquare", "MoslsFamily",
    "OrderCapError", "QuotientMatrix", "RowCycle", "SpectrumReport", "SrgParameterError",
    "SudokuShape", "SwitchError", "SwitchSpec", "SwitchValidityError",
    "TheoremPreconditionError", "are_orthogonal", "block", "block_map_factorization",
    "block_partition", "build_mols_graph", "build_mosls_graph", "certify_charpoly",
    "charpoly_exact", "commute_check", "composite_count", "composite_mosls",
    "family_pairwise_orthogonal", "field_square", "format_family", "is_block_permutational",
    "is_latin", "is_sudoku", "jacobi_eigenvalues", "load_family", "mosls_graph_spectrum",
    "nonisomorphism_certificate", "numeric_spectrum", "parse_family", "poly_product",
    "product", "quotient_matrix", "quotient_spectrum", "row_cycle_decompose",
    "row_cycle_switch", "save_family", "srg_check", "srg_spectrum", "sudoku_symbol_switch",
    "switched_charpoly_expected", "switched_quartic", "transpose",
}


def _fresh_stdout(code: str, *args: str) -> str:
    """stdout of `python -c code args` in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-c", code, *args]
    return subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout


def _fresh_modules(code: str, *args: str) -> set[str]:
    return set(_fresh_stdout(code, *args).split())


@pytest.fixture(scope="module")
def family_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "f4.txt"
    mosls.save_family(mosls.composite_mosls([(2, 1, 1)]), path)
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--factor", "2:1:1"],
        ["check", "--in", "{family}"],
        ["table"],
        ["--help"],
    ],
)
def test_family_commands_load_no_graph_layer_and_no_json(argv, family_file):
    loaded = _fresh_modules(RUN_CLI, *[tok.format(family=family_file) for tok in argv])
    assert "mosls.designs" in loaded
    assert not loaded & LAYERS
    assert "json" not in loaded


@pytest.mark.parametrize("argv", [["check", "--in", "{family}", "--json"], ["table", "--json"]])
def test_json_output_loads_json_only(argv, family_file):
    loaded = _fresh_modules(RUN_CLI, *[tok.format(family=family_file) for tok in argv])
    assert "json" in loaded
    assert not loaded & LAYERS


def test_graph_export_loads_no_spectra_or_switching(family_file):
    loaded = _fresh_modules(RUN_CLI, "graph-export", "--in", family_file)
    assert "mosls.graph" in loaded
    assert not loaded & {"mosls.spectra", "mosls.switching"}


def test_bare_import_loads_no_layer():
    code = (
        "import sys, mosls\n"
        "print(*sorted(m for m in sys.modules if m.startswith('mosls')))\n"
        "print(mosls.graph.__name__, *sorted(m for m in sys.modules if m.startswith('mosls')))\n"
    )
    bare, after_graph = _fresh_stdout(code).splitlines()
    assert bare == "mosls"
    # a subpackage still resolves as an attribute, loading only what it imports
    assert after_graph == "mosls.graph mosls mosls.designs mosls.graph"


def test_exports_are_the_layer_objects():
    assert set(mosls.__all__) == PUBLIC
    for name in mosls.__all__:
        layer = importlib.import_module(f"mosls.{mosls._HOME[name]}")
        assert getattr(mosls, name) is getattr(layer, name)
    assert set(mosls.__all__) | {"graph", "spectra", "switching", "cli"} <= set(dir(mosls))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'field_mosls'"):
        mosls.field_mosls
    assert not hasattr(mosls, "_max_abs")


def test_loaded_layer_exports_are_package_attributes():
    # bound by the import itself, as in an eager package, so code that
    # walks vars(mosls) sees them without going through __getattr__
    spectra = importlib.import_module("mosls.spectra")
    assert vars(mosls)["charpoly_exact"] is spectra.charpoly_exact
