"""Which modules each command loads, seen in fresh processes, and the lazy
package namespace: `import mosls` loads no layer, and every exported name
is the object its layer module defines.  Also in fresh processes: the CLI
lets numpy's idle OpenBLAS workers sleep, and the library leaves the
environment alone."""

import importlib
import resource
import statistics
import subprocess
import sys
import time

import pytest

import mosls
from fixtures import fresh_env

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
    "CellGraph", "Certificate", "CheckFailed", "ClosedFormRangeError",
    "DEFAULT_ORDER_CAP", "EquitabilityError", "FamilyStructureError",
    "FieldError", "FormatError", "IntPolynomial", "LatinSquare", "MoslsFamily",
    "OrderCapError", "QuotientMatrix", "RowCycle", "SpectrumReport", "SrgParameterError",
    "SudokuShape", "SwitchError", "SwitchSpec", "SwitchValidityError",
    "TheoremPreconditionError", "are_orthogonal",
    "block_partition", "build_mols_graph", "build_mosls_graph", "certify_charpoly",
    "charpoly_exact", "commute_check", "composite_count", "composite_mosls",
    "field_square", "format_family", "is_block_permutational",
    "is_latin", "is_sudoku", "load_family", "mosls_graph_spectrum",
    "nonisomorphism_certificate", "numeric_spectrum", "parse_family", "poly_product",
    "product", "quotient_matrix", "quotient_spectrum", "row_cycle_decompose",
    "row_cycle_switch", "save_family", "srg_check", "srg_spectrum", "sudoku_symbol_switch",
    "switched_charpoly_expected", "switched_quartic", "transpose",
}


# installed as sitecustomize: reports on stderr the value of
# OPENBLAS_THREAD_TIMEOUT when numpy, and with it OpenBLAS, is imported
NUMPY_PROBE = """
import os, sys

class _Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            sys.meta_path.remove(self)
            print("at numpy import:", os.environ.get("OPENBLAS_THREAD_TIMEOUT"), file=sys.stderr)
        return None

sys.meta_path.insert(0, _Probe())
"""

# what the `mosls` script that pip installs from [project.scripts] runs
CONSOLE_SCRIPT = "import sys; from mosls.cli import main; sys.exit(main())"


def _fresh_stdout(code: str, *args: str) -> str:
    """stdout of `python -c code args` in a new interpreter."""
    argv = [sys.executable, "-c", code, *args]
    return subprocess.run(argv, env=fresh_env(), capture_output=True, text=True, check=True).stdout


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


@pytest.fixture(scope="module")
def numpy_probe(tmp_path_factory):
    path = tmp_path_factory.mktemp("probe")
    (path / "sitecustomize.py").write_text(NUMPY_PROBE)
    return str(path)


@pytest.mark.parametrize("entry", [["-m", "mosls.cli"], ["-c", CONSOLE_SCRIPT]], ids=["module", "script"])
@pytest.mark.parametrize("user,seen", [(None, "4"), ("30", "30")], ids=["default", "user-set"])
def test_cli_sets_the_openblas_idle_spin_before_numpy_loads(entry, user, seen, numpy_probe):
    overrides = {} if user is None else {"OPENBLAS_THREAD_TIMEOUT": user}
    res = subprocess.run(
        [sys.executable, *entry, "--help"],
        env=fresh_env(numpy_probe, **overrides), capture_output=True, text=True,
    )
    assert res.returncode == 0 and res.stdout.startswith("usage: ")
    assert res.stderr == f"at numpy import: {seen}\n"


def test_library_leaves_the_environment_alone():
    code = (
        "import os\n"
        "before = dict(os.environ)\n"
        "import mosls, mosls.gf, mosls.designs, mosls.construct, mosls.graph, mosls.spectra, mosls.switching\n"
        "print(dict(os.environ) == before, 'OPENBLAS_THREAD_TIMEOUT' in os.environ)\n"
    )
    assert _fresh_stdout(code) == "True False\n"


def test_help_keeps_at_most_one_cpu_busy():
    # an idle OpenBLAS worker that spins after numpy loads keeps a second
    # CPU busy: the median (user + sys) / wall read up to about 1.5 on 2
    # CPUs; on 1 CPU this cannot fail
    ratios = []
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "mosls.cli", "--help"],
            env=fresh_env(), capture_output=True, check=True,
        )
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
        ratios.append(cpu / wall)
    assert statistics.median(ratios) <= 1.3, ratios
