"""Which modules each command loads, seen in fresh processes, and the lazy
package namespace: `import mosls` loads no layer, and every exported name
is the object its layer module defines.  Also in fresh processes: the CLI
lets numpy's idle OpenBLAS workers sleep and freezes its heap at exit, the
library leaves the environment and the collector alone, and a command's
peak resident set is the same run from source as from bytecode."""

import atexit
import compileall
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mosls
from fixtures import fresh_env

LAYERS = {"mosls.graph", "mosls.spectra", "mosls.switching"}

# at exit, whether the collector was frozen by then; on stderr
FROZEN_AT_EXIT = "frozen at exit: True\n"
REPORT_FREEZE = """
import atexit, gc, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0, file=sys.stderr))
"""

# run cli.main(argv) with its output discarded, then print sys.modules;
# at exit, REPORT_FREEZE's line goes to stderr
RUN_CLI = REPORT_FREEZE + """
import contextlib, io
from mosls import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        cli.main(sys.argv[1:])
    except SystemExit:
        pass
print("\\n".join(sys.modules))
"""

# RUN_CLI, which then prints on its last line the modules in the order their
# imports started: sys.modules moves a module to its end when it has loaded
RUN_CLI_IMPORT_ORDER = """
import sys
started = []

class _Recorder:
    def find_spec(self, name, path=None, target=None):
        started.append(name)
        return None

sys.meta_path.insert(0, _Recorder())
""" + RUN_CLI + """
print(*started)
"""

# after RUN_CLI_IMPORT_ORDER, a library caller's import of the top layer:
# prints on a further line the modules in the order their imports started
IMPORT_SWITCHING = """
started.clear()
import mosls.switching
print(*started)
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
    "switched_charpoly_expected", "switched_quartic", "transpose", "write_family",
}


# installed as sitecustomize: reports on stderr the value of
# OPENBLAS_THREAD_TIMEOUT when numpy, and with it OpenBLAS, is imported,
# and at exit whether the collector was frozen by then
NUMPY_PROBE = REPORT_FREEZE + """
import os

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


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """`python -c code args` run to completion in a new interpreter."""
    argv = [sys.executable, "-c", code, *args]
    return subprocess.run(argv, env=fresh_env(), capture_output=True, text=True, check=True)


def _fresh_cli_stdout(code: str, *args: str) -> str:
    """stdout of a code that runs RUN_CLI, whose process must have frozen
    the collector by exit."""
    res = _fresh(code, *args)
    assert res.stderr == FROZEN_AT_EXIT
    return res.stdout


def _fresh_modules(*args: str) -> set[str]:
    """The modules loaded by RUN_CLI on args."""
    return set(_fresh_cli_stdout(RUN_CLI, *args).split())


@pytest.fixture(scope="module")
def family_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "f4.txt"
    mosls.save_family(mosls.composite_mosls([(2, 1, 1)]), path)
    return str(path)


@pytest.fixture(scope="module")
def square_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "s4.txt"
    fam = mosls.composite_mosls([(2, 1, 1)])
    mosls.save_family(mosls.MoslsFamily(fam.shape, fam.squares[:1]), path)
    return str(path)


# command: argv, with {family} a two-square file and {square} a one-square one
COMMANDS = {
    "construct": ["construct", "--factor", "2:1:1"],
    "table": ["table"],
    "check": ["check", "--in", "{family}"],
    "--help": ["--help"],
    "spectrum": ["spectrum", "--in", "{family}"],
    "graph-export": ["graph-export", "--in", "{family}"],
    "switch": ["switch", "--in", "{square}", "--row-block", "1", "--symbols", "1,2"],
    "compare": ["compare", "--a", "{square}", "--b", "{square}"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_construct_and_gf_load_for_construct_and_table_only(command, family_file, square_file):
    argv = [tok.format(family=family_file, square=square_file) for tok in COMMANDS[command]]
    # --help loads no layer, so its process then imports one as a library would
    code = RUN_CLI_IMPORT_ORDER + (IMPORT_SWITCHING if command == "--help" else "")
    *loaded, started = _fresh_cli_stdout(code, *argv).splitlines()
    if command == "--help":
        # argparse prints the help and exits before main imports designs
        *loaded, by_main = loaded
        assert not {"mosls.designs", "numpy"} & set(by_main.split())
    building = {"mosls.construct", "mosls.gf"}
    if command in ("construct", "table"):
        assert building <= set(loaded)
    else:
        assert not building & set(loaded)
    # every layer, construct and gf aside, starts loading before numpy,
    # which designs imports, so it compiles before numpy loads
    started = started.split()
    layers = {m for m in started if m.startswith("mosls.")} - building
    assert "mosls.designs" in layers
    assert all(started.index(m) < started.index("numpy") for m in layers), started


# run cli.main(argv) with its output discarded, then print its exit code,
# the file cli loaded from and the peak resident set (VmHWM) in kB
RUN_CLI_PEAK = """
import contextlib, io, sys
from mosls import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    status = fh.read().split()
print(code, cli.__file__, status[status.index("VmHWM:") + 1])
"""


STATUS = Path("/proc/self/status")


@pytest.mark.skipif(not (STATUS.exists() and "VmHWM:" in STATUS.read_text()), reason=f"{STATUS} has no VmHWM")
def test_switch_peak_is_the_same_from_source_and_from_bytecode(tmp_path):
    # every layer compiles before numpy loads, so numpy's import reuses the
    # compiler's heap: run from source, `switch` keeps no compile heap in its
    # peak (it kept about 1.3 MiB while graph, spectra and switching compiled
    # after numpy).  The two copies' directory names have equal length, as
    # the length of a path moves the heap's layout.
    fam = mosls.composite_mosls([(3, 1, 0), (2, 0, 2)])  # order 12, type (3, 4)
    square = tmp_path / "s12.txt"
    mosls.save_family(mosls.MoslsFamily(fam.shape, fam.squares[:1]), square)
    argv = ["switch", "--in", str(square), "--row-block", "1", "--symbols", "1,2"]
    peaks = {}
    for copy in ("source", "binary"):
        root = tmp_path / copy
        shutil.copytree(Path(mosls.__file__).parent, root / "mosls", ignore=shutil.ignore_patterns("__pycache__"))
        if copy == "binary":
            assert compileall.compile_dir(root, quiet=1)
        env = fresh_env(str(root), PYTHONDONTWRITEBYTECODE="1")
        res = subprocess.run([sys.executable, "-c", RUN_CLI_PEAK, *argv], env=env, capture_output=True, text=True, check=True)
        code, where, peak = res.stdout.split()
        assert code == "0" and where.startswith(str(root))
        peaks[copy] = int(peak)
    assert abs(peaks["source"] - peaks["binary"]) <= 512, peaks


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
    loaded = _fresh_modules(*[tok.format(family=family_file) for tok in argv])
    if argv == ["--help"]:
        assert not loaded & {"mosls.designs", "numpy"}
    else:
        assert "mosls.designs" in loaded
    assert not loaded & LAYERS
    assert "json" not in loaded


@pytest.mark.parametrize("argv", [["check", "--in", "{family}", "--json"], ["table", "--json"]])
def test_json_output_loads_json_only(argv, family_file):
    loaded = _fresh_modules(*[tok.format(family=family_file) for tok in argv])
    assert "json" in loaded
    assert not loaded & LAYERS


ENTRIES = {"module": ["-m", "mosls.cli"], "script": ["-c", CONSOLE_SCRIPT]}

# argv: exit code, whether argparse writes to stdout (help) or stderr
# (usage), and the entry it runs through
PARSE_ONLY = [
    ([], 2, "stderr", "module"),
    (["--help"], 0, "stdout", "module"),
    (["spectrum", "--help"], 0, "stdout", "script"),
    (["spectrum"], 2, "stderr", "script"),  # --in is required
    (["spectrum", "--in", "x", "--exact", "--numeric"], 2, "stderr", "module"),
    (["construct", "--p", "x"], 2, "stderr", "script"),
    (["graph-export", "--in", "x", "--format", "svg"], 2, "stderr", "module"),
]


@pytest.mark.parametrize(
    "argv,code,stream,entry", PARSE_ONLY, ids=[" ".join(case[0]) or "bare" for case in PARSE_ONLY]
)
def test_parse_stage_loads_no_layer_and_no_numpy(argv, code, stream, entry, numpy_probe):
    res = subprocess.run(
        [sys.executable, *ENTRIES[entry], *argv], env=fresh_env(numpy_probe), capture_output=True, text=True
    )
    assert res.returncode == code
    assert getattr(res, stream).startswith("usage: mosls")
    # the probe's exit hook, registered before cli loaded, runs after
    # cli's freeze and writes the last line of stderr
    if stream == "stdout":
        assert res.stderr == FROZEN_AT_EXIT
    else:
        assert not res.stdout and res.stderr.endswith("\n" + FROZEN_AT_EXIT)
    loaded = _fresh_modules(*argv)
    assert not loaded & {"numpy", "mosls.designs"}
    assert {m for m in loaded if m.startswith("mosls.")} == {"mosls.cli"}


# in a fresh process, args.func(args) without main, then cli.main(argv):
# the stdout and return code of each, as JSON
RUN_HANDLER_THEN_MAIN = """
import contextlib, io, json, sys
from mosls import cli

def handler(argv):
    args = cli.build_parser().parse_args(argv)
    return args.func(args)

runs = []
for call in (handler, cli.main):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = call(sys.argv[1:])
    runs.append([out.getvalue(), code])
print(json.dumps(runs))
"""


def test_table_rows_build_without_main(family_file, square_file):
    # the layers load on first use, so neither the public generator nor a
    # command handler needs main to have run first
    code = "from mosls.cli import verified_table_rows\nprint(*(row['status'] for row in verified_table_rows(4, None)))"
    assert _fresh(code).stdout == "VERIFIED VERIFIED VERIFIED VERIFIED\n"
    for command, argv in COMMANDS.items():
        if command == "--help":
            continue
        argv = [tok.format(family=family_file, square=square_file) for tok in argv]
        handler_run, main_run = json.loads(_fresh(RUN_HANDLER_THEN_MAIN, *argv).stdout)
        assert handler_run[0] and handler_run == main_run, command


def test_graph_export_loads_no_spectra_or_switching(family_file):
    loaded = _fresh_modules("graph-export", "--in", family_file)
    assert "mosls.graph" in loaded
    assert not loaded & {"mosls.spectra", "mosls.switching"}


def test_spectrum_residual_loads_no_fractions_or_decimal(family_file):
    # the residual's rationals come from spectra._nearest_ratio; fractions
    # would pull in decimal and _decimal, about 0.3 MiB and 3 ms per process
    loaded = _fresh_modules("spectrum", "--in", family_file, "--verify-closed-form")
    assert "mosls.spectra" in loaded
    assert not loaded & {"fractions", "decimal", "_decimal"}


def test_bare_import_loads_no_layer():
    code = (
        "import sys, mosls\n"
        "print(*sorted(m for m in sys.modules if m.startswith('mosls')))\n"
        "print(mosls.graph.__name__, *sorted(m for m in sys.modules if m.startswith('mosls')))\n"
    )
    bare, after_graph = _fresh(code).stdout.splitlines()
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


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("user,seen", [(None, "4"), ("30", "30")], ids=["default", "user-set"])
def test_cli_sets_the_openblas_idle_spin_before_numpy_loads(entry, user, seen, numpy_probe, family_file):
    # check loads numpy (--help does not); the process froze its heap by
    # the time the probe's exit hook, registered before cli loaded, ran
    overrides = {} if user is None else {"OPENBLAS_THREAD_TIMEOUT": user}
    res = subprocess.run(
        [sys.executable, *ENTRIES[entry], "check", "--in", family_file],
        env=fresh_env(numpy_probe, **overrides), capture_output=True, text=True,
    )
    assert res.returncode == 0 and res.stdout.startswith("order 4 type 2 2 count 2\n")
    assert res.stderr == f"at numpy import: {seen}\n" + FROZEN_AT_EXIT


def test_library_leaves_the_environment_alone():
    code = REPORT_FREEZE + (
        "import os\n"
        "before = dict(os.environ)\n"
        "import mosls, mosls.gf, mosls.designs, mosls.construct, mosls.graph, mosls.spectra, mosls.switching\n"
        "print(dict(os.environ) == before, 'OPENBLAS_THREAD_TIMEOUT' in os.environ)\n"
    )
    res = _fresh(code)
    assert (res.stdout, res.stderr) == ("True False\n", "frozen at exit: False\n")


def test_main_neither_freezes_nor_registers_per_call(family_file, capsys):
    # cli registered its exit-time freeze once, when it loaded
    from mosls import cli

    callbacks = atexit._ncallbacks()
    for _ in range(2):
        assert cli.main(["check", "--in", family_file]) == 0
    assert capsys.readouterr().out.startswith("order 4 type 2 2 count 2\n")
    assert gc.get_freeze_count() == 0
    assert atexit._ncallbacks() == callbacks


def test_help_keeps_at_most_one_cpu_busy(family_file):
    # an idle OpenBLAS worker that spins after numpy loads keeps a second
    # CPU busy: the median (user + sys) / wall of a command that loads numpy
    # and does little else, such as this check, read up to about 1.5 on 2
    # CPUs; on 1 CPU this cannot fail
    ratios = []
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "mosls.cli", "check", "--in", family_file],
            env=fresh_env(), capture_output=True, check=True,
        )
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
        ratios.append(cpu / wall)
    assert statistics.median(ratios) <= 1.3, ratios
