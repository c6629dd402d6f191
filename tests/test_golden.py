"""Golden CLI output: sha256 digests of the exit code, stdout and stderr of
`construct`, `check`, `table` and the exact-spectrum commands `switch`,
`compare` and `spectrum`, plus the `--out` file where one is written.

The construct cases are every constructible `table` row (default order cap)
and ten families of order 25-81 built with `--order-cap 81`.  The exact
spectrum cases run on the order-9 fixture pair, on the first square of
each order-12 type, on `switch` and `compare` of the first order-16
(4, 4) and order-27 (3, 9) field squares, 256 and 729 vertices, and on
`spectrum` of those two whole field families and of the switched
order-27 square.  A changed digest means some byte of the command's
output or its exit code changed.  `spectrum --verify-closed-form` above
150 vertices also prints LAPACK's numbers, which differ between builds,
so only its other lines are digested; order 49 runs with --full-sweep.

The help cases digest `mosls --help`, `mosls construct --help` and
`mosls table --help` at a fixed width of 80 columns.

The failure-path cases digest exit 1, exit 2 and INAPPLICABLE outputs:
`check` of a family that holds one square twice and of a truncated file,
the vertex cap, a bad `--subset`, `--verify-closed-form` on a family that
is not orthogonal, on a square that is not block-permutational and on a
MOLS graph, `switch` of such a square, an invalid band switch, a flat
square and a two-square file, `compare` across shapes and of a
two-square file, `spectrum` of a square that is not Sudoku, and a
`construct --count` beyond the family.  Two kinds of error are left out:
argparse usage errors, whose line wrapping follows the terminal width,
and missing-file errors, whose message holds a path.

Every case calls cli.main in-process; a `construct --out`, a `switch
--out`, a `spectrum`, an exit-1 and an exit-2 case also run as `python -m
mosls.cli` in fresh processes, against the same digests.
"""

import hashlib
import json

import numpy as np
import pytest

from fixtures import NINE, NINE_SWITCHED, cyclic_square, fresh_cli_record, single
from mosls import cli, designs, spectra, switching

# name: (factors p:m:n, order cap or None for the default)
CONSTRUCT_CASES = {
    "t2-1x2": (["2:0:1"], None),
    "t3-1x3": (["3:0:1"], None),
    "t4-1x4": (["2:0:2"], None),
    "t4-2x2": (["2:1:1"], None),
    "t5-1x5": (["5:0:1"], None),
    "t6-1x6": (["2:0:1", "3:0:1"], None),
    "t6-2x3": (["2:1:0", "3:0:1"], None),
    "t7-1x7": (["7:0:1"], None),
    "t8-1x8": (["2:0:3"], None),
    "t8-2x4": (["2:1:2"], None),
    "t9-1x9": (["3:0:2"], None),
    "t9-3x3": (["3:1:1"], None),
    "t10-2x5": (["2:1:0", "5:0:1"], None),
    "t11-1x11": (["11:0:1"], None),
    "t12-2x6": (["2:1:1", "3:0:1"], None),
    "t12-3x4": (["3:1:0", "2:0:2"], None),
    "f25": (["5:1:1"], 81),
    "f27-3x9": (["3:1:2"], 81),
    "f27-9x3": (["3:2:1"], 81),
    "f32": (["2:3:2"], 81),
    "f49": (["7:1:1"], 81),
    "f64": (["2:3:3"], 81),
    "f81": (["3:2:2"], 81),
    "c36": (["2:1:1", "3:1:1"], 81),
    "c48": (["2:2:2", "3:0:1"], 81),
    "c50": (["2:1:0", "5:1:1"], 81),
}

CONSTRUCT_DIGESTS = {
    "c36": "1e9dca13f8574c3489fb54e466417a41e2360d10ee82c67aedd3737bf133bfde",
    "c48": "ec1d0f18e5788ef11114a83853cdf5828129b8b3566dbad7a1418fc65931e2b3",
    "c50": "555c36cc1625828e240dbeb6d288d5c53831728502264704585a97ecdf464fbe",
    "f25": "40775fd1b68028f1b055e79ccd9366f07ee2f0fe1f8784fec5932be958a3f3a8",
    "f27-3x9": "dbcc0a7fc33f79e884839c2d6d85a2efbe2aeea03c789058b91221e179f49559",
    "f27-9x3": "2ae31d5d2e6993884e8d705fcebf807062ec44f6e1110a82eca90f8842f7818c",
    "f32": "414ae68fb00260f98c214182fe31632ab3f93afa9076308128d701fae80e8a9b",
    "f49": "e85917294ac1d9ddc46efdcb4a4afd524d90dacf550b7f66c16da91dcfc556c2",
    "f64": "2add0260429b8b2a231c23670d6b358aac9a341a26a72480c97b937b2b11a96d",
    "f81": "66d896ab83f5be94da84079be4ad1c738cb99f5d26182e5420c4322bac76aa26",
    "t10-2x5": "8b506ef7a7a1eb0f739a93e911e26b302cabc2b702e8a0083933ee5de76cf5e7",
    "t11-1x11": "d49125a2578432bdb7d294fcb08f025b2b98519ea3a1c68e6dfb22478835f872",
    "t12-2x6": "27c3a61b1f8dbb656c2262fad16bec29514a9e25e2d6f21fb2af399def7ba22f",
    "t12-3x4": "5b3da659c42ec48d6e1d67d7f3be3d3b1d28ff0066017a28c49c0c10fe63e7c4",
    "t2-1x2": "ae030b32035c90bce1c5a4c7fefb436c29e358b796dd81a4518c0c4d119e08fb",
    "t3-1x3": "d43efd33c4e3a3e75924c8adefe3e390d7184b60638fe4a1a1c946f5ba8d98ad",
    "t4-1x4": "56d6d89b774bbbfddf25192295ed009b4f2e0d2fb22f9f11f602b8ec7363c548",
    "t4-2x2": "7268a35e55f213bd4b4ef8e521f4f8ae41ef2e23b590854301916328603e0372",
    "t5-1x5": "f8167281f5feff30667093af8ec40734eaac9ff3e5be073780ea57429fd64a86",
    "t6-1x6": "3cc424c96c247acbe1dff3680bb315249d50ec7e52a7effa5bf0be5281689049",
    "t6-2x3": "846b14e6d77851367ed966954035b7bc8893ab2fd529ba84c304bb86efa16790",
    "t7-1x7": "3f21dcf3e2ec26fc0a7f901c523c2b068b3bd1c271387a9f70bd3420f478ebc9",
    "t8-1x8": "cb5ff76d70dc5f2f833bbc2ad2d8eb557af4425c55753dd0be3efe8da2492171",
    "t8-2x4": "932aadff0b93f2dde03b89e8c789a9f9d5150312db559127195f64ef1573c4da",
    "t9-1x9": "21eb7e3c78716ccc5fb8f8f5e085628c0aede774af554d30f88f3ada7b5b693c",
    "t9-3x3": "091ce503c14f80a3eb3328e2c882a621c7edc1c90fc3394b2fb45ec978681076",
}

# (family, extra check flags)
CHECK_CASES = [("f27-3x9", []), ("f49", []), ("f49", ["--json"]), ("c50", [])]

CHECK_DIGESTS = {
    "f27-3x9": "66231d4995f86969d3bfb31800f46561f916d0c69b1e8d8af7493bea7766f908",
    "f49": "d6314212f00ec16afaca07968aec971c983d852093ebeafb163ae44cbd69993f",
    "f49 --json": "4e0bf525179bb0cf0715cee84e8acccfbcaa3bdf9eb1a0936fc95072df7c9fa9",
    "c50": "c9de1765ce4e17c6e7b6556095f87b7190ba79f3b1aaaa03d49c8c5899195088",
}

TABLE_DIGESTS = {
    "table": "6873f5ba1dbe8be29fa15c36b83b42624f438acf256140853c5f792b2738a93b",
    "table --json": "a80caa4751f06fb15766ebf6a83cc81cb2d6976088c1022bf978c36dbcf3bf0d",
}


def _construct_argv(name: str) -> list[str]:
    factors, cap = CONSTRUCT_CASES[name]
    if len(factors) == 1:
        p, m, n = factors[0].split(":")
        argv = ["construct", "--p", p, "--m", m, "--n", n]
    else:
        argv = ["construct"] + [tok for f in factors for tok in ("--factor", f)]
    return argv + (["--order-cap", str(cap)] if cap else [])


def _sha(record) -> str:
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def _format(argv, names) -> list[str]:
    """argv with its {input} placeholders filled from names."""
    return [tok.format_map({k: str(v) for k, v in names.items()}) for tok in argv]


def _digest(argv, capsys, out_path=None) -> str:
    code = cli.main(argv)
    out, err = capsys.readouterr()
    record = [code, out, err]
    if out_path is not None:
        record.append(out_path.read_text())
    return _sha(record)


@pytest.mark.parametrize("name", sorted(CONSTRUCT_CASES))
def test_construct_output(name, capsys):
    assert _digest(_construct_argv(name), capsys) == CONSTRUCT_DIGESTS[name]


@pytest.mark.parametrize("name,flags", CHECK_CASES)
def test_check_output(name, flags, tmp_path, capsys):
    path = tmp_path / f"{name}.txt"
    assert cli.main(_construct_argv(name) + ["--out", str(path)]) == 0
    capsys.readouterr()
    key = " ".join([name] + flags)
    assert _digest(["check", "--in", str(path)] + flags, capsys) == CHECK_DIGESTS[key]


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_table_output(flags, capsys):
    key = " ".join(["table"] + flags)
    assert _digest(["table"] + flags, capsys) == TABLE_DIGESTS[key]



# argv: sha256 of [exit code, stdout, stderr] of a help request
HELP_DIGESTS = {
    "--help": "19d4800dfa039d241aebcb84e0c4f6674251994af7a9787078566c0976c406c9",
    "construct --help": "c6d35b2b1b78157182d8e60d17a2b254305d309ed54e9026ba22db734d9d5235",
    "table --help": "88073bf206e0b388933a420172b1e8e756eebe50fb05161ea332f36e9cd30d3d",
}


@pytest.mark.parametrize("argv", sorted(HELP_DIGESTS))
def test_help_output(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
    with pytest.raises(SystemExit) as exit:
        cli.main(argv.split())
    assert _sha([exit.value.code, *capsys.readouterr()]) == HELP_DIGESTS[argv]

# single-square inputs, the first square of each family:
# name -> (construct factors, switch that is valid on it)
SQUARE_INPUTS = {
    "o12-2x6": (["2:1:1", "3:0:1"], switching.SwitchSpec("row-block", 1, (1, 4))),
    "o12-3x4": (["3:1:0", "2:0:2"], switching.SwitchSpec("row-block", 1, (1, 2))),
    "o12-4x3": (["2:2:0", "3:0:1"], switching.SwitchSpec("row-block", 1, (1, 4))),
    "o16-4x4": (["2:2:2"], switching.SwitchSpec("row-block", 1, (1, 2))),
    "o27-3x9": (["3:1:2"], switching.SwitchSpec("col-block", 1, (1, 2))),
}

# whole field families, every square: name -> construct factors
FAMILY_INPUTS = {"o16-4x4-all": ["2:2:2"], "o27-3x9-all": ["3:1:2"]}

# name: argv with {input} placeholders; "{out}" marks a written --out file
EXACT_CASES = {
    "switch nine": ["switch", "--in", "{nine}", "--col-block", "3", "--symbols", "1,2", "--out", "{out}"],
    "switch nine --json": [
        "switch", "--in", "{nine}", "--col-block", "3", "--symbols", "1,2", "--out", "{out}", "--json",
    ],
    "switch nine to stdout": ["switch", "--in", "{nine}", "--col-block", "3", "--symbols", "1,2"],
    "switch o12-2x6 --json": [
        "switch", "--in", "{o12-2x6}", "--row-block", "1", "--symbols", "1,4", "--out", "{out}", "--json",
    ],
    "switch o12-4x3": ["switch", "--in", "{o12-4x3}", "--row-block", "1", "--symbols", "1,4", "--out", "{out}"],
    "compare nine": ["compare", "--a", "{nine}", "--b", "{nine-switched}"],
    "compare nine --json": ["compare", "--a", "{nine}", "--b", "{nine-switched}", "--json"],
    "compare nine itself": ["compare", "--a", "{nine}", "--b", "{nine}"],
    "compare o12-3x4 --json": ["compare", "--a", "{o12-3x4}", "--b", "{o12-3x4-switched}", "--json"],
    "spectrum nine --exact": ["spectrum", "--in", "{nine}", "--exact"],
    "spectrum o12-4x3 --exact": ["spectrum", "--in", "{o12-4x3}", "--exact"],
    "spectrum nine --verify-closed-form": ["spectrum", "--in", "{nine}", "--verify-closed-form"],
    "spectrum nine --verify-closed-form --json": ["spectrum", "--in", "{nine}", "--verify-closed-form", "--json"],
    "spectrum o12-3x4 --verify-closed-form": ["spectrum", "--in", "{o12-3x4}", "--verify-closed-form"],
    "switch o16-4x4 --json": ["switch", "--in", "{o16-4x4}", "--row-block", "1", "--symbols", "1,2", "--json"],
    "compare o16-4x4 --json": ["compare", "--a", "{o16-4x4}", "--b", "{o16-4x4-switched}", "--json"],
    # a column-band switch: the theorem reads the square as type (9, 3)
    "switch o27-3x9 --json": ["switch", "--in", "{o27-3x9}", "--col-block", "1", "--symbols", "1,2", "--json"],
    "spectrum o16-4x4-all --exact": ["spectrum", "--in", "{o16-4x4-all}", "--exact"],
    "spectrum o27-3x9-all --exact": ["spectrum", "--in", "{o27-3x9-all}", "--exact"],
    "spectrum o27-3x9-switched --exact": ["spectrum", "--in", "{o27-3x9-switched}", "--exact"],
}

EXACT_DIGESTS = {
    "compare nine": "1c573e1715ac25fc19c0d6007e33b2e8fbdcf84063511fcd9efd06533dad3cfe",
    "compare nine --json": "05e091490c9589be454dd8838614052be1214b1ff5f84b3784a62574cf8cbb99",
    "compare nine itself": "2c9426df1aa3d555d866e42bf314c8deafe33523d839b457142cda4bbbc04b70",
    "compare o12-3x4 --json": "9ba567cbb7a6bc08d26040650d1033cac4ad3cf164005911d789f2fdff86e1f9",
    "compare o16-4x4 --json": "19b91072aa6a019649ce0e89dd39fe620dcd8065d1581cab34d4e2d35604ea0b",
    "spectrum nine --exact": "c8d88cf8369b29eaea10c7a5a2064c0cf6ab550a4d4a20f7d66953603c23a294",
    "spectrum nine --verify-closed-form": "abfc045b7192be9ff152eeb5178cf416dd4cf3472a7550a13cf0264d187d954a",
    "spectrum nine --verify-closed-form --json": "845517a2d42708ec88c8661290388e4619b6750bfb653bf3b3ac8dce02c4a362",
    "spectrum o12-3x4 --verify-closed-form": "6a7814ad61da2187cbc389f647fe85b5eeb9df1a061714c76ab8c790a72c14df",
    "spectrum o12-4x3 --exact": "3096dd12e7fb28030ebe42e5b4f9a2354c0e7fdf513242078fb17e5c8cd9a2bd",
    "spectrum o16-4x4-all --exact": "cdc0f49996e9bff8bdf7e5a9a2d23ff58ee08ba902ce0206f04aff9e3df20e2d",
    "spectrum o27-3x9-all --exact": "f50700fb315ac22d4fd2d7b23e0317943cc5d3998d726f168678e54395660602",
    "spectrum o27-3x9-switched --exact": "bff6cda796c0f134330b17da28c9606ed2f32e23e0dc9ad21538545ec5874b31",
    "switch nine": "7b4e32e1d99194811b88e7c36cfbbfb13689ba4b8708e8a5ebcfd59da10ba84f",
    "switch nine --json": "d466fea88eac8a3899e6334a1f68c4f67d119fdc886bc28c170ae0bba58013bc",
    "switch nine to stdout": "7ee075bdf9abe7476859b230e78e50f144d700a3da451d657a16e8144c058d2a",
    "switch o12-2x6 --json": "53ffd5a506eb5ca56a8dd3633c37d34a8625da4405f7d81cdf934c23c05bf0d2",
    "switch o12-4x3": "2b798b3b3e6fc43fdc5fb15fa72b667b3f4e986838fdfd139b057a66142d0766",
    "switch o16-4x4 --json": "a48718b669896ba3dcf240bcd777c3081daf21c44a05f461f1a6b6a773ac4bc1",
    "switch o27-3x9 --json": "53f4f57f0725dc47941e56fcbde39f9e4a5db56c75ef2373ad65976fad2fc89d",
}


def _construct_at_27(factors, path, *flags):
    argv = ["construct"] + [tok for f in factors for tok in ("--factor", f)]
    assert cli.main(argv + [*flags, "--order-cap", "27", "--out", str(path)]) == 0


@pytest.fixture(scope="module")
def exact_inputs(tmp_path_factory):
    """Input family files by placeholder name."""
    work = tmp_path_factory.mktemp("exact")
    paths = {}
    for name, fam in [("nine", single(NINE)), ("nine-switched", single(NINE_SWITCHED))]:
        paths[name] = work / f"{name}.txt"
        designs.save_family(fam, paths[name])
    for name, (factors, spec) in SQUARE_INPUTS.items():
        paths[name] = work / f"{name}.txt"
        _construct_at_27(factors, paths[name], "--count", "1")
        square = designs.load_family(paths[name]).squares[0]
        paths[f"{name}-switched"] = work / f"{name}-switched.txt"
        switched = switching.sudoku_symbol_switch(square, spec)
        designs.save_family(designs.MoslsFamily(square.shape, (switched,)), paths[f"{name}-switched"])
    for name, factors in FAMILY_INPUTS.items():
        paths[name] = work / f"{name}.txt"
        _construct_at_27(factors, paths[name])
    return paths


@pytest.mark.parametrize("name", sorted(EXACT_CASES))
def test_exact_spectrum_output(name, exact_inputs, tmp_path, capsys):
    capsys.readouterr()
    out_path = tmp_path / "out.txt" if "{out}" in EXACT_CASES[name] else None
    argv = _format(EXACT_CASES[name], {"out": out_path, **exact_inputs})
    assert _digest(argv, capsys, out_path) == EXACT_DIGESTS[name]


# input -> (q, r, squares, and for a switched square the type (q, r) the
# switching theorem reads its switch as, else None)
VERIFY_INPUTS = {
    "o16-4x4-all": (4, 4, 4, None),
    "o27-3x9-all": (3, 9, 18, None),
    "o27-3x9-switched": (3, 9, 1, (9, 3)),
}

VERIFY_DIGESTS = {
    "o16-4x4-all": "020d013795a2eef499053e6de3e8a1b30933d8dfe5a4cbbf944758a5935250f3",
    "o27-3x9-all": "ecdf49517050949e65c4f1aee4a7c8ac2f5e63dcd24ae8c678527222656771ef",
    "o27-3x9-switched": "95d09f5f358ad94c8154cdd780b4ab361e9c1070c668d8600fea3260db2bd2b3",
}

ORDER49_DIGEST = "462c610cdb2f201ce7a3c7ca22681a4de8691b235adc64942e5f03ee32b22d65"


def _exact_roots(q, r, f, switched) -> dict:
    """The graph's eigenvalues and their multiplicities: the closed form,
    and for a switched square the theorem's change to it, four leaving
    roots one fewer each and the four roots of the joining quartic, the
    latter to float64 precision."""
    roots = {-poly.coeffs[0]: mult for poly, mult in spectra.mosls_graph_spectrum(q, r, f)}
    if switched is not None:
        sq, sr = switched
        for t in (-2, -sr - 2, sq * sr - 2, sq * sr - sr - 2):
            roots[t] -= 1
        for t in np.roots(switching.switched_quartic(sq, sr).coeffs[::-1]):
            roots[float(t)] = 1
    return roots


@pytest.mark.parametrize("name", sorted(VERIFY_INPUTS))
def test_verify_closed_form_above_150_vertices(name, exact_inputs, capsys):
    """`spectrum --verify-closed-form` at 256 and 729 vertices.  The exit
    code, stderr and the graph:, charpoly: and closed form: lines are
    digested.  The residual and the numeric groups come from LAPACK, so
    they meet bounds instead: a residual of at most 1e-12, and each group
    within 1e-9 (times max(1, |root|), as the text prints 10 significant
    digits) of its own exact root, with that root's multiplicity."""
    capsys.readouterr()
    code = cli.main(["spectrum", "--in", str(exact_inputs[name]), "--verify-closed-form"])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    start = lines.index("numeric:")
    pinned, groups, residual = lines[:start] + lines[-1:], lines[start + 1:-2], lines[-2]
    assert [line.split(": ")[0] for line in pinned] == ["graph", "charpoly", "closed form"]
    assert _sha([code, pinned, err]) == VERIFY_DIGESTS[name]
    label, value = residual.split(": ")
    assert label == "residual" and float(value) <= 1e-12
    roots = _exact_roots(*VERIFY_INPUTS[name])
    matched = []
    for line in groups:
        value, mult = line.split(" x")
        root = min(roots, key=lambda t: abs(t - float(value)))
        assert abs(float(value) - root) <= 1e-9 * max(1, abs(root)), line
        assert int(mult) == roots[root], line
        matched.append(root)
    assert sorted(matched) == sorted(roots)


def test_spectrum_exact_order49(tmp_path, capsys, request):
    """`spectrum --exact` on the first two order-49 (7, 7) field squares,
    2401 vertices, about 6 s: with --full-sweep only."""
    if not request.config.getoption("--full-sweep"):
        pytest.skip("order 49 runs with --full-sweep")
    path = tmp_path / "o49.txt"
    argv = ["construct", "--p", "7", "--m", "1", "--n", "1", "--count", "2", "--order-cap", "49"]
    assert cli.main(argv + ["--out", str(path)]) == 0
    capsys.readouterr()
    assert _digest(["spectrum", "--in", str(path), "--exact"], capsys) == ORDER49_DIGEST


# failure and refusal paths: exit 1, exit 2 and INAPPLICABLE verdicts.
# name: argv with {input} placeholders; "{out}" marks an --out file, whose
# bytes are digested when the command writes one
FAILURE_CASES = {
    "check doubled": ["check", "--in", "{doubled}"],
    "check truncated": ["check", "--in", "{truncated}"],
    "spectrum o64 vertex cap": ["spectrum", "--in", "{o64}"],
    "spectrum nine --subset 0": ["spectrum", "--in", "{nine}", "--subset", "0"],
    "graph-export nine --subset 9": ["graph-export", "--in", "{nine}", "--subset", "9"],
    "spectrum doubled --verify-closed-form": ["spectrum", "--in", "{doubled}", "--verify-closed-form"],
    "spectrum nine-switched --verify-closed-form": ["spectrum", "--in", "{nine-switched}", "--verify-closed-form"],
    "spectrum nine --mols-only --verify-closed-form": [
        "spectrum", "--in", "{nine}", "--mols-only", "--verify-closed-form",
    ],
    "switch nine-switched": [
        "switch", "--in", "{nine-switched}", "--row-block", "1", "--symbols", "3,4", "--out", "{out}",
    ],
    "switch nine invalid band": ["switch", "--in", "{nine}", "--row-block", "1", "--symbols", "1,2", "--out", "{out}"],
    "switch flat5 --col-block 1": ["switch", "--in", "{flat5}", "--col-block", "1", "--symbols", "1,2", "--out", "{out}"],
    "switch doubled": ["switch", "--in", "{doubled}", "--row-block", "1", "--symbols", "1,2"],
    "compare nine flat4": ["compare", "--a", "{nine}", "--b", "{flat4}"],
    "compare doubled": ["compare", "--a", "{doubled}", "--b", "{nine}"],
    "spectrum clash16": ["spectrum", "--in", "{clash16}"],
    "construct --count 9": ["construct", "--p", "2", "--m", "1", "--n", "1", "--count", "9"],
}

FAILURE_DIGESTS = {
    "check doubled": "849fcab34ae8048334223c29d28a1a1b26b9420b9116bddb3646659494c0af81",
    "check truncated": "61253b0b0264d052015a800523a60c3605d8cfbbfa83ae37730e6e0dddc20ae1",
    "compare doubled": "c419cd7d6035bb4a3282ff4fa58380e56deb64b2781564a682982c96b07d1f67",
    "compare nine flat4": "a1a1be5bd7dec8284b92605523da8c06b25eb47d60ecfdd78b16b0928f800209",
    "construct --count 9": "5ea0977d3b32119a68ced84f51b4f527e134cbf17bf34dfe6b4c9e4cb7fc0330",
    "graph-export nine --subset 9": "743c9676ec0512a3e8d0a580c011a5ebd198bebbca71a17907380cfa4b7d5597",
    "spectrum clash16": "ee9395050a963c31342ea50854ef1051f2e6a33cfac8af8a80f01fbcb537fb38",
    "spectrum doubled --verify-closed-form": "944577f8a8ee7fb8fa9f52b6c8af2c3df937d591fe212cc98f17b0170357fcf2",
    "spectrum nine --mols-only --verify-closed-form": "6a9294e7ac7567ed599447713acd64d964a2554b69178bdf8041845a7b585bc6",
    "spectrum nine --subset 0": "c71ada4c93090198efbb52773baaeb7d780c84dc2515c6241f61516c2253521c",
    "spectrum nine-switched --verify-closed-form": "10b25e7fdf791503f6d4592f2f42257afef0ebb91772dc88f016f32a5d4063f4",
    "spectrum o64 vertex cap": "dcb2ce2c34809cd01af0b07b13a6292457fb57b333b3c526a14dd8254768bcf0",
    "switch doubled": "c099b9eb5bdcc97a5d934b98ad4d2d5068c23ce240582a745258389209af83c1",
    "switch flat5 --col-block 1": "1893f7ff093f72b43cc38ab098a1a6f9b7d6f901699153cc3876bacbb216ff2c",
    "switch nine invalid band": "d46fb7e9a14a848b4278860f224a10520e42aaa4c2dd9905f8a252dccb9dc590",
    "switch nine-switched": "987811179c671321de28869729448a9914bdf2340809e99be3ffe44187b606a8",
}


@pytest.fixture(scope="module")
def failure_inputs(tmp_path_factory):
    """Input family files by placeholder name: the order-9 square, its
    switch, that square twice (not orthogonal), its file cut in half,
    flat cyclic squares of orders 4 and 5, an order-16 Latin square of
    type (4, 4) that is not Sudoku, whose first block clash lies past the
    first 64 rows, and the first order-64 field square (4096 vertices,
    above the dense graph cap)."""
    work = tmp_path_factory.mktemp("failure")
    # a Sudoku square of type (4, 4) with rows 5 and 9 swapped
    i, j = np.indices((16, 16))
    clash16 = (4 * (i % 4) + i // 4 + j) % 16 + 1
    clash16[[5, 9]] = clash16[[9, 5]]
    families = {
        "nine": single(NINE),
        "nine-switched": single(NINE_SWITCHED),
        "doubled": designs.MoslsFamily(NINE.shape, (NINE, NINE)),
        "flat4": single(cyclic_square(4)),
        "flat5": single(cyclic_square(5)),
        "clash16": single(designs.LatinSquare(clash16, designs.SudokuShape(4, 4))),
    }
    paths = {}
    for name, fam in families.items():
        paths[name] = work / f"{name}.txt"
        designs.save_family(fam, paths[name])
    text = paths["nine"].read_text()
    paths["truncated"] = work / "truncated.txt"
    paths["truncated"].write_text(text[: len(text) // 2])
    paths["o64"] = work / "o64.txt"
    argv = ["construct", "--p", "2", "--m", "3", "--n", "3", "--count", "1", "--order-cap", "64"]
    assert cli.main(argv + ["--out", str(paths["o64"])]) == 0
    return paths


@pytest.mark.parametrize("name", sorted(FAILURE_CASES))
def test_failure_path_output(name, failure_inputs, tmp_path, capsys):
    capsys.readouterr()
    out_path = tmp_path / "out.txt"
    argv = _format(FAILURE_CASES[name], {"out": out_path, **failure_inputs})
    code = cli.main(argv)
    record = [code, *capsys.readouterr()]
    if out_path.exists():
        record.append(out_path.read_text())
    assert _sha(record) == FAILURE_DIGESTS[name]


def test_compare_shape_mismatch_names_both_types(failure_inputs, capsys):
    # the text behind the "compare nine flat4" digest, in the form the
    # family parser uses for a type
    argv = ["compare", "--a", str(failure_inputs["nine"]), "--b", str(failure_inputs["flat4"])]
    code = cli.main(argv)
    assert [code, *capsys.readouterr()] == [2, "", "error: shape mismatch: type (3, 3) vs type (1, 4)\n"]


# The cases above call cli.main in-process, which never reaches the exit
# path of a command: atexit callbacks, cli's exit-time gc.freeze among
# them, the flushes of stdout and stderr and the teardown of modules.  A
# few of them also run as `python -m mosls.cli` in a fresh process,
# against the same digests.  kind: (cases, digests, input fixture)
FRESH_KINDS = {
    "exact": (EXACT_CASES, EXACT_DIGESTS, "exact_inputs"),
    "failure": (FAILURE_CASES, FAILURE_DIGESTS, "failure_inputs"),
}
# (kind, case name)
FRESH_CASES = [
    ("exact", "switch nine"),  # --out
    ("exact", "spectrum nine --verify-closed-form"),
    ("failure", "check doubled"),  # exit 1
    ("failure", "spectrum nine --subset 0"),  # exit 2
]


def test_construct_out_file_in_a_fresh_process(tmp_path):
    # with --out the family goes to the file and the summary to stdout, so
    # [code, file, stdout] is the [code, stdout, stderr] digested without it
    out_path = tmp_path / "out.txt"
    code, out, err, text = fresh_cli_record(_construct_argv("t9-3x3") + ["--out", str(out_path)], out_path)
    assert err == ""
    assert _sha([code, text, out]) == CONSTRUCT_DIGESTS["t9-3x3"]


@pytest.mark.parametrize("kind,name", FRESH_CASES)
def test_output_in_a_fresh_process(kind, name, request, tmp_path):
    cases, digests, inputs = FRESH_KINDS[kind]
    out_path = tmp_path / "out.txt"
    argv = _format(cases[name], {"out": out_path, **request.getfixturevalue(inputs)})
    assert _sha(fresh_cli_record(argv, out_path)) == digests[name]
