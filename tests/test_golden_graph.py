"""Golden `graph-export` output: sha256 digests of the exit code, stdout,
stderr and `--out` file of `graph-export` as edges and as a matrix, on the
field families of order 16 (type (4, 4), 256 vertices) and 25 (type (5, 5),
625 vertices), plus one-square MOLS graphs.  A changed digest means some
byte of an exported graph changed.
"""

import hashlib
import json

import pytest

from fixtures import fresh_cli_record
from mosls import cli

FAMILIES = {"f16": "2:2:2", "f25": "5:1:1"}

# name: (family, extra flags, write to --out)
CASES = {
    "f16 edges": ("f16", ["--format", "edges"], True),
    "f16 matrix": ("f16", ["--format", "matrix"], True),
    "f16 edges --mols-only --subset 2": ("f16", ["--mols-only", "--subset", "2"], False),
    "f25 edges": ("f25", [], False),
    "f25 matrix": ("f25", ["--format", "matrix"], True),
    "f25 matrix --subset 1,3": ("f25", ["--format", "matrix", "--subset", "1,3"], True),
}

DIGESTS = {
    "f16 edges": "07eea67b3f9ca73c2fb3ec1736cb535735b4e64f9a628e08b8ad100350e60c04",
    "f16 edges --mols-only --subset 2": "8bcf24896719e3bafc4c9147424f4e18541d2988fa8a26fc0dc04592a85bd836",
    "f16 matrix": "6e00c60c01b146cbc60e26e69269349b7a9acb6f10ebf9442a2e35402ec94193",
    "f25 edges": "55df3fd62eb7504bee0624b4c4905969cec6bfa64301b51a6b0f869c321bf5b0",
    "f25 matrix": "ddbcb342265825897ea05dfb659806393b9cc15bfc971a2c0d594c53b297cd36",
    "f25 matrix --subset 1,3": "3566d2bb038cc958656e40804cdf42d679dbf0552debf5bffb491ce2db98429c",
}


def _sha(record) -> str:
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


@pytest.fixture(scope="module")
def family_files(tmp_path_factory):
    work = tmp_path_factory.mktemp("graph")
    paths = {}
    for name, factor in FAMILIES.items():
        paths[name] = work / f"{name}.txt"
        argv = ["construct", "--factor", factor, "--order-cap", "81", "--out", str(paths[name])]
        assert cli.main(argv) == 0
    return paths


@pytest.mark.parametrize("name", sorted(CASES))
def test_graph_export_output(name, family_files, tmp_path, capsys):
    family, flags, to_file = CASES[name]
    capsys.readouterr()
    argv = ["graph-export", "--in", str(family_files[family]), *flags]
    out_path = tmp_path / "graph.txt"
    if to_file:
        argv += ["--out", str(out_path)]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    record = [code, out, err]
    if to_file:
        record.append(out_path.read_text())
    assert _sha(record) == DIGESTS[name]


def test_graph_export_out_file_in_a_fresh_process(family_files, tmp_path):
    # the exit path of a command, which in-process calls of cli.main never
    # reach, writes the same bytes
    out_path = tmp_path / "graph.txt"
    argv = ["graph-export", "--in", str(family_files["f16"]), "--format", "edges", "--out", str(out_path)]
    assert _sha(fresh_cli_record(argv, out_path)) == DIGESTS["f16 edges"]
