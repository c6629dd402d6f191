"""Large-graph library job: the dense cell-graph checks through the public API.

    python perfbench/libjob.py --in FAMILY --square K

loads the family, builds its MOSLS cell graph, checks that the Latin and
block adjacencies commute, takes the block quotient, and runs the
strong-regularity check on the MOLS graph of square K alone.  Prints one
JSON object for the benchmark's checker.
"""

from __future__ import annotations

import argparse
import json
import sys


def run(path: str, square: int) -> dict:
    import mosls

    fam = mosls.load_family(path)
    g = mosls.build_mosls_graph(fam)
    degree = g.adjacency.sum(axis=1)
    commute = mosls.commute_check(fam)
    quotient = mosls.quotient_matrix(g)
    srg = mosls.srg_check(mosls.build_mols_graph(fam, [square]))
    return {
        "vertices": g.num_vertices,
        "degree": [int(degree.min()), int(degree.max())],
        "commute": commute,
        "quotient": quotient.entries.tolist(),
        "srg": list(srg) if srg else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--in", dest="input", required=True)
    parser.add_argument("--square", type=int, default=1)
    args = parser.parse_args(argv)
    print(json.dumps(run(args.input, args.square)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
