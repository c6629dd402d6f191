import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


def pytest_configure(config):
    # a warning fails the test that raised it, as if given -W error
    config.addinivalue_line("filterwarnings", "error")


def pytest_addoption(parser):
    parser.addoption(
        "--full-sweep",
        action="store_true",
        help="run the switch sweep on all valid symbol switches, not a seeded sample",
    )


@pytest.fixture
def no_general_path(monkeypatch):
    """Fail the test if charpoly_exact takes its general path, the exact
    traces of all n powers, instead of certifying a guess."""
    from mosls import spectra

    exact_traces = spectra._exact_traces

    def guarded(A, d):
        assert d < A.shape[0], f"charpoly_exact took the general path on {A.shape[0]} vertices"
        return exact_traces(A, d)

    monkeypatch.setattr(spectra, "_exact_traces", guarded)


@pytest.fixture(autouse=True)
def no_commute_check(request, monkeypatch):
    """Make graph.commute_check raise in every CLI test, those of test_cli
    and the golden digests of test_golden: no command needs it while at
    most three selected squares are not block-permutational (proof at
    designs.is_block_permutational), so every input gives its bytes
    without it."""
    if request.node.path.name not in ("test_cli.py", "test_golden.py"):
        return
    from mosls import graph

    def refuse(*args, **kwargs):
        raise AssertionError("graph.commute_check was called")

    monkeypatch.setattr(graph, "commute_check", refuse)
