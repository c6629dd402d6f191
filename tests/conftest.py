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
