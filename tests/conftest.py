import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))


def pytest_addoption(parser):
    parser.addoption(
        "--full-sweep",
        action="store_true",
        help="run the switch sweep on all valid symbol switches, not a seeded sample",
    )
