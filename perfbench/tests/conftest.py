"""Make the package source and the benchmark modules importable."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]


def pytest_configure(config):
    # Nonstationary-fit warnings are expected on these panels.
    config.addinivalue_line("filterwarnings", "ignore::RuntimeWarning")
