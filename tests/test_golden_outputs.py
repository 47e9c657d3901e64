"""Byte-exact stdout of simulate, sigma, fit and datasets.

The outputs in data/outputs/ and the numpy, scipy and BLAS versions they
were made with are listed in data/outputs/manifest.json; regenerate them
with data/outputs/regenerate.py.  Float results may differ in the last digit
across numpy, scipy or BLAS releases (the fit goes through matrix
products), so on other versions the comparison is skipped, never loosened.
"""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy
from click.testing import CliRunner

from ffitts.cli import main

OUT = Path(__file__).parent / "data" / "outputs"
MANIFEST = json.loads((OUT / "manifest.json").read_text(encoding="utf-8"))
_BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
RUNNING = {"numpy": np.__version__, "scipy": scipy.__version__,
           "blas": f"{_BLAS['name']} {_BLAS['version']}"}


@pytest.mark.parametrize("case", MANIFEST["cases"], ids=lambda c: c["stdout"])
def test_stdout_unchanged(monkeypatch, case):
    other = [f"{name} {MANIFEST[name]} (running {version})"
             for name, version in RUNNING.items() if version != MANIFEST[name]]
    if other:
        pytest.skip("golden outputs were made with " + ", ".join(other))
    # the reports name their input as given, so run from outputs/
    monkeypatch.chdir(OUT)
    result = CliRunner().invoke(main, case["args"])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (OUT / case["stdout"]).read_bytes()
