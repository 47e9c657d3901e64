"""Byte-exact stdout of the tap path: simulate, sigma --input and fit --input.

The outputs in data/outputs/ and the numpy and scipy versions they were
made with are listed in data/outputs/manifest.json; regenerate them with
data/outputs/regenerate.py.  Float results may differ in the last digit
across numpy or scipy releases, so on other versions the comparison is
skipped, never loosened.
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
RUNNING = {"numpy": np.__version__, "scipy": scipy.__version__}


@pytest.mark.parametrize("case", MANIFEST["cases"], ids=lambda c: c["stdout"])
def test_stdout_unchanged(monkeypatch, case):
    other = [f"{name} {MANIFEST[name]} (running {version})"
             for name, version in RUNNING.items() if version != MANIFEST[name]]
    if other:
        pytest.skip("golden outputs were made with " + ", ".join(other))
    # the sigma reports name their input as given, so run from outputs/
    monkeypatch.chdir(OUT)
    result = CliRunner().invoke(main, case["args"])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (OUT / case["stdout"]).read_bytes()
