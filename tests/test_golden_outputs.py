"""Byte-exact stdout of simulate, sigma, fit and datasets, the files
``fit --out`` writes, and the fit values themselves as ``float.hex``.

The outputs in data/outputs/ and the numpy and BLAS versions they were
made with are listed in data/outputs/manifest.json; regenerate them with
data/outputs/regenerate.py.  Float results may differ in the last digit
across numpy or BLAS releases (the fit goes through matrix products), so on
other versions the comparison is skipped, never loosened.  No output
depends on SciPy, whose version is therefore not recorded.
The cases the manifest flags ``pure_python`` (``datasets`` and ``sigma
--dataset``, which only format bundled constants) run on any versions.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from ffitts.cli import main

OUT = Path(__file__).parent / "data" / "outputs"
MANIFEST = json.loads((OUT / "manifest.json").read_text(encoding="utf-8"))
_BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
RUNNING = {"numpy": np.__version__, "blas": f"{_BLAS['name']} {_BLAS['version']}"}
_SPEC = importlib.util.spec_from_file_location("regenerate", OUT / "regenerate.py")
regenerate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regenerate)
FIT_VALUES = json.loads((OUT / "fit-values.json").read_text(encoding="utf-8"))


def _skip_on_other_versions(case=None):
    if case is not None and case.get("pure_python"):
        return
    other = [f"{name} {MANIFEST[name]} (running {version})"
             for name, version in RUNNING.items() if version != MANIFEST[name]]
    if other:
        pytest.skip("golden outputs were made with " + ", ".join(other))


@pytest.mark.parametrize("case", [c for c in MANIFEST["cases"] if "stdout" in c],
                         ids=lambda c: c["stdout"])
def test_stdout_unchanged(monkeypatch, case):
    _skip_on_other_versions(case)
    # the reports name their input as given, so run from outputs/
    monkeypatch.chdir(OUT)
    result = CliRunner().invoke(main, case["args"])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (OUT / case["stdout"]).read_bytes()


@pytest.mark.parametrize("case", [c for c in MANIFEST["cases"] if "files" in c],
                         ids=lambda c: c["files"][0])
def test_out_files_unchanged(monkeypatch, tmp_path, case):
    _skip_on_other_versions(case)
    # --out writes next to the report, so run where it cannot touch outputs/
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, case["args"])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == b""
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(case["files"])
    for name in case["files"]:
        assert (tmp_path / name).read_bytes() == (OUT / name).read_bytes(), name


@pytest.mark.parametrize("name", list(FIT_VALUES))
def test_fit_values_unchanged(name):
    _skip_on_other_versions()
    summaries, sigma_a = regenerate.condition_sets()[name]
    assert regenerate.fit_values(summaries, sigma_a) == FIT_VALUES[name]
