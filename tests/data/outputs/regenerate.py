"""Regenerate the golden tap-path outputs in this directory.

Usage (from the repository root):

    PYTHONPATH=src python tests/data/outputs/regenerate.py

Writes the stdout of ``simulate`` for 1D and 2D on two seeds each, of
``sigma --input`` on those logs (md, csv and json; ``--axis y`` and
``--axis bivariate --dim 2d``) and of ``fit --input`` on one 2D log (md, csv
and json, all models with ``--sigma-a 1.3``), one file per command.  The
hand-built log ``first_taps.csv`` (practice rows, re-taps, outliers,
shuffled rows) is not generated; ``sigma --input`` on it (json, every
``--axis`` with ``--dim 1d`` and ``2d``) and ``fit --input`` on it (json,
``--sigma-a 0.9``) pin the first-tap selection.  The
condition-summary path is covered by ``write_aggregate_csv`` dumps of the
bundled datasets (``paper-1d-aggregate.csv``, ``paper-2d-aggregate.csv``)
and ``fit --input`` on them (all models with ``--sigma-a 0.9``); the bundled
datasets by ``fit --dataset`` (all models, ``--sigma-a calib-ra`` and
``calib-acc``), ``sigma --dataset`` (md, csv and json) and ``datasets``.  The ``--out``
files of ``fit --dataset`` (all models, ``--sigma-a calib-acc``, md and csv)
are kept too: the report, its ``.fits.csv`` and ``.intercept.csv`` plot data
and, for csv, its ``.wf.csv`` matrix.  Also writes ``manifest.json``: the
arguments of every command, the file holding its stdout (or the files its
``--out`` writes), a ``pure_python`` flag on the commands whose output is
the same on any numpy and BLAS, and the versions the other outputs were
made with.  Commands run from this directory, so the reports name their
inputs by file name.

``fit-values.json`` pins the fit values themselves as ``float.hex``: c, a, b,
R^2, AIC, BIC and CV RMSE of every model on the bundled datasets (m7 at
``calib-acc``) and on ``test_fitting.random_summaries`` seeds 0-4 (m7 at
``RANDOM_SIGMA_A``), and for each free-c model the c that ``optimize_c``
picks on every leave-one-out subset.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from ffitts import (
    Model, SigmaMethod, Tremor, embedded, fit_model, optimize_c, write_aggregate_csv,
)
from ffitts.cli import main

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1]))  # tests/, for random_summaries
from test_fitting import random_summaries  # noqa: E402

# (dimensionality, alpha, sigma_a) of the simulated logs, each on every seed
SIMULATIONS = [("1d", "0.0108", "1.153"), ("2d", "0.0108", "1.3")]
SEEDS = ["3", "11"]
FORMATS = ["md", "csv", "json"]
SIGMA_AXES = [["--axis", "y"], ["--axis", "bivariate", "--dim", "2d"]]
# a hand-built tap log (practice rows, re-taps inside and outside the 15 mm
# radius, first-tap outliers, shuffled rows) for the first-tap selection
FIRST_TAPS = "first_taps.csv"
BUNDLED = ["paper-1d", "paper-2d"]
RANDOM_SEEDS = range(5)
RANDOM_SIGMA_A = 0.5  # mm; below every sigma_obs of random_summaries
FIT_FIELDS = ["c_mm", "a_ms", "b_ms_per_bit", "r2", "aic", "bic", "cv_rmse_ms"]


def blas() -> str:
    """Name and version of the BLAS numpy was built with."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info['name']} {info['version']}"


def aggregate_dumps() -> list[str]:
    """Write the condition-summary CSVs of the bundled datasets; their names."""
    names = []
    for dataset in BUNDLED:
        names.append(f"{dataset}-aggregate.csv")
        write_aggregate_csv(embedded(dataset), HERE / names[-1])
    return names


def out_files(report: str) -> list[str]:
    """The files ``fit --out report`` writes: the report, then its side files."""
    stem, fmt = report.rsplit(".", 1)
    sides = ["wf", "fits", "intercept"] if fmt == "csv" else ["fits", "intercept"]
    return [report] + [f"{stem}.{side}.csv" for side in sides]


def commands() -> list[tuple[list[str], str | list[str]]]:
    """(CLI arguments, stdout file name) for every golden output, in order;
    a case writing ``--out`` files names the list of them instead."""
    cases = []
    logs = []
    for dim, alpha, sigma_a in SIMULATIONS:
        for seed in SEEDS:
            log = f"sim-{dim}-seed{seed}.csv"
            logs.append(log)
            cases.append(([
                "simulate", "--alpha", alpha, "--sigma-a", sigma_a,
                "--trials", "50", "--seed", seed, "--dim", dim,
            ], log))
    for log in logs:
        for axis in SIGMA_AXES:
            for fmt in FORMATS:
                name = f"sigma-{log[:-4]}-{axis[1]}.{fmt}"
                cases.append((["sigma", "--input", log, *axis, "--format", fmt], name))
    log = f"sim-2d-seed{SEEDS[0]}.csv"
    for fmt in FORMATS:
        cases.append((
            ["fit", "--input", log, "--dim", "2d", "--sigma-a", "1.3", "--format", fmt],
            f"fit-{log[:-4]}.{fmt}",
        ))
    for axis in ["x", "y", "bivariate"]:
        for dim in ["1d", "2d"]:
            cases.append((
                ["sigma", "--input", FIRST_TAPS, "--method", "all", "--format", "json",
                 "--axis", axis, "--dim", dim],
                f"sigma-{FIRST_TAPS[:-4]}-{axis}-{dim}.json",
            ))
    cases.append((["fit", "--input", FIRST_TAPS, "--sigma-a", "0.9", "--format", "json"],
                  f"fit-{FIRST_TAPS[:-4]}.json"))
    for dataset in BUNDLED:
        dim = ["--dim", dataset[-2:]]
        for fmt in FORMATS:
            cases.append((
                ["fit", "--input", f"{dataset}-aggregate.csv", *dim, "--models", "all",
                 "--sigma-a", "0.9", "--format", fmt],
                f"fit-{dataset}-aggregate.{fmt}",
            ))
        for sigma_a in ["calib-ra", "calib-acc"]:
            for fmt in FORMATS:
                cases.append((
                    ["fit", "--dataset", dataset, "--models", "all",
                     "--sigma-a", sigma_a, "--format", fmt],
                    f"fit-{dataset}-{sigma_a}.{fmt}",
                ))
        for fmt in ["md", "csv"]:
            report = f"fit-{dataset}-calib-acc-{fmt}-out.{fmt}"
            cases.append((
                ["fit", "--dataset", dataset, "--models", "all", "--sigma-a", "calib-acc",
                 "--format", fmt, "--out", report],
                out_files(report),
            ))
        for fmt in FORMATS:
            cases.append((["sigma", "--dataset", dataset, "--format", fmt],
                          f"sigma-{dataset}.{fmt}"))
    cases.append((["datasets"], "datasets.txt"))
    return cases


def pure_python(args: list[str]) -> bool:
    """True for ``datasets`` and ``sigma --dataset``: they only format bundled
    constants in pure Python."""
    return args[0] == "datasets" or args[:2] == ["sigma", "--dataset"]


def _hex(x: float | None) -> str | None:
    return None if x is None else float.hex(x)


def condition_sets() -> dict:
    """Name -> (summaries, m7's sigma_a) of every condition set in fit-values.json."""
    sets = {}
    for name in BUNDLED:
        dataset = embedded(name)
        sets[name] = (list(dataset.summaries),
                      dataset.sigma_a(SigmaMethod.CALIB_ACCURACY_ONLY))
    for seed in RANDOM_SEEDS:
        sets[f"random-{seed}"] = (random_summaries(seed), RANDOM_SIGMA_A)
    return sets


def fit_values(summaries, sigma_a) -> dict:
    """float.hex of each model's fit values (None where a value is None) and,
    for a free-c model, of the c optimize_c picks with each condition left out."""
    values = {}
    for model in Model:
        result = fit_model(summaries, model, sigma_a=sigma_a)
        values[model.value] = {f: _hex(getattr(result, f)) for f in FIT_FIELDS}
        if model.tremor is Tremor.FREE_C:
            values[model.value]["fold_c_mm"] = [
                _hex(optimize_c(summaries[:i] + summaries[i + 1:], model)[0])
                for i in range(len(summaries))
            ]
    return values


def run(args: list[str]) -> bytes:
    result = CliRunner().invoke(main, args)
    if result.exit_code != 0:
        raise SystemExit(f"{' '.join(args)} exited {result.exit_code}:\n{result.output}")
    return result.stdout_bytes


def main_() -> None:
    os.chdir(HERE)
    aggregate_dumps()
    manifest = {"numpy": np.__version__, "blas": blas(), "cases": []}
    for args, name in commands():
        stdout = run(args)
        if isinstance(name, list):
            assert not stdout, args
            manifest["cases"].append({"args": args, "files": name})
        else:
            (HERE / name).write_bytes(stdout)
            manifest["cases"].append({"args": args, "stdout": name})
        if pure_python(args):
            manifest["cases"][-1]["pure_python"] = True
    (HERE / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    values = {name: fit_values(*args) for name, args in condition_sets().items()}
    (HERE / "fit-values.json").write_text(json.dumps(values, indent=1) + "\n")


if __name__ == "__main__":
    main_()
