"""Print a digest of every fit of a fixed census of condition sets, of
every ``ffitts sigma`` run of a fixed census of tap logs and of every
``ffitts simulate`` run of a fixed census of configs.

Usage (from the repository root):

    PYTHONPATH=src python tests/data/outputs/census.py > census.txt

Neither a test nor a golden: diff the output of two checkouts to see which
reports and which values a change moves.

Fits: runs ``compare`` (all models, CV on) on the bundled paper-1d and
paper-2d datasets, on ``test_fitting.random_summaries`` seeds 0-299 and on
its 42-condition sets (``test_fitting.GRID_42``, amplitudes 15-80 mm by
widths 1.5-10 mm) at ``GRID_42_SEEDS``, where the folds make most of the
free-c search's rows and most rows settle early, each at every sigma_a of
``SIGMA_A``, and prints one line per run: the set's name,
sigma_a, the sha1 of ``render_fit_md``, the sha1 of the ``float.hex`` of
c, a, b, R^2, AIC, BIC and CV RMSE of every model (``None`` where a value is
None) and the sha1 of ``to_json(fit_document(...))``, or the name of the
exception it raises.  A run whose md digest is the same on both sides prints
the same report; one whose value digest differs moved at full precision
only; one whose JSON digest differs writes other JSON bytes, or no longer
(or now) fails to write strict JSON.

Tremor spreads: ``ffitts simulate`` writes 30-trial logs at ``LOG_SEEDS``
in 1D and 2D at alpha 0.0108 and every sigma_a of ``LOG_SIGMA_A``, plus two
degenerate logs: no spread at all (alpha and sigma_a 0) and 2 trials per
condition.  ``ffitts sigma --input LOG --format json`` runs on each with
every ``--axis`` and ``--dim`` and each of ``SIGMA_RUNS``; one line per run
gives its arguments, exit code and the sha1 of its stdout.

Re-tap logs: ``write_tap_log`` writes a seeded log at each of
``TAP_LOG_SEEDS`` for the participants ``TAP_LOG_IDS``, whose IDs differ in
length and script: a practice block and two live blocks of the same trial
numbers for every participant, so that (condition, block, trial) keys repeat
across participants, with outliers beyond 15 mm and re-taps, rows shuffled.
``ffitts sigma --input LOG --format json`` runs on each with every
``--axis`` and ``--dim``, and ``ffitts fit --input LOG --sigma-a 1.0`` in md
and json; one line per run gives its arguments, exit code and the sha1 of
its stdout.

Simulated logs: ``ffitts simulate`` runs at ``SIM_SEEDS`` in 1D and 2D at
each (alpha, sigma_a, --mt-noise) of ``SIM_SPREADS``, zero spreads
included; one line per run gives its arguments, exit code and the sha1 of
its stdout, the log itself.

Every command goes through click's ``CliRunner``, so the script runs on any
checkout.
"""

from __future__ import annotations

import csv
import hashlib

import numpy as np
from click.testing import CliRunner

from ffitts import Dataset, Dimensionality, compare, embedded
from ffitts.cli import main as cli
from ffitts.report import fit_document, render_fit_md, to_json
from regenerate import BUNDLED, FIT_FIELDS, _hex, random_summaries, run  # beside this script
from test_fitting import GRID_42  # on the path regenerate sets

SIGMA_A = (0.5, 0.8837, 1.2)  # mm
RANDOM_SEEDS = range(300)
GRID_42_SEEDS = range(60)
LOG_SEEDS = range(20)
LOG_SIGMA_A = ("0.6", "1.2")  # mm
# (name, simulate arguments) of every log
LOGS = [(f"sim-{dim}-{sigma_a}-seed{seed}.csv",
         ["--alpha", "0.0108", "--sigma-a", sigma_a, "--trials", "30", "--seed", str(seed),
          "--dim", dim])
        for dim in ("1d", "2d") for sigma_a in LOG_SIGMA_A for seed in LOG_SEEDS] + [
    ("no-spread.csv", ["--alpha", "0", "--sigma-a", "0", "--trials", "30"]),
    ("two-trials.csv", ["--alpha", "0.0108", "--sigma-a", "0.6", "--trials", "2"]),
]
TAP_LOG_SEEDS = range(12)
TAP_LOG_IDS = ("P01", "P2", "p003", "\u00e9l\u00e8ve-4")
TAP_LOG_CONDITIONS = [(a, w) for a in (20.0, 45.0) for w in (2.0, 4.0, 8.0)]  # (A, W) in mm
SIM_SEEDS = range(4)
SIM_SPREADS = [("0.0108", "1.2", "5"), ("0", "1.2", "5"), ("0.0108", "0", "5"), ("0", "0", "5"),
               ("0.0108", "1.2", "0")]
SIGMA_RUNS = [["--method", "all"], ["--method", "calib"], ["--method", "intercept"],
              ["--method", "calib", "--instruction", "acc"]]


def datasets():
    """Every condition set of the census, bundled first."""
    yield from map(embedded, BUNDLED)
    for seed in RANDOM_SEEDS:
        yield Dataset(str(seed), Dimensionality.TWO_D, tuple(random_summaries(seed)))
    for seed in GRID_42_SEEDS:
        yield Dataset(f"grid-42-{seed}", Dimensionality.TWO_D,
                      tuple(random_summaries(seed, *GRID_42)))


def sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def json_digest(report, dataset) -> str:
    """The sha1 of the fit's JSON document, or the name of what it raises."""
    try:
        return sha1(to_json(fit_document(report, dataset)))
    except Exception as exc:  # a strict-JSON crash is a census value too
        return type(exc).__name__


def sigma_census() -> None:
    """Write every log into a temporary directory and print a line per sigma run."""
    runner = CliRunner()
    with runner.isolated_filesystem():  # the reports name their logs as given
        for log, args in LOGS:
            run(["simulate", *args, "--out", log])
            for axis in ("x", "y", "bivariate"):
                for dim in ("1d", "2d"):
                    for method in SIGMA_RUNS:
                        args = ["sigma", "--input", log, "--format", "json", "--axis", axis,
                                "--dim", dim, *method]
                        result = runner.invoke(cli, args)
                        print(" ".join(args), result.exit_code, sha1(result.stdout))


def write_tap_log(seed: int, path: str) -> None:
    """A seeded tap log: per participant, block 0 (practice) and blocks 1 and
    2 of trials 1-24, each trial at condition (trial mod 6) of
    TAP_LOG_CONDITIONS; a trial has up to two re-taps (tap_index 2, 3) and
    every tap a 2% chance to land 20 mm off (beyond the 15 mm radius)."""
    rng = np.random.default_rng([seed, 34])
    rows = []
    for pid in TAP_LOG_IDS:
        for block in range(3):
            for trial in range(1, 25):
                a, w = TAP_LOG_CONDITIONS[trial % len(TAP_LOG_CONDITIONS)]
                tx, ty = rng.uniform(0.0, 60.0, 2).round(2).tolist()
                for tap in range(1, 2 + int(rng.binomial(2, 0.12))):
                    dx, dy = rng.normal(0.0, 0.6 + 0.2 * w, 2).tolist()
                    dy += 20.0 * (rng.random() < 0.02)
                    mt = max(1.0, 150.0 + 120.0 * np.log2(a / w + 1) + rng.normal(0.0, 30.0))
                    rows.append([pid, block, trial, a, w, tx, ty, round(tx + dx, 3),
                                 round(ty + dy, 3), round(float(mt), 1), tap,
                                 "true" if block == 0 else "false"])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["participant", "block", "trial", "A_mm", "W_mm", "target_x_mm",
                         "target_y_mm", "touch_x_mm", "touch_y_mm", "mt_ms", "tap_index",
                         "is_practice"])
        writer.writerows(rows[i] for i in rng.permutation(len(rows)))


def retap_census() -> None:
    """Write every re-tap log into a temporary directory and print a line per run."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        for seed in TAP_LOG_SEEDS:
            log = f"taps-seed{seed}.csv"
            write_tap_log(seed, log)
            runs = [["sigma", "--input", log, "--format", "json", "--axis", axis, "--dim", dim]
                    for axis in ("x", "y", "bivariate") for dim in ("1d", "2d")]
            runs += [["fit", "--input", log, "--sigma-a", "1.0", "--format", fmt]
                     for fmt in ("md", "json")]
            for args in runs:
                result = runner.invoke(cli, args)
                print(" ".join(args), result.exit_code, sha1(result.stdout))


def simulate_census() -> None:
    """Print a line per simulate run, its log on stdout."""
    runner = CliRunner()
    for dim in ("1d", "2d"):
        for alpha, sigma_a, noise in SIM_SPREADS:
            for seed in SIM_SEEDS:
                args = ["simulate", "--alpha", alpha, "--sigma-a", sigma_a, "--mt-noise", noise,
                        "--trials", "30", "--seed", str(seed), "--dim", dim]
                result = runner.invoke(cli, args)
                print(" ".join(args), result.exit_code, sha1(result.stdout))


def main() -> None:
    for dataset in datasets():
        for sigma_a in SIGMA_A:
            report = compare(dataset, sigma_a=sigma_a)
            values = " ".join(str(_hex(getattr(r, f))) for r in report.results
                              for f in FIT_FIELDS)
            print(dataset.name, sigma_a, sha1(render_fit_md(report, dataset)), sha1(values),
                  json_digest(report, dataset))
    sigma_census()
    retap_census()
    simulate_census()


if __name__ == "__main__":
    main()
