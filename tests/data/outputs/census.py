"""Print a digest of every fit of a fixed census of condition sets.

Usage (from the repository root):

    PYTHONPATH=src python tests/data/outputs/census.py > census.txt

Neither a test nor a golden: diff the output of two checkouts to see which
reports and which fit values a change moves.  Runs ``compare`` (all models,
CV on) on the bundled paper-1d and paper-2d datasets and on
``test_fitting.random_summaries`` seeds 0-299, each at every sigma_a of
``SIGMA_A``, and prints one line per run: the set's name, sigma_a, the sha1
of ``render_fit_md`` and the sha1 of the ``float.hex`` of c, a, b, R^2, AIC,
BIC and CV RMSE of every model (``None`` where a value is None).  A run whose
md digest is the same on both sides prints the same report; one whose value
digest differs moved at full precision only.
"""

from __future__ import annotations

import hashlib

from ffitts import Dataset, Dimensionality, compare, embedded
from ffitts.report import render_fit_md
from regenerate import BUNDLED, FIT_FIELDS, _hex, random_summaries  # beside this script

SIGMA_A = (0.5, 0.8837, 1.2)  # mm
RANDOM_SEEDS = range(300)


def datasets():
    """Every condition set of the census, bundled first."""
    yield from map(embedded, BUNDLED)
    for seed in RANDOM_SEEDS:
        yield Dataset(str(seed), Dimensionality.TWO_D, tuple(random_summaries(seed)))


def sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def main() -> None:
    for dataset in datasets():
        for sigma_a in SIGMA_A:
            report = compare(dataset, sigma_a=sigma_a)
            values = " ".join(str(_hex(getattr(r, f))) for r in report.results
                              for f in FIT_FIELDS)
            print(dataset.name, sigma_a, sha1(render_fit_md(report, dataset)), sha1(values))


if __name__ == "__main__":
    main()
