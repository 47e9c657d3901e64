"""Correctness checks against truth that does not come from the code under test.

Each check appends a message to `fail` when it does not hold; an op fails
when any message was added.  The truth is one of:

* numbers the seed commit rendered for the bundled datasets
  (`golden.json`, written by `python3 perfbench/checks.py`);
* what the benchmark's own generators know they produced;
* a plain numpy recomputation of a fit or statistic;
* invariants the paper states (a free-c model never fits worse than its
  fixed-width form; m7 is unusable exactly where W_f is undefined).
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from inputs import SQRT_2PI_E

GOLDEN_PATH = Path(__file__).with_name("golden.json")
# the bundled dataset runs every golden entry comes from
GOLDEN_RUNS = (("paper-1d", "calib-ra"), ("paper-2d", "calib-acc"))

REL = 1e-9


def close(got, want, rel=REL, abs_=0.0) -> bool:
    return got is not None and math.isfinite(got) and abs(got - want) <= max(rel * abs(want), abs_)


def _expect(fail: list, ok: bool, what: str) -> None:
    if not ok:
        fail.append(what)


# ---------------------------------------------------------------------------
# rendered tables at printed precision
# ---------------------------------------------------------------------------

def md_numbers(text: str) -> dict:
    """Table cells of a rendered fit report, keyed by row.

    Comparison rows are keyed by model number ("#1"), W_f rows by the
    method label (or "MT" / "sigma_obs").  Lines outside the tables are
    ignored, so extra notes in a report do not matter.
    """
    out: dict = {"comparison": {}, "wf": {}, "best_by": None}
    table = None
    for line in text.splitlines():
        if line.startswith("## Model comparison"):
            table = "comparison"
        elif line.startswith("## Adjusted width"):
            table = "wf"
        elif line.startswith("Best by criterion:"):
            out["best_by"] = line
        elif table and line.startswith("| ") and not line.startswith("| Description") \
                and not line.startswith("| method"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if table == "comparison":
                out["comparison"][cells[0].split()[0]] = cells
            else:
                out["wf"][cells[0] or cells[2]] = cells
    return out


def sig(x: float, digits: int) -> str:
    if x == 0:
        return "0"
    decimals = max(digits - 1 - math.floor(math.log10(abs(x))), 0)
    return f"{x:.{decimals}f}"


def printed_fit(row: dict) -> list[str]:
    """A JSON model row at the precision the markdown table prints."""
    def ic(v):
        return v if isinstance(v, str) else f"{v:.1f}"

    return [
        f"{row['r2']:.4f}", f"{row['adj_r2']:.4f}", ic(row["aic"]), ic(row["bic"]),
        "---" if row["cv_rmse_ms"] is None else f"{row['cv_rmse_ms']:.2f}",
        sig(row["a_ms"], 4), sig(row["b_ms_per_bit"], 4),
        "---" if row["c_mm"] is None else sig(row["c_mm"], 4),
    ]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def check_golden(fail: list, golden: dict, md_text: str) -> None:
    got = md_numbers(md_text)
    for part in ("comparison", "wf", "best_by"):
        _expect(fail, got[part] == golden[part], f"{part} differs from the seed commit")


def check_json(fail: list, js_text: str, comparison: dict) -> dict | None:
    """JSON parses and its numbers print as the markdown comparison table does."""
    try:
        doc = json.loads(js_text)
    except json.JSONDecodeError as exc:
        fail.append(f"JSON does not parse: {exc}")
        return None
    for row in doc["models"]:
        cells = comparison.get("#" + row["model"][1:])
        if cells is None:
            fail.append(f"{row['model']} missing from markdown")
        elif row["usable"]:
            _expect(fail, printed_fit(row) == cells[2:10],
                    f"{row['model']}: JSON {printed_fit(row)} != markdown {cells[2:10]}")
    return doc


# ---------------------------------------------------------------------------
# select: model fits against numpy
# ---------------------------------------------------------------------------

def _ols(x, y):
    design = np.column_stack([np.ones_like(x), x])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ coef
    rss = float(resid @ resid)
    return float(coef[0]), float(coef[1]), rss, 1.0 - rss / float(((y - y.mean()) ** 2).sum())


def _ic(rss, n, k):
    base = n * math.log(2.0 * math.pi * rss / n) + n
    return base + 2.0 * k, base + k * math.log(n)


def _loocv(x, y):
    sq = []
    for i in range(len(x)):
        keep = np.arange(len(x)) != i
        a, b, _, _ = _ols(x[keep], y[keep])
        sq.append((a + b * x[i] - y[i]) ** 2)
    return math.sqrt(float(np.mean(sq)))


FIXED = {"m1": "W", "m2": "We", "m7": "Wf"}
FREE_C = {"m3": ("We", False, "m2"), "m4": ("We", True, "m2"),
          "m5": ("W", False, "m1"), "m6": ("W", True, "m1")}


def check_selection(fail: list, arrays: dict, sigma_a: float, results: dict, cv: bool) -> None:
    """Every fitted model against a numpy refit on the condition arrays.

    `arrays` holds A, W, mt and sigma_obs; `results` maps "m1".."m7" to
    FitResults.  Fixed-width models are refit in full (and
    cross-validated when `cv`); free-c models are refit at their reported c
    and must reach at least the R^2 of their fixed-width form.
    """
    amp, mt, sigma = arrays["A"], arrays["mt"], arrays["sigma_obs"]
    n = len(amp)
    gap = sigma**2 - sigma_a**2
    widths = {"W": arrays["W"], "We": SQRT_2PI_E * sigma}
    bad_wf = int((gap <= 0).sum())
    if not bad_wf:
        widths["Wf"] = SQRT_2PI_E * np.sqrt(gap)
    for name, r in results.items():
        if name in FIXED:
            if name == "m7":
                _expect(fail, len(r.math_errors) == bad_wf,
                        f"m7: {len(r.math_errors)} math errors, sigma_obs <= sigma_a at {bad_wf}")
                if bad_wf:
                    continue
            x = np.log2(amp / widths[FIXED[name]] + 1.0)
            a, b, rss, r2 = _ols(x, mt)
            aic, bic = _ic(rss, n, 2)
            _expect(fail, close(r.a_ms, a) and close(r.b_ms_per_bit, b) and close(r.r2, r2),
                    f"{name}: fit ({r.a_ms}, {r.b_ms_per_bit}, {r.r2}) != numpy ({a}, {b}, {r2})")
            _expect(fail, close(r.aic, aic, abs_=1e-6) and close(r.bic, bic, abs_=1e-6),
                    f"{name}: AIC/BIC ({r.aic}, {r.bic}) != numpy ({aic}, {bic})")
            if cv:
                rmse = _loocv(x, mt)
                _expect(fail, close(r.cv_rmse_ms, rmse), f"{name}: CV RMSE {r.cv_rmse_ms} != {rmse}")
        else:
            base, use_sqrt, fixed = FREE_C[name]
            w, c = widths[base], r.c_mm
            if not (c is not None and 0.0 <= c < w.min()):
                fail.append(f"{name}: c={c} outside [0, {w.min()})")
                continue
            denom = np.sqrt(w * w - c * c) if use_sqrt else w - c
            a, b, rss, r2 = _ols(np.log2(amp / denom + 1.0), mt)
            _expect(fail, close(r.r2, r2) and close(r.a_ms, a) and close(r.b_ms_per_bit, b),
                    f"{name}: fit at c={c} ({r.a_ms}, {r.b_ms_per_bit}, {r.r2}) != numpy ({a}, {b}, {r2})")
            aic, _ = _ic(rss, n, 3)
            _expect(fail, close(r.aic, aic, abs_=1e-6), f"{name}: AIC {r.aic} != {aic}")
            if fixed in results:
                _expect(fail, r.r2 >= results[fixed].r2 - 1e-12,
                        f"{name}: R2 {r.r2} below its fixed-width form {results[fixed].r2}")
            if cv:
                _expect(fail, r.cv_rmse_ms is not None and r.cv_rmse_ms > 0
                        and math.isfinite(r.cv_rmse_ms), f"{name}: CV RMSE {r.cv_rmse_ms}")


def check_m7_cells(fail: list, md_text: str, label: str, m7) -> None:
    """m7 is unusable exactly when the W_f row of its sigma_a has !err cells."""
    row = md_numbers(md_text)["wf"].get(label)
    if row is None:
        fail.append(f"no W_f row for {label}")
        return
    n_err = row.count("!err")
    _expect(fail, (not m7.usable) == (n_err > 0) and len(m7.math_errors) == n_err,
            f"m7 usable={m7.usable} with {len(m7.math_errors)} errors, W_f row has {n_err} !err")


# ---------------------------------------------------------------------------
# taplog and simcheck: aggregation against the generator's truth
# ---------------------------------------------------------------------------

def check_summaries(fail: list, truth: list[dict], summaries, sigma_key: str) -> None:
    if len(summaries) != len(truth):
        fail.append(f"{len(summaries)} summaries, expected {len(truth)}")
        return
    for t, s in zip(truth, summaries):
        where = f"(A={t['A_mm']:g}, W={t['W_mm']:g})"
        _expect(fail, (s.condition.amplitude_mm, s.condition.width_mm) == (t["A_mm"], t["W_mm"]),
                f"condition {s.condition} where {where} expected")
        _expect(fail, s.n_trials == t["n_trials"],
                f"{where}: n_trials {s.n_trials} != {t['n_trials']}")
        _expect(fail, s.error_rate == t["n_errors"] / t["n_trials"],
                f"{where}: error_rate {s.error_rate} != {t['n_errors']}/{t['n_trials']}")
        _expect(fail, close(s.mt_ms, t["mt_ms"]), f"{where}: mt {s.mt_ms} != {t['mt_ms']}")
        _expect(fail, close(s.sigma_obs_mm, t[sigma_key]),
                f"{where}: sigma_obs {s.sigma_obs_mm} != {t[sigma_key]}")


def check_intercept(fail: list, summaries, fit) -> None:
    w2 = np.array([s.condition.width_mm ** 2 for s in summaries])
    s2 = np.array([s.sigma_obs_mm ** 2 for s in summaries])
    slope, intercept = np.polyfit(w2, s2, 1)
    _expect(fail, close(fit.slope, slope, 1e-7) and close(fit.intercept_mm2, intercept, 1e-7),
            f"intercept fit ({fit.slope}, {fit.intercept_mm2}) != numpy ({slope}, {intercept})")


def summary_arrays(summaries) -> dict:
    return {
        "A": np.array([s.condition.amplitude_mm for s in summaries]),
        "W": np.array([s.condition.width_mm for s in summaries]),
        "mt": np.array([s.mt_ms for s in summaries]),
        "sigma_obs": np.array([s.sigma_obs_mm for s in summaries]),
    }


def data_rows(path) -> int:
    """Rows of a tap CSV, not counting comment lines and the header."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    return sum(1 for line in lines if line and not line.startswith(b"#")) - 1


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

_SIGMA_ROW = re.compile(r"^\| Fitts \| ([0-9.]+) \|", re.MULTILINE)


def intercept_from_sigma_md(text: str) -> float | None:
    m = _SIGMA_ROW.search(text)
    return float(m.group(1)) if m else None


def write_golden() -> None:
    """Record the current rendering of the bundled datasets as golden."""
    import sys

    sys.path.insert(0, "src")
    from ffitts import compare, embedded, report
    from ffitts.datamodel import SigmaMethod

    golden = {}
    for name, method in GOLDEN_RUNS:
        dataset = embedded(name)
        rep = compare(dataset, None, sigma_a=dataset.sigma_a(SigmaMethod(method)), cv=True)
        golden[f"{name}/{method}"] = md_numbers(
            report.render_comparison_md(rep) + report.render_wf_md(dataset))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_golden()
