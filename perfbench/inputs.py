"""Seeded input generators for the benchmark workloads.

Everything here is the benchmark's own code: it uses numpy and the csv
module only, never ffitts, so the truth it records about the inputs is
independent of the code under test.  The same seed gives byte-identical
files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

SQRT_2PI_E = math.sqrt(2.0 * math.pi * math.e)

# The tap-log schema ffitts reads (one row per tap).
TRIAL_COLUMNS = [
    "participant", "block", "trial", "A_mm", "W_mm",
    "target_x_mm", "target_y_mm", "touch_x_mm", "touch_y_mm",
    "mt_ms", "tap_index", "is_practice",
]

# taplog: 16 participants x (1 practice block + 4 live blocks) x 20
# conditions.  4 live blocks x 64 reps gives 4096 live trials per condition,
# below the 5000-sample limit of the per-condition normality check, and
# about 97k rows in all once practice rows and re-taps are added.
TAPLOG_AMPLITUDES = (20.0, 30.0, 45.0, 60.0)
TAPLOG_WIDTHS = (2.0, 4.0, 6.0, 8.0, 10.0)
TAPLOG_PARTICIPANTS = 16
TAPLOG_LIVE_BLOCKS = 4
TAPLOG_REPS = 64
TAPLOG_PRACTICE_REPS = 8
OUTLIER_RADIUS_MM = 15.0
OUTLIER_RATE = 0.01

# simcheck: the criterion-7 simulator check at 5 widths x 20k taps.
SIM_WIDTHS = (2.0, 4.0, 6.0, 8.0, 10.0)
SIM_AMPLITUDES = (30.0,)
SIM_TRIALS = 20000
SIM_ALPHA = 0.02
SIM_TOLERANCE = 0.05

# cli: `ffitts simulate` defaults to the 4 x 5 paper grid.
CLI_TRIALS = 2000
CLI_ALPHA = 0.02
CLI_TOLERANCE = 0.10


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *stream])))


def derived_seed(seed: int, *stream: int) -> int:
    """A 32-bit seed for the program, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def sim_sigma_a(seed: int, op_index: int) -> float:
    """True tremor spread for a simcheck op, in [0.8, 1.4] mm."""
    return round(0.8 + 0.6 * float(_rng(seed, 7, op_index).random()), 3)


# ---------------------------------------------------------------------------
# taplog
# ---------------------------------------------------------------------------

def write_taplog(seed: int, path: Path) -> dict:
    """Write a shuffled tap log and return the truth about it.

    Each trial has one first tap and, with a width-dependent probability,
    one or two re-taps (tap_index 2 and 3).  One live first tap in a
    hundred is pushed 18-40 mm off target, beyond the 15 mm outlier
    radius; ordinary deviations have an SD under 2 mm per axis, so no
    other tap comes near the radius.  Re-taps land within 3 mm.

    The returned truth holds, per condition, the count of retained first
    taps and of those that were re-tapped (known from how the rows were
    made) and the plain-numpy mean movement time and endpoint spreads of
    the retained first taps.
    """
    rng = _rng(seed, 1)
    alpha = 0.015 + 0.01 * rng.random()
    sigma_a = 0.8 + 0.4 * rng.random()
    mt_a, mt_b = 150.0 + 100.0 * rng.random(), 80.0 + 40.0 * rng.random()
    offsets = rng.normal(0.0, 25.0, TAPLOG_PARTICIPANTS)

    conds = [(a, w) for a in TAPLOG_AMPLITUDES for w in TAPLOG_WIDTHS]
    cols: dict[str, list] = {c: [] for c in TRIAL_COLUMNS}
    first: dict[str, list] = {k: [] for k in ("cond", "mt", "dx", "dy", "live", "outlier", "retapped")}

    def add_rows(part, block, practice, reps):
        n = len(conds) * reps
        ci = np.repeat(np.arange(len(conds)), reps)
        rng.shuffle(ci)
        amp = np.array([conds[i][0] for i in ci])
        wid = np.array([conds[i][1] for i in ci])
        tx = np.round(rng.uniform(5.0, 65.0, n), 2)
        ty = np.round(rng.uniform(10.0, 130.0, n), 2)
        sd = np.sqrt(alpha * wid**2 + sigma_a**2)
        dev = rng.normal(0.0, 1.0, (2, n)) * sd
        outlier = (rng.random(n) < OUTLIER_RATE) & (not practice)
        radius = rng.uniform(18.0, 40.0, n)
        angle = rng.uniform(0.0, 2.0 * math.pi, n)
        dev[0] = np.where(outlier, radius * np.cos(angle), dev[0])
        dev[1] = np.where(outlier, radius * np.sin(angle), dev[1])
        touch_x = np.round(tx + dev[0], 3)
        touch_y = np.round(ty + dev[1], 3)
        mt = np.round(
            mt_a + offsets[part] + mt_b * np.log2(amp / wid + 1.0)
            + rng.normal(0.0, 40.0, n), 1,
        )
        mt = np.maximum(mt, 60.0)
        p_retap = 0.3 * (2.0 / wid)
        n_retaps = (rng.random(n) < p_retap).astype(int) + (rng.random(n) < 0.2 * p_retap)
        trial = np.arange(1, n + 1)
        pid = f"P{part + 1:02d}"
        for tap in range(1, 4):
            sel = np.flatnonzero(n_retaps >= tap - 1)
            if tap == 1:
                rx, ry, rmt = touch_x[sel], touch_y[sel], mt[sel]
            else:
                rx = np.round(tx[sel] + rng.uniform(-2.0, 2.0, sel.size), 3)
                ry = np.round(ty[sel] + rng.uniform(-2.0, 2.0, sel.size), 3)
                rmt = np.round(rng.uniform(150.0, 400.0, sel.size), 1)
            m = sel.size
            cols["participant"] += [pid] * m
            cols["block"] += [block] * m
            cols["trial"] += trial[sel].tolist()
            cols["A_mm"] += amp[sel].tolist()
            cols["W_mm"] += wid[sel].tolist()
            cols["target_x_mm"] += tx[sel].tolist()
            cols["target_y_mm"] += ty[sel].tolist()
            cols["touch_x_mm"] += rx.tolist()
            cols["touch_y_mm"] += ry.tolist()
            cols["mt_ms"] += rmt.tolist()
            cols["tap_index"] += [tap] * m
            cols["is_practice"] += ["true" if practice else "false"] * m
        first["cond"].append(ci)
        first["mt"].append(mt)
        # the deviation as the reader computes it: touch minus target
        first["dx"].append(touch_x - tx)
        first["dy"].append(touch_y - ty)
        first["live"].append(np.full(n, not practice))
        first["outlier"].append(outlier)
        first["retapped"].append(n_retaps > 0)

    for part in range(TAPLOG_PARTICIPANTS):
        add_rows(part, 0, True, TAPLOG_PRACTICE_REPS)
        for block in range(1, TAPLOG_LIVE_BLOCKS + 1):
            add_rows(part, block, False, TAPLOG_REPS)

    n_rows = len(cols["participant"])
    order = rng.permutation(n_rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRIAL_COLUMNS)
        table = [cols[c] for c in TRIAL_COLUMNS]
        for i in order.tolist():
            writer.writerow([col[i] for col in table])

    f = {k: np.concatenate(v) for k, v in first.items()}
    kept = f["live"] & ~f["outlier"]
    conditions = []
    for i, (a, w) in enumerate(conds):
        sel = kept & (f["cond"] == i)
        dx, dy = f["dx"][sel], f["dy"][sel]
        var_x, var_y = np.var(dx, ddof=1), np.var(dy, ddof=1)
        conditions.append({
            "A_mm": a,
            "W_mm": w,
            "n_trials": int(sel.sum()),
            "n_errors": int((sel & f["retapped"]).sum()),
            "mt_ms": float(np.mean(f["mt"][sel])),
            "sigma_y_mm": float(np.sqrt(var_y)),
            "sigma_bivariate_mm": float(np.sqrt((var_x + var_y) / 2.0)),
        })
    return {
        "rows": n_rows,
        "practice_rows": int(np.sum(np.array(cols["is_practice"]) == "true")),
        "retap_rows": int(np.sum(np.array(cols["tap_index"]) > 1)),
        "outliers": int((f["live"] & f["outlier"]).sum()),
        "conditions": conditions,
    }


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def write_condition_set(seed: int, index: int, amplitudes, widths, path: Path) -> float:
    """Write a synthetic aggregate CSV; return the tremor spread given for m7.

    Amplitudes and widths are the given grid, jittered by up to 10% and
    rounded to 0.1 mm.  Mean movement time follows a Fitts law on the
    effective width plus noise; the endpoint spread follows the
    dual-Gaussian model with 10% multiplicative noise.  The spread given
    for m7 lies between 0.7 and 1.1 times the true one, so m7 is sometimes
    unusable.
    """
    rng = _rng(seed, 2, index)
    alpha = 0.015 + 0.01 * rng.random()
    sigma_a = 0.8 + 0.6 * rng.random()
    mt_a, mt_b = 150.0 + 100.0 * rng.random(), 80.0 + 40.0 * rng.random()
    amps = np.round(np.array(amplitudes) * rng.uniform(0.9, 1.1, len(amplitudes)), 1)
    wids = np.round(np.array(widths) * rng.uniform(0.9, 1.1, len(widths)), 1)
    a, w = np.meshgrid(amps, wids, indexing="ij")
    a, w = a.ravel(), w.ravel()
    sigma_obs = np.sqrt(alpha * w**2 + sigma_a**2) * np.exp(rng.normal(0.0, 0.1, a.size))
    mt = mt_a + mt_b * np.log2(a / (SQRT_2PI_E * sigma_obs) + 1.0) + rng.normal(0.0, 8.0, a.size)
    sigma_obs = np.round(sigma_obs, 3)
    mt = np.round(mt)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["A_mm", "W_mm", "mt_ms", "sigma_obs_mm", "n_trials", "error_rate"])
        for row in zip(a.tolist(), w.tolist(), mt.tolist(), sigma_obs.tolist()):
            writer.writerow([*row, 192, 0.1])
    return round(sigma_a * rng.uniform(0.7, 1.1), 4)


# (name, amplitude grid, width grid) of the synthetic select sets
SELECT_SETS = (
    ("synth-20", (20.0, 30.0, 45.0, 60.0), (2.0, 4.0, 6.0, 8.0, 10.0)),
    ("synth-42", (15.0, 20.0, 30.0, 45.0, 60.0, 80.0), (1.5, 2.0, 3.0, 4.5, 6.0, 8.0, 10.0)),
)


def write_select_inputs(seed: int, work: Path) -> list[dict]:
    """The select op list: two bundled datasets and two synthetic sets."""
    items = [
        {"name": "paper-1d", "sigma": "calib-ra"},
        {"name": "paper-2d", "sigma": "calib-acc"},
    ]
    for i, (name, amps, widths) in enumerate(SELECT_SETS):
        path = work / f"{name}.csv"
        sigma = write_condition_set(seed, i, amps, widths, path)
        items.append({"name": name, "csv": str(path), "sigma": sigma})
    return items


def write_inputs(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs into `work` and return its manifest."""
    manifest: dict = {"workload": workload, "seed": seed}
    if workload == "select":
        manifest["items"] = write_select_inputs(seed, work)
    elif workload == "taplog":
        path = work / "taplog.csv"
        manifest["csv"] = str(path)
        manifest["truth"] = write_taplog(seed, path)
    (work / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest
