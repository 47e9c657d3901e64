"""Spans and counts around the calls into each ffitts layer.

`Tracer.install()` replaces each traced function with a wrapper at the
name its caller looks it up under: `ffitts.fitting.optimize_c` is what
`loocv_rmse` calls, `ffitts.fitting.compute_id` is what `fit_model` uses,
and the benchmark itself calls the public functions through their
modules.  `uninstall()` puts the originals back, so traced and untraced
ops can alternate in one process.  Spans (name, start, end, parent, op id)
and counts stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (module, attribute, layer metric name, "span" or "count")
TARGETS = [
    ("ffitts.fitting", "compare", "fitting.compare", "span"),
    ("ffitts.fitting", "fit_model", "fitting.fit_model", "span"),
    ("ffitts.fitting", "loocv_rmse", "fitting.loocv_rmse", "span"),
    ("ffitts.fitting", "optimize_c", "fitting.optimize_c", "span"),
    ("ffitts.fitting", "ols_fit", "fitting.ols_fit", "count"),
    ("ffitts.fitting", "compute_id", "idmodels.compute_id", "count"),
    ("ffitts.fitting", "model_widths", "idmodels.model_widths", "span"),
    ("ffitts.ingestion", "load_trials_csv", "ingestion.load_trials_csv", "span"),
    ("ffitts.ingestion", "write_trials_csv", "ingestion.write_trials_csv", "span"),
    ("ffitts.datamodel", "aggregate", "datamodel.aggregate", "span"),
    ("ffitts.simulator", "generate", "simulator.generate", "span"),
    ("ffitts.sigma", "sigma_from_intercept", "sigma.sigma_from_intercept", "span"),
    ("ffitts.report", "sigma_from_intercept", "sigma.sigma_from_intercept", "span"),
    ("ffitts.sigma", "sigma_from_calibration", "sigma.sigma_from_calibration", "span"),
    ("ffitts.sigma", "normality_check", "sigma.normality_check", "span"),
    ("ffitts.report", "render_comparison_md", "report.render_md", "span"),
    ("ffitts.report", "render_wf_md", "report.render_md", "span"),
    ("ffitts.report", "fit_document", "report.to_json", "span"),
    ("ffitts.report", "to_json", "report.to_json", "span"),
]

# per-layer self-time metrics, in ms per op
TIMED = [
    "fitting.compare", "fitting.fit_model", "fitting.loocv_rmse", "fitting.optimize_c",
    "idmodels.model_widths", "ingestion.load_trials_csv", "ingestion.write_trials_csv",
    "datamodel.aggregate", "simulator.generate", "sigma.sigma_from_intercept",
    "sigma.sigma_from_calibration", "sigma.normality_check", "report.render_md",
    "report.to_json",
]
# per-layer call counts, per op
COUNTED = [
    "fitting.optimize_c", "fitting.ols_fit", "idmodels.compute_id",
    "sigma.normality_check",
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent index, op id)
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self.scale: dict[int, float] = {}  # op id -> normalised / wall time of the op
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, kind in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            wrap = self._span if kind == "span" else self._count
            setattr(module, attr, wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            counts[name + ".calls"] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            self._observe(name, args, result, end - start)
            return result

        return spanned

    def _observe(self, name, args, result, dur_ns):
        """Work counts recorded at the layer boundary."""
        counts = self.counts
        if name == "datamodel.aggregate":
            counts["datamodel.aggregate.taps_in"] += len(args[0])
            counts["datamodel.aggregate.kept"] += sum(s.n_trials for s in result)
        elif name == "simulator.generate":
            counts["simulator.taps_out"] += len(result)
        elif name == "ingestion.load_trials_csv":
            counts["ingestion.rows"] += len(result)
            counts["ingestion.load_ns"] += dur_ns

    def self_ms(self) -> dict[str, float]:
        """Total normalised self time per layer name: span time minus its child spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            total[name] += (end - start - child_ns[i]) / 1e6 * self.scale.get(op, 1.0)
        return total

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-op self times and counts, plus the layer ratios."""
        self_ms = self.self_ms()
        c = self.counts
        out = {f"{n}.ms": (self_ms.get(n, 0.0) / ops, "ms") for n in TIMED}
        out.update({f"{n}.calls": (c[f"{n}.calls"] / ops, "count") for n in COUNTED})
        load_s = c["ingestion.load_ns"] / 1e9
        out["ingestion.rows_per_s"] = (c["ingestion.rows"] / load_s if load_s else 0.0, "1/s")
        taps_in = c["datamodel.aggregate.taps_in"]
        out["datamodel.aggregate.taps_in"] = (taps_in / ops, "count")
        out["datamodel.aggregate.kept_frac"] = (
            c["datamodel.aggregate.kept"] / taps_in if taps_in else 0.0, "ratio")
        out["simulator.taps_out"] = (c["simulator.taps_out"] / ops, "count")
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counts": dict(self.counts), "spans": self.spans}, fh)
