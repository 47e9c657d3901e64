"""One workload's ops, run in a fresh interpreter started by run.py.

    python3 perfbench/worker.py --workload W --work DIR --seed N \
        --seconds S --trace 0|1 [--trace-out FILE]

The worker imports what the workload needs and runs the first op untimed;
the monotonic clock at the end of that op (and a speed probe right after
it) let run.py time the cold start.  It then runs whole cycles of ops
until the seconds are spent, checks every op's output and prints one JSON
line of results.  Ops are a closed loop: one at a time, one caller.  With
--trace 1, traced and untraced cycles alternate.

ffitts is imported from `src` (run.py sets PYTHONPATH).  Ops call the
public functions through their modules, so the tracer's wrappers are the
ones called.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import inputs
from speed import COLD_START_KERNELS, Pacer, slowness
from tracing import Tracer

MAX_FAILURE_MESSAGES = 20


class Select:
    """compare() over all seven models with CV, then every rendering."""

    warm_up = True

    def __init__(self, manifest, work, seed):
        from ffitts import datamodel, fitting, ingestion, report

        self.fitting, self.report = fitting, report
        golden = checks.load_golden()
        self.items = []
        for spec in manifest["items"]:
            if "csv" in spec:
                dataset = ingestion.load_aggregate_csv(spec["csv"], name=spec["name"])
                sigma = datamodel.SigmaEstimate(
                    spec["sigma"], datamodel.SigmaMethod.USER_GIVEN, "perfbench")
                cols = _read_aggregate(spec["csv"])
                spec = dict(spec, extra=(sigma,), golden=None, arrays=cols)
            else:
                dataset = ingestion.embedded(spec["name"])
                sigma = dataset.sigma_a(datamodel.SigmaMethod(spec["sigma"]))
                spec = dict(spec, extra=(), golden=golden[f"{spec['name']}/{spec['sigma']}"],
                            arrays=checks.summary_arrays(dataset.summaries))
            self.items.append(dict(spec, dataset=dataset, sigma_est=sigma))

    def cycle(self, k):
        return self.items

    def op(self, item):
        rep = self.fitting.compare(item["dataset"], None, sigma_a=item["sigma_est"], cv=True)
        md = self.report.render_comparison_md(rep)
        wf = self.report.render_wf_md(item["dataset"], item["extra"])
        js = self.report.to_json(self.report.fit_document(rep, item["dataset"]))
        return rep, md, wf, js

    def check(self, item, out, fail):
        rep, md, wf, js = out
        if item["golden"] is not None:
            checks.check_golden(fail, item["golden"], md + wf)
        checks.check_json(fail, js, checks.md_numbers(md)["comparison"])
        results = {r.model.value: r for r in rep.results}
        checks.check_selection(fail, item["arrays"], item["sigma_est"].sigma_a_mm, results, cv=True)
        checks.check_m7_cells(fail, wf, item["sigma_est"].method.label, results["m7"])

    def units(self, item, out):
        return 1

    def expected_optimize_c_calls(self):
        """4 free-c models x (1 full fit + n CV folds), per op of a cycle."""
        return statistics.fmean(4 * (1 + len(i["dataset"].summaries)) for i in self.items)


def _read_aggregate(path):
    data = np.genfromtxt(path, delimiter=",", names=True)
    return {"A": data["A_mm"], "W": data["W_mm"], "mt": data["mt_ms"],
            "sigma_obs": data["sigma_obs_mm"]}


class Taplog:
    """A tap log through ingest, aggregation, both sigma estimators and m1/m2/m7."""

    warm_up = True

    def __init__(self, manifest, work, seed):
        from ffitts import datamodel, fitting, ingestion, sigma
        from ffitts.idmodels import Model

        self.datamodel, self.fitting, self.ingestion, self.sigma = datamodel, fitting, ingestion, sigma
        self.models = [Model.M1_BASELINE, Model.M2_EFFECTIVE, Model.M7_GIVEN_SIGMA_A]
        self.path = manifest["csv"]
        self.truth = manifest["truth"]

    def cycle(self, k):
        return [None]

    def op(self, _):
        dm, sg = self.datamodel, self.sigma
        records = self.ingestion.load_trials_csv(self.path)
        by_y = dm.aggregate(records, dm.AxisMode.Y)
        by_xy = dm.aggregate(records, dm.AxisMode.BIVARIATE)
        fit = sg.sigma_from_intercept(by_y)
        groups = defaultdict(lambda: ([], []))
        for t in records:
            if t.is_practice or t.tap_index != 1:
                continue
            dx, dy = t.touch_x_mm - t.target_x_mm, t.touch_y_mm - t.target_y_mm
            if math.hypot(dx, dy) <= inputs.OUTLIER_RADIUS_MM:
                group = groups[(t.condition.amplitude_mm, t.condition.width_mm)]
                group[0].append(dx)
                group[1].append(dy)
        calib, normal = [], []
        for key in sorted(groups):
            dx, dy = groups[key]
            calib.append(sg.sigma_from_calibration(
                np.column_stack([dx, dy]), sg.CalibrationMode.BIVARIATE,
                method=dm.SigmaMethod.CALIB_ACCURACY_ONLY))
            normal.append(sg.normality_check(dy))
        dataset = dm.Dataset("taplog", dm.Dimensionality.TWO_D, tuple(by_y))
        rep = self.fitting.compare(dataset, self.models, sigma_a=fit.estimate(), cv=False)
        return len(records), by_y, by_xy, fit, calib, normal, rep

    def check(self, _, out, fail):
        n_rows, by_y, by_xy, fit, calib, normal, rep = out
        truth = self.truth
        if n_rows != truth["rows"]:
            fail.append(f"{n_rows} rows read, {truth['rows']} written")
        checks.check_summaries(fail, truth["conditions"], by_y, "sigma_y_mm")
        checks.check_summaries(fail, truth["conditions"], by_xy, "sigma_bivariate_mm")
        checks.check_intercept(fail, by_y, fit)
        if len(calib) != len(truth["conditions"]):
            fail.append(f"{len(calib)} calibration groups")
        for t, est in zip(truth["conditions"], calib):
            if not checks.close(est.sigma_a_mm, t["sigma_bivariate_mm"]):
                fail.append(f"calibration {est.sigma_a_mm} != {t['sigma_bivariate_mm']}")
        for res in normal:
            if not (0.0 < res.statistic <= 1.0 and 0.0 <= res.p_value <= 1.0):
                fail.append(f"normality result out of range: {res}")
        results = {r.model.value: r for r in rep.results}
        checks.check_selection(fail, checks.summary_arrays(by_y), fit.sigma_a_mm, results, cv=False)

    def units(self, _, out):
        return out[0]


class Simcheck:
    """The simulator check: generate, export as `ffitts simulate --out`, recover sigma_a."""

    warm_up = True

    def __init__(self, manifest, work, seed):
        from ffitts import datamodel, ingestion, sigma, simulator

        self.datamodel, self.ingestion, self.sigma, self.simulator = datamodel, ingestion, sigma, simulator
        self.seed = seed
        self.path = str(Path(work) / "simcheck.csv")

    def cycle(self, k):
        from ffitts.datamodel import Dimensionality

        return [(2 * k, Dimensionality.ONE_D), (2 * k + 1, Dimensionality.TWO_D)]

    def op(self, arg):
        index, dim = arg
        config = self.simulator.SimulatorConfig(
            alpha=inputs.SIM_ALPHA,
            sigma_a_mm=inputs.sim_sigma_a(self.seed, index),
            widths_mm=inputs.SIM_WIDTHS,
            amplitudes_mm=inputs.SIM_AMPLITUDES,
            trials_per_condition=inputs.SIM_TRIALS,
            seed=inputs.derived_seed(self.seed, 3, index),
            dimensionality=dim,
        )
        records = self.simulator.generate(config)
        self.ingestion.write_trials_csv(
            records, self.path, metadata=self.simulator.config_metadata(config))
        summaries = self.datamodel.aggregate(records, outlier_radius_mm=1e9)
        fit = self.sigma.sigma_from_intercept(summaries)
        return config, len(records), summaries, fit

    def check(self, _, out, fail):
        from ffitts.errors import NonPhysicalInterceptError

        config, n, summaries, fit = out
        expected = len(inputs.SIM_WIDTHS) * len(inputs.SIM_AMPLITUDES) * inputs.SIM_TRIALS
        if n != expected:
            fail.append(f"{n} taps generated, expected {expected}")
        if any(s.n_trials != inputs.SIM_TRIALS for s in summaries):
            fail.append("a condition lost taps in aggregation")
        rows = checks.data_rows(self.path)
        if rows != expected:
            fail.append(f"{rows} rows written, expected {expected}")
        checks.check_intercept(fail, summaries, fit)
        try:
            got = fit.sigma_a_mm
        except NonPhysicalInterceptError as exc:
            fail.append(str(exc))
            return
        if abs(got - config.sigma_a_mm) > inputs.SIM_TOLERANCE * config.sigma_a_mm:
            fail.append(f"recovered sigma_a {got:.4f}, true {config.sigma_a_mm}")

    def units(self, _, out):
        return out[1]


CLI_COMMANDS = ("fit_json", "fit_md_out", "simulate_out", "sigma_input", "datasets")


def cli_command(*args):
    return [sys.executable, "-m", "ffitts.cli", *args]


def run_child(cmd, timeout=120):
    """Run a child to completion; the child is killed and reaped on timeout."""
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)


class Cli:
    """Fresh `python -m ffitts.cli` processes, one at a time, five per session."""

    # every command is a fresh process, so there is no in-process state to warm
    warm_up = False

    def __init__(self, manifest, work, seed):
        self.work = Path(work)
        self.seed = seed
        self.golden = checks.load_golden()
        self.command_ms = defaultdict(list)

    def cycle(self, k):
        return [k]

    def _argv(self, name, k):
        w = self.work
        if name == "fit_json":
            return cli_command("fit", "--dataset", "paper-2d", "--models", "all",
                               "--sigma-a", "calib-acc", "--format", "json")
        if name == "fit_md_out":
            return cli_command("fit", "--dataset", "paper-1d", "--models", "all",
                               "--sigma-a", "calib-ra", "--format", "md", "--out", str(w / "fit.md"))
        if name == "simulate_out":
            return cli_command("simulate", "--alpha", repr(inputs.CLI_ALPHA),
                               "--sigma-a", repr(self._sigma_a(k)),
                               "--trials", str(inputs.CLI_TRIALS), "--dim", "2d",
                               "--seed", str(inputs.derived_seed(self.seed, 4, k)),
                               "--out", str(w / "sim.csv"))
        if name == "sigma_input":
            return cli_command("sigma", "--input", str(w / "sim.csv"), "--method", "all",
                               "--dim", "2d")
        return cli_command("datasets")

    def _sigma_a(self, k):
        return inputs.sim_sigma_a(self.seed, 10_000 + k)

    def timed_op(self, k, pacer):
        """A session, timed command by command: (outputs, wall s, normalised s)."""
        out, wall, norm = {}, 0.0, 0.0
        for name in CLI_COMMANDS:
            out[name], w, n = pacer.time(run_child, self._argv(name, k))
            self.command_ms[name].append(n * 1e3)
            wall, norm = wall + w, norm + n
        return out, wall, norm

    def check(self, k, out, fail):
        for name, proc in out.items():
            if proc.returncode != 0:
                fail.append(f"{name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if fail:
            return
        checks.check_json(fail, out["fit_json"].stdout,
                          self.golden["paper-2d/calib-acc"]["comparison"])
        checks.check_golden(fail, self.golden["paper-1d/calib-ra"],
                            (self.work / "fit.md").read_text(encoding="utf-8"))
        taps = 4 * 5 * inputs.CLI_TRIALS
        rows = checks.data_rows(self.work / "sim.csv")
        if rows != taps:
            fail.append(f"simulate wrote {rows} rows, expected {taps}")
        got, true = checks.intercept_from_sigma_md(out["sigma_input"].stdout), self._sigma_a(k)
        if got is None or abs(got - true) > inputs.CLI_TOLERANCE * true:
            fail.append(f"sigma --input intercept estimate {got}, true {true}")
        listing = out["datasets"].stdout
        if "paper-1d" not in listing or "paper-2d" not in listing:
            fail.append("datasets does not list paper-1d and paper-2d")

    def units(self, k, out):
        return 1


WORKLOADS = {"select": Select, "taplog": Taplog, "simcheck": Simcheck, "cli": Cli}


def import_ms(pacer, repeats=3):
    """Fresh `import ffitts.cli` minus a bare interpreter, in normalised ms (medians)."""
    bare, full = [], []
    for _ in range(repeats):
        for cmd, sink in (([sys.executable, "-c", "pass"], bare),
                          ([sys.executable, "-c", "import ffitts.cli"], full)):
            proc, _, norm = pacer.time(run_child, cmd)
            proc.check_returncode()
            sink.append(norm)
    return (statistics.median(full) - statistics.median(bare)) * 1e3


class Loop:
    """Runs ops, times them and checks their output."""

    def __init__(self, workload, name):
        self.workload = workload
        self.pacer = Pacer(name)
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def run(self, arg):
        """One op; returns (wall s, normalised s, work units), or None when it failed."""
        self.attempted += 1
        fail: list[str] = []
        result = None
        try:
            timed_op = getattr(self.workload, "timed_op", None)
            if timed_op is not None:
                out, wall, norm = timed_op(arg, self.pacer)
            else:
                out, wall, norm = self.pacer.time(self.workload.op, arg)
            self.workload.check(arg, out, fail)
            result = wall, norm, self.workload.units(arg, out)
        except Exception:  # an op that raises is a failed op; keep measuring
            fail.append(traceback.format_exc(limit=3))
        if fail:
            self.failed += 1
            self.failures.extend(fail[: MAX_FAILURE_MESSAGES - len(self.failures)])
            return None
        return result


def measure(workload, name, seconds, trace, trace_out):
    loop = Loop(workload, name)
    tracer = Tracer() if trace else None
    k = 0
    cold_start_end = cold_start_slowness = None
    if workload.warm_up:
        loop.run(workload.cycle(0)[0])  # the cold-start op, untimed here
        cold_start_end = loop.pacer.end
        cold_start_slowness = slowness(COLD_START_KERNELS, 0.0)
        k = 1
    cycles = {False: [], True: []}  # traced? -> mean normalised op ms per cycle
    wall_ms, units, op_s, traced_ops = [], 0, 0.0, 0
    ran = {False: 0, True: 0}  # cycles run, failed ones too
    start = time.perf_counter()
    while True:
        traced = bool(trace) and k % 2 == 1
        if traced:
            tracer.install()
        times = []
        try:
            for arg in workload.cycle(k):
                if traced:
                    tracer.op_id += 1
                res = loop.run(arg)
                if res is not None:
                    wall_ms.append(res[0] * 1e3)
                    times.append(res[1])
                    units += res[2]
                    if traced:
                        tracer.scale[tracer.op_id] = res[1] / res[0]
                if traced:
                    traced_ops += 1
        finally:
            if traced:
                tracer.uninstall()
        if times:
            cycles[traced].append(statistics.fmean(times) * 1e3)
            op_s += sum(times)
        ran[traced] += 1
        k += 1
        if time.perf_counter() - start >= seconds and ran[False] and (ran[True] or not trace):
            break
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if isinstance(workload, Cli) else resource.RUSAGE_SELF)
    result = {
        "cold_start_end": cold_start_end,
        "cold_start_slowness": cold_start_slowness,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures,
        "cycle_ms": cycles[False],
        "wall_ms": wall_ms,
        "units": units,
        "op_seconds": op_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if trace:
        layers = tracer.layer_metrics(max(traced_ops, 1))
        layers["trace.overhead_frac"] = (
            statistics.median(cycles[True]) / statistics.median(cycles[False]) - 1.0
            if cycles[True] and cycles[False] else None, "ratio")
        layers["cli.import_ms"] = (import_ms(loop.pacer), "ms")
        command_ms = getattr(workload, "command_ms", {})
        for name in CLI_COMMANDS:
            samples = command_ms.get(name)
            layers[f"cli.{name}.ms"] = (statistics.median(samples) if samples else 0.0, "ms")
        result["layers"] = layers
        if isinstance(workload, Select):
            result["expected_optimize_c_calls"] = workload.expected_optimize_c_calls()
        if trace_out:
            tracer.dump(trace_out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    manifest = json.loads((Path(args.work) / "manifest.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload](manifest, args.work, args.seed)
    result = measure(workload, args.workload, args.seconds, args.trace, args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
