"""The ffitts benchmark: one seeded workload, measured and checked.

    python3 perfbench/run.py --workload select|taplog|simcheck|cli \
        --seed N --seconds S --trace 0|1

Run from the repository root.  It writes the workload's inputs from the
seed under `.bench_work/`, then runs the ops in fresh worker processes
(worker.py).  Without tracing there are COLD_STARTS workers, each
measuring its share of the S seconds, so per-process effects average out;
each worker's first op, from interpreter start to the op's end, is one
cold start for `setup_s` (the benchmark's own input generation is not
counted).  For `cli`, one worker runs the CLI sessions, and the cold starts
are separate `ffitts datasets` processes.  With --trace 1 one worker runs
for S seconds, alternating traced and untraced cycles.

It prints the environment, each metric with its unit, and as its last
line one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  It exits 1 when any output check failed, and 2 when it
cannot run at all (no `src/ffitts` to benchmark).  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import inputs
from speed import COLD_START_KERNELS, Pacer, slowness

HERE = Path(__file__).resolve().parent
COLD_STARTS = 3
CHILD_TIMEOUT_S = 150
# one BLAS/OpenMP thread: the workloads are single-caller closed loops
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# what one unit of throughput_per_s is, per workload
WORK_UNIT = {"select": "fits (compare + render ops)", "taplog": "tap rows read",
             "simcheck": "taps generated", "cli": "CLI sessions"}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["FFITTS_NO_COLOR"] = "1"
    return env


def run_child(cmd, env, cwd):
    """Run a child to completion; on timeout it is killed and reaped."""
    proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {' '.join(cmd[:4])} ... exited {proc.returncode}")
    return proc


def cli_cold_start(env, root, pacer) -> tuple[float, float]:
    """One `ffitts datasets` process: wall and normalised seconds."""
    t = time.perf_counter()
    run_child([sys.executable, "-m", "ffitts.cli", "datasets"], env, root)
    wall = time.perf_counter() - t
    return wall, wall * pacer.scale(wall)


def run_worker(args, work, env, root, seconds, trace_out) -> dict:
    """A fresh worker process.  The result gains the cold start it paid,
    from interpreter start to the end of its first op (wall, normalised s)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--work", str(work), "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--trace-out", str(trace_out)]
    before = slowness(COLD_START_KERNELS, 0.0)
    t = time.perf_counter()
    res = json.loads(run_child(cmd, env, root).stdout.strip().splitlines()[-1])
    if res["cold_start_end"] is not None:
        # both clocks are the system-wide monotonic clock
        wall = res["cold_start_end"] - t
        res["cold_start"] = wall, wall * 2.0 / (before + res["cold_start_slowness"])
    return res


def merge(results: list[dict]) -> dict:
    """One run's results from its workers."""
    out = dict(results[0])
    for key in ("cycle_ms", "wall_ms", "failures"):
        out[key] = [v for r in results for v in r[key]]
    for key in ("attempted", "failed", "units", "op_seconds"):
        out[key] = sum(r[key] for r in results)
    out["peak_rss_mb"] = max(r["peak_rss_mb"] for r in results)
    return out


def sha256_of(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, seed: int, work: Path, env: dict) -> dict:
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "blas": blas,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": sha256_of((root / "src" / "ffitts").glob("*.py")),
        "inputs_sha256": sha256_of(work.glob("*.csv")),
        "seed": seed,
    }


def median(values):
    """None when nothing was measured (every op failed)."""
    return statistics.median(values) if values else None


def fmt(value) -> str:
    return f"{'n/a':>14s}" if value is None else f"{value:14.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["select", "taplog", "simcheck", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # One CPU for this process and every child: one process runs at a time,
    # and the speed probes then sample the CPU the timed work runs on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    root = Path.cwd()
    if not (root / "src" / "ffitts" / "__init__.py").is_file():
        print("perfbench: no src/ffitts here; run from the repository root", file=sys.stderr)
        return 2

    bench_dir = root / ".bench_work"
    work = bench_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = child_env(root)
    try:
        inputs.write_inputs(args.workload, args.seed, work)
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print("env " + json.dumps(environment(root, args.seed, work, env)))
        trace_out = bench_dir / f"trace-{args.workload}-{args.seed}.json"
        if args.trace:
            setups, results = [], [run_worker(args, work, env, root, args.seconds, trace_out)]
        elif args.workload == "cli":
            pacer = Pacer("cli")
            setups = [cli_cold_start(env, root, pacer) for _ in range(COLD_STARTS)]
            results = [run_worker(args, work, env, root, args.seconds, trace_out)]
        else:
            # each worker is one cold start and measures its share of the seconds
            results = [run_worker(args, work, env, root, args.seconds / COLD_STARTS, trace_out)
                       for _ in range(COLD_STARTS)]
            setups = [r["cold_start"] for r in results if "cold_start" in r]
        res = merge(results)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in res["failures"]:
        print("check failed: " + message, file=sys.stderr)
    lines = []
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in sorted(res["layers"].items())}
        for name, m in metrics.items():
            lines.append(f"{name:34s} {fmt(m['value'])} {m['unit']}")
        if "expected_optimize_c_calls" in res:
            lines.append(f"{'':34s} fitting.optimize_c.calls expected 4*(1+n) per op "
                         f"= {res['expected_optimize_c_calls']:g}")
    else:
        metrics = {
            "setup_s": {"value": median([n for _, n in setups]), "unit": "s"},
            "op_p50_ms": {"value": median(res["cycle_ms"]), "unit": "ms"},
            "throughput_per_s": {"value": res["units"] / res["op_seconds"]
                                 if res["op_seconds"] else None, "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        notes = {
            "setup_s": f"median of {len(setups)} cold starts; raw wall median "
                       f"{fmt(median([w for w, _ in setups])).strip()} s",
            "op_p50_ms": f"median over {len(res['cycle_ms'])} op cycles of the mean op time; "
                         f"raw wall median {fmt(median(res['wall_ms'])).strip()} ms",
            "throughput_per_s": WORK_UNIT[args.workload] + " per second of op time",
            "peak_rss_mb": "CLI child processes" if args.workload == "cli" else "worker process",
        }
        for name, m in metrics.items():
            lines.append(f"{name:18s} {fmt(m['value'])} {m['unit']:5s} {notes[name]}")
    lines.append(f"{'fail_frac':18s} {res['failed'] / res['attempted']:14.6g} ratio "
                 f"{res['failed']}/{res['attempted']} ops failed a check")
    print("\n".join(lines))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
