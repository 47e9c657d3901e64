"""Host-speed normalisation of wall times.

On a shared host the speed of the CPU changes from one second to the next
(the same `compare` call takes 120 ms in one 4-second window and 190 ms
in the next), so raw wall-time medians over a short run spread by 8-25%
between runs.  Each timed call is therefore bracketed by probes: runs of
fixed reference kernels that do the same kind of work as the workload,
for about PROBE_SHARE of the call's duration.  A probe's result is the
host's slowness, its kernel time over the kernels' nominal time, and the
call's time is scaled to nominal speed:

    normalised = wall / mean(slowness before, slowness after)

The kernels are the benchmark's own code and never call ffitts, so a
change to ffitts moves the call's time and not the scale.
"""

from __future__ import annotations

import csv
import io
import subprocess
import sys
import time

import numpy as np

_VECTOR = np.arange(256.0)
_TOKENS = ("1.25", "2.5", "-3.75", "4.0e1", "0.001", "612.5")


def numeric_kernel() -> float:
    """Small-vector numpy arithmetic, float parsing and dict building."""
    acc = 0.0
    for i in range(400):
        acc += float(np.dot(_VECTOR, _VECTOR * (i * 1e-4)))
        acc += sum(float(t) for t in _TOKENS)
        table = {j: j * 1.5 for j in range(16)}
        acc += table[i % 16]
    return acc


_ROWS = [
    [f"P{i % 16:02d}", i % 5, i, 20.0 + 5 * (i % 4), 2.0 * (1 + i % 5),
     round(5.0 + (i * 7.31) % 60, 2), round(10.0 + (i * 3.17) % 120, 2),
     round(6.0 + (i * 7.29) % 60, 3), round(11.0 + (i * 3.11) % 120, 3),
     round(300.0 + (i * 13.7) % 200, 1), 1 + i % 3, "false"]
    for i in range(600)
]
_CSV_TEXT = "".join(",".join(str(v) for v in row) + "\n" for row in _ROWS)


def text_kernel() -> int:
    """Tap-log CSV parsing into tuples, grouping, and writing back with repr floats."""
    groups: dict = {}
    for row in csv.reader(io.StringIO(_CSV_TEXT)):
        rec = (row[0], int(row[1]), int(row[2]), float(row[3]), float(row[4]),
               float(row[5]), float(row[6]), float(row[7]), float(row[8]),
               float(row[9]), int(row[10]), row[11] == "true")
        groups.setdefault((rec[3], rec[4]), []).append(rec)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for recs in groups.values():
        for r in recs:
            writer.writerow([r[0], r[1], r[2], repr(r[5] - r[7]), repr(r[6] - r[8]), r[9]])
    return len(out.getvalue())


def process_kernel() -> None:
    """A fresh interpreter that imports numpy: process start, page faults, file reads.

    Fresh processes slow down on this host when in-process work does not,
    so cold starts and CLI commands are scaled by this kernel.
    """
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)


# kernel -> its time in ms at nominal speed (about its median on a shared
# 2-core host)
KERNELS = {numeric_kernel: 3.4, text_kernel: 5.8, process_kernel: 200.0}
# the kernels whose mix resembles each workload's work
WORKLOAD_KERNELS = {
    "select": (numeric_kernel,),
    "taplog": (text_kernel,),
    "simcheck": (numeric_kernel, text_kernel),
    "cli": (process_kernel, text_kernel),
}
# the kernel for cold starts
COLD_START_KERNELS = (process_kernel,)
PROBE_SHARE = 0.15
MIN_PROBE_S = 0.01


def slowness(kernels, budget_s: float) -> float:
    """Run the kernels in turn for at least budget_s; time per pass over nominal."""
    nominal = sum(KERNELS[k] for k in kernels) / 1e3
    passes = 0
    start = time.perf_counter()
    while True:
        for kernel in kernels:
            kernel()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            return elapsed / passes / nominal


class Pacer:
    """Times calls between probes; each probe serves the calls on both sides."""

    def __init__(self, workload: str):
        self.kernels = WORKLOAD_KERNELS[workload]
        self.last = slowness(self.kernels, MIN_PROBE_S)
        self.end = None  # clock when the last timed call returned

    def scale(self, wall_s: float) -> float:
        """Probe now; the factor that takes wall_s, just spent, to nominal speed."""
        before = self.last
        self.last = slowness(self.kernels, max(MIN_PROBE_S, PROBE_SHARE * wall_s))
        return 2.0 / (before + self.last)

    def time(self, fn, *args):
        """Returns (result, wall seconds, normalised seconds)."""
        t = time.perf_counter()
        out = fn(*args)
        self.end = time.perf_counter()
        wall = self.end - t
        return out, wall, wall * self.scale(wall)
