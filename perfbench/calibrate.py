"""Machine-speed calibration for timings on a shared host.

Machine speed on a shared host drifts by tens of percent within seconds.
So a fixed kernel that does not touch tsqueue is timed before and after
each measurement, and the measurement is scaled by the kernel's reference
time over its mean measured time: the time it would take on a machine that
runs the kernel in its reference time.

Operations are calibrated with a kernel timed in the worker between
operations.  It mixes the three kinds of work the workloads do: scalar
float arithmetic in Python, calls into numpy on small arrays, and parsing
CSV text, since contention on the host slows each kind by a different
amount.  Over 4 minutes on a shared 2-core Xeon, in which the mean time of
a fit or a figure over 5-second windows varied by 15-17% (coefficient of
variation), its ratio to this kernel's time varied by 2.5% (fit) and 2.4%
(figure), and its ratio to a pure-Python float loop's by 4.0% and 3.3%.

Set-up time, which is process creation and file access more than
computation, is calibrated with the start of a fresh interpreter that
imports a fixed set of standard-library modules.
"""

import csv
import io
import math
import subprocess
import sys
import time
from array import array

import numpy as np

REF_KERNEL_S = 6e-4
INTERVAL_S = 0.05  # at most this long between kernel samples during a run
REF_START_S = 0.1
START_KERNEL = (
    "import sys, time; spawned = float(sys.argv[1]); "
    "import argparse, csv, decimal, email.parser, fractions, http.client, json, "
    "logging, statistics, xml.dom.minidom; "
    "print(time.monotonic() - spawned)"
)


_X = np.linspace(0.01, 5.0, 200)
_DESIGN = np.column_stack([np.ones_like(_X), np.exp(-_X), _X ** -0.3, np.log(_X)])
_TEXT = "".join(f"{i / 9.0!r},{math.exp(-i / 50.0)!r},{math.sqrt(i + 1.0)!r}\n"
                for i in range(100))


def calibration_kernel():
    """Fixed mixed work, about REF_KERNEL_S on the reference machine."""
    acc = 0.0
    for i in range(1500):
        acc += math.log1p(i / 7.0) * 1.0000001
    for _ in range(2):
        coef = np.linalg.lstsq(_DESIGN, np.exp(-_X) + _X ** -0.3, rcond=None)[0]
        acc += math.fsum(_DESIGN @ coef)
    acc += sum(float(v) for row in csv.reader(io.StringIO(_TEXT)) for v in row)
    return acc


def kernel_time():
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


class Calibration:
    """Kernel samples taken between operations, and the scaling they give.

    The operations between two kernel samples are scaled by REF_KERNEL_S
    over the mean of those two samples.
    """

    def __init__(self):
        calibration_kernel()  # unmeasured, so the interpreter specialises it first
        self.times = []
        self.first_op = []  # index of the first operation after each sample
        self.next_due = 0.0

    def maybe_sample(self, now, ops_done):
        if now >= self.next_due:
            self.times.append(kernel_time())
            self.first_op.append(ops_done)
            self.next_due = time.perf_counter() + INTERVAL_S

    def scale(self, raw):
        """The raw operation times, scaled; takes the closing kernel sample."""
        self.times.append(kernel_time())
        self.first_op.append(len(raw))
        scaled = array("d", raw)
        for k in range(len(self.times) - 1):
            factor = 2.0 * REF_KERNEL_S / (self.times[k] + self.times[k + 1])
            for i in range(self.first_op[k], self.first_op[k + 1]):
                scaled[i] *= factor
        return scaled


def start_time(cwd, env, timeout):
    """Wall time of a fresh interpreter through START_KERNEL's imports."""
    cmd = [sys.executable, "-c", START_KERNEL, repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout, check=True)
    return float(proc.stdout)
