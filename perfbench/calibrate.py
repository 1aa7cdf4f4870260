"""Machine-speed calibration for the timings the benchmark reports.

On a shared machine the same code runs 20-40% faster or slower from one
minute to the next (neighbours on the same physical core; the process's
own CPU time slows with its wall time, so CPU time does not help).  The
benchmark therefore times a fixed kernel of its own between units and
reports each time as seconds at nominal speed: raw seconds divided by the
kernel's slowdown against NOMINAL_S.  The kernel is independent of
amp_sheet, so a change to the program cannot move it, and it has the
program's cost profile: a Python loop of small numpy operations around
length-96 complex FFTs, the size of a dealiased product at n=64.

Set-up times (a fresh interpreter importing the CLI) follow the kernel
only loosely: they are process start and imports, not arithmetic.  They
are divided instead by the start-up slowdown: how long a fresh
interpreter takes to import the CLI's dependencies, numpy and click,
against NOMINAL_START_S.  That reference imports nothing of amp_sheet
either.  Over 20 batches of 11 probes on a 2-core VM whose speed swung
by about 25%, the spread (IQR/median) of the batch medians of set-up
time was 0.31 raw, 0.12 divided by the kernel's slowdown and 0.05
divided by the start-up slowdown.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# bound now, so a tracer that later wraps numpy's FFTs neither counts nor slows the kernel
_fft, _ifft = np.fft.fft, np.fft.ifft

#: kernel seconds that define nominal speed (typical on a 2-core x86 VM)
NOMINAL_S = 0.025
#: reference start-up seconds that define nominal speed (typical on the same VM)
NOMINAL_START_S = 0.15
REPEATS = 5
_ITERATIONS = 600


def kernel():
    """Seconds for one run of the fixed kernel."""
    rng = np.random.default_rng(0)
    c = rng.standard_normal(63) + 1j * rng.standard_normal(63)
    k = np.arange(-31, 32)
    t0 = time.perf_counter()
    for _ in range(_ITERATIONS):
        full = np.zeros(96, complex)
        full[:32] = c[31:]
        full[96 - 31:] = c[:31]
        v = _ifft(full)
        w = _fft(v * v)
        c = c + 1e-3 * (1j * k) * np.concatenate([w[96 - 31:], w[:32]])
        c = -1j * np.sign(k) * c / np.max(np.abs(c))  # unit scale: no under/overflow
    return time.perf_counter() - t0


def slowdown():
    """Current slowdown against nominal speed: median kernel time / NOMINAL_S."""
    return statistics.median(kernel() for _ in range(REPEATS)) / NOMINAL_S


def start_slowdown():
    """Current start-up slowdown against nominal speed: seconds from spawning
    a fresh interpreter to its having imported numpy and click, over
    NOMINAL_START_S."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import time, click, numpy; print(time.perf_counter())"],
        capture_output=True, text=True, timeout=120, check=True)
    return (float(proc.stdout.split()[-1]) - t0) / NOMINAL_START_S
