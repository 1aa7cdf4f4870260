"""Spans and counters around amp_sheet's layers, installed from outside.

`Tracer.install()` wraps every public module-level function of the six
layers (``spectral``, ``operators``, ``solver``, ``analysis``,
``nash_moser``, ``cli``) in a span recorder and rebinds each name
wherever an ``amp_sheet`` module imported it, so calls between modules
are seen too.  Besides the public functions it spans ``Lifting.at`` (the
lifting's per-node evaluation), the solver's series interpolation
(``_SeriesEvaluator.__call__``) and each CLI command's callback.

Calls that take microseconds get plain counters instead of spans:
``SpectralField`` construction, ``hilbert``, ``derivative`` and numpy's
FFTs (call count and points transformed, from the transform lengths).

A span is ``[name, start, end, parent index]`` in one in-memory list;
nothing is written until the caller asks.  Self time is a span's
duration minus the part of it its child spans cover.  Worker processes
of a campaign pool are not traced: spans they record stay in the worker.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("spectral", "operators", "solver", "analysis", "nash_moser", "cli")

#: hot calls that get counters, not spans
COUNTED = {"spectral.hilbert", "spectral.derivative"}
FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")


def _fft_points(name, a, n=None, axis=-1, *args, **kwargs):
    """Points transformed by one numpy FFT call: length times batch."""
    shape = getattr(a, "shape", None) or np.shape(a)
    if not shape:
        return 0
    m = shape[axis]
    batch = math.prod(shape) // m if m else 0
    if n is None:
        n = 2 * (m - 1) if name == "irfft" else m
    return int(n) * batch


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def spanned(self, name, fn):
        """`fn` wrapped so that each call records a span called `name`."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def _counted(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _fft_counted(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters["spectral.fft.calls"] += 1
            counters["spectral.fft.points"] += _fft_points(name, *args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def reset(self):
        """Forget recorded spans and counts (between units)."""
        if self._stack:
            raise RuntimeError("cannot reset inside an open span")
        self.spans.clear()
        self.counters.clear()

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the layers' functions; returns self.  Undo with uninstall()."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"amp_sheet.{layer}") for layer in LAYERS}
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = (self._counted(name + ".calls", obj) if name in COUNTED
                           else self.spanned(name, obj))
                wrapped[id(obj)] = (obj, wrapper)
        # rebind every reference an amp_sheet module holds, the package too
        holders = [importlib.import_module("amp_sheet"), *modules.values()]
        for holder in holders:
            for attr, obj in sorted(vars(holder).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(holder, attr, hit[1])

        ops, solver, spectral = modules["operators"], modules["solver"], modules["spectral"]
        self._patch(ops.Lifting, "at", self.spanned("operators.Lifting.at", ops.Lifting.at))
        evaluator = getattr(solver, "_SeriesEvaluator", None)
        if evaluator is not None:
            self._patch(evaluator, "__call__",
                        self.spanned("solver.interp", evaluator.__call__))
        self._patch(spectral.SpectralField, "__post_init__",
                    self._counted("spectral.fields_built",
                                  spectral.SpectralField.__post_init__))
        for fname in FFT_FUNCS:
            self._patch(np.fft, fname, self._fft_counted(fname, getattr(np.fft, fname)))
        for cmd_name, cmd in sorted(modules["cli"].main.commands.items()):
            self._patch(cmd, "callback", self.spanned(f"cli.{cmd_name}", cmd.callback))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- output --------------------------------------------------------------

    def dump(self, path, **meta):
        """Write spans (relative to the first start) and counters as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        body = {
            **meta,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [[index[n], round(a - t0, 9), round(b - t0, 9), p]
                      for n, a, b, p in self.spans],
            "counters": dict(sorted(self.counters.items())),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans):
    """Self time of each span: duration minus the union of its children."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def ancestors(spans, i):
    """Names of the spans enclosing span i, innermost first."""
    out = []
    p = spans[i][3]
    while p >= 0:
        out.append(spans[p][0])
        p = spans[p][3]
    return out


def summarize(spans, lo=0, hi=None):
    """{name: [calls, inclusive s, self s]} over spans[lo:hi].

    Self time comes from the whole tree, so a slice may start inside a
    parent span without losing its children.
    """
    hi = len(spans) if hi is None else hi
    selfs = self_times(spans)
    agg = defaultdict(lambda: [0, 0.0, 0.0])
    for i in range(lo, hi):
        name, a, b, _ = spans[i]
        row = agg[name]
        row[0] += 1
        row[1] += b - a
        row[2] += selfs[i]
    return dict(agg)


# ---------------------------------------------------------------------------
# per-layer metrics of one unit

#: name -> (unit, better); the order BENCHMARK.json lists them in
LAYER_METRICS = {
    "spectral.product.calls": ("count", "lower"),
    "spectral.product.self_s": ("s", "lower"),
    "spectral.fields_built": ("count", "lower"),
    "spectral.multiplier.calls": ("count", "lower"),
    "spectral.fft.calls": ("count", "lower"),
    "spectral.fft.points": ("count", "lower"),
    "spectral.self_s": ("s", "lower"),
    "operators.nonlinear.calls": ("count", "lower"),
    "operators.nonlinear.us_per_call": ("us", "lower"),
    "operators.linearized.calls": ("count", "lower"),
    "operators.linearized.us_per_call": ("us", "lower"),
    "operators.stability.calls": ("count", "lower"),
    "operators.lifting.self_s": ("s", "lower"),
    "operators.self_s": ("s", "lower"),
    "solver.rk4.calls": ("count", "lower"),
    "solver.rk4.us_per_step": ("us", "lower"),
    "solver.march.self_s": ("s", "lower"),
    "solver.rhs_per_step": ("count", "lower"),
    "solver.interp.calls": ("count", "lower"),
    "solver.interp.self_s": ("s", "lower"),
    "solver.self_s": ("s", "lower"),
    "analysis.verify.self_s": ("s", "lower"),
    "analysis.norm.self_s": ("s", "lower"),
    "analysis.apply_linearized.calls": ("count", "lower"),
    "analysis.apply_linearized.per_trajectory": ("count", "lower"),
    "analysis.campaign.samples_per_s": ("1/s", "higher"),
    "analysis.campaign.jobs_speedup": ("ratio", "higher"),
    "analysis.self_s": ("s", "lower"),
    "nash_moser.sweeps": ("count", "lower"),
    "nash_moser.corrections": ("count", "lower"),
    "nash_moser.self_s": ("s", "lower"),
    "nash_moser.linear_solve_s": ("s", "lower"),
    "nash_moser.nonlinear_calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_SOLVES = {"solver.solve_nonlinear", "solver.solve_linearized"}
_RHS = {"operators.quadratic_rhs", "operators.apply_linearized_operator"}
_LIFTING = ("operators.build_lifting", "operators.lifting_forcing", "operators.Lifting.at")
_NORMS = ("analysis.weighted_l2_norm", "analysis.sup_sobolev_norm",
          "analysis.xm_norm", "analysis.ym_norm")


def unit_layer_metrics(spans, counters, *, trajectories=0, facts=None,
                       bytes_written=0, campaign_range=None, campaign_samples=0):
    """Per-layer metrics of one traced unit (every LAYER_METRICS name but
    the two that compare runs, jobs_speedup and trace.overhead_s).

    `trajectories` is how many trajectories the unit verified (the energy
    pairs); `campaign_range` the span slice of the ``--jobs 2`` invocation
    that `campaign_samples` lemma samples ran in.
    """
    facts = facts or {}
    agg = summarize(spans)

    def calls(*names):
        return sum(agg[n][0] for n in names if n in agg)

    def incl(*names):
        return sum(agg[n][1] for n in names if n in agg)

    def self_(*names, prefix=None):
        if prefix is not None:
            names = [n for n in agg if n.startswith(prefix)]
        return sum(agg[n][2] for n in names if n in agg)

    def per_call_us(name):
        return 1e6 * incl(name) / calls(name) if calls(name) else 0.0

    rhs_in_solver = nonlinear_outside = linear_solve_s = 0
    for i, (name, start, end, _) in enumerate(spans):
        if name in _RHS or name == "solver.solve_linearized":
            up = ancestors(spans, i)
            in_solver = any(a in _SOLVES for a in up)
            in_newton = any(a.startswith("nash_moser.") for a in up)
            if name in _RHS and in_solver:
                rhs_in_solver += 1
            if name == "operators.quadratic_rhs" and in_newton and not in_solver:
                nonlinear_outside += 1
            if name == "solver.solve_linearized" and "nash_moser.iterate" in up:
                linear_solve_s += end - start

    rk4 = calls("solver.rk4_step")
    samples_per_s = 0.0
    if campaign_range is not None:
        part = summarize(spans, *campaign_range)
        busy = part.get("analysis.estimate_commutator_constant", [0, 0.0, 0.0])[1]
        samples_per_s = campaign_samples / busy if busy > 0 else 0.0
    return {
        "spectral.product.calls": calls("spectral.pointwise_product"),
        "spectral.product.self_s": self_("spectral.pointwise_product"),
        "spectral.fields_built": counters["spectral.fields_built"],
        "spectral.multiplier.calls": (counters["spectral.hilbert.calls"]
                                      + counters["spectral.derivative.calls"]
                                      + calls("spectral.apply_multiplier",
                                              "spectral.project")),
        "spectral.fft.calls": counters["spectral.fft.calls"],
        "spectral.fft.points": counters["spectral.fft.points"],
        "spectral.self_s": self_(prefix="spectral."),
        "operators.nonlinear.calls": calls("operators.quadratic_rhs"),
        "operators.nonlinear.us_per_call": per_call_us("operators.quadratic_rhs"),
        "operators.linearized.calls": calls("operators.linearized_parts"),
        "operators.linearized.us_per_call": per_call_us("operators.linearized_parts"),
        "operators.stability.calls": calls("operators.stability_coefficient"),
        "operators.lifting.self_s": self_(*_LIFTING),
        "operators.self_s": self_(prefix="operators."),
        "solver.rk4.calls": rk4,
        "solver.rk4.us_per_step": per_call_us("solver.rk4_step"),
        "solver.march.self_s": self_(*_SOLVES),
        "solver.rhs_per_step": rhs_in_solver / rk4 if rk4 else 0.0,
        "solver.interp.calls": calls("solver.interp"),
        "solver.interp.self_s": self_("solver.interp"),
        "solver.self_s": self_(prefix="solver."),
        "analysis.verify.self_s": sum(r[2] for n, r in agg.items()
                                      if n.startswith("analysis.verify_")),
        "analysis.norm.self_s": self_(*_NORMS),
        "analysis.apply_linearized.calls": calls("analysis.apply_linearized"),
        "analysis.apply_linearized.per_trajectory": (
            calls("analysis.apply_linearized") / trajectories if trajectories else 0.0),
        "analysis.campaign.samples_per_s": samples_per_s,
        "analysis.self_s": self_(prefix="analysis."),
        "nash_moser.sweeps": facts.get("sweeps", 0),
        "nash_moser.corrections": facts.get("corrections", 0),
        "nash_moser.self_s": self_(prefix="nash_moser."),
        "nash_moser.linear_solve_s": linear_solve_s,
        "nash_moser.nonlinear_calls": nonlinear_outside,
        "cli.self_s": self_(prefix="cli."),
        "cli.bytes_written": bytes_written,
    }
