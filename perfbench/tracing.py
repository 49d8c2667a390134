"""Span tracing of wkbmc from outside the package.

The tracer swaps module and class attributes for timing wrappers at the
points where the package's own code looks them up (``estimators`` calls
``sample_g`` through its own namespace, ``log_weight_y`` calls
``wkb.libor_c0`` through the ``wkb`` module, and so on), so the real
pricing pass runs through the wrappers while no file of the package
changes.  Every wrapper calls the original with the same arguments, so
traced results are bit-identical to untraced ones.

A span is ``[name, call_id, parent, start, end, rows]``: ``parent`` is
the index of the enclosing span (-1 for the benchmark's own top-level
call) and every span of one top-level call shares ``call_id``.  Spans
stay in memory until the caller writes them out.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np


def _rows_of(index):
    """Rows of states a call works on: the leading axes of argument ``index``."""
    def rows(args):
        return int(np.prod(np.shape(args[index])[:-1])) if len(args) > index else 0
    return rows


def _values_of(index):
    """Per-sample values a call works on: the size of argument ``index``."""
    def rows(args):
        return int(np.size(args[index])) if len(args) > index else 0
    return rows


def _one(args):
    return 1


def _zero(args):
    return 0


# (owner inside the package, attribute, span name, rows counter).  Owners
# are the namespaces the callers look the attribute up in.
SITES = (
    ("estimators", "sample_g", "proxy.sample_g", _rows_of(1)),
    ("estimators", "to_y", "lmm.to_y", _rows_of(1)),
    ("wkb", "to_y", "lmm.to_y", _rows_of(1)),
    ("estimators", "log_weight_y", "wkb.log_weight_y", _rows_of(2)),
    ("wkb", "libor_c0", "wkb.libor_c0", _rows_of(3)),
    ("wkb.WkbKernel", "c1_taylor", "wkb.WkbKernel.c1_taylor", _rows_of(1)),
    ("estimators", "make_libor_kernel", "wkb.make_libor_kernel", _one),
    ("estimators", "swaption_payoff", "payoffs.swaption_payoff", _rows_of(1)),
    ("bermudan", "swaption_payoff", "payoffs.swaption_payoff", _rows_of(1)),
    ("lmm", "log_euler_step", "lmm.log_euler_step", _rows_of(2)),
    ("lmm", "drift_mu", "lmm.drift_mu", _rows_of(2)),
    ("bermudan", "still_alive_european", "bermudan.still_alive_european", _rows_of(1)),
    ("mc.MomentAccumulator", "add", "mc.reduce", _values_of(2)),
    ("mc.MomentAccumulator", "finalize", "mc.reduce", _zero),
)

#: Span name of ``standard_normal`` on generators handed out by ``mc.rng_for``.
NORMALS = "mc.normals"

#: Every layer span name, in report order.
LAYERS = (
    "wkb.libor_c0",
    "wkb.log_weight_y",
    "wkb.WkbKernel.c1_taylor",
    "lmm.to_y",
    "wkb.make_libor_kernel",
    "proxy.sample_g",
    "payoffs.swaption_payoff",
    NORMALS,
    "lmm.log_euler_step",
    "lmm.drift_mu",
    "bermudan.still_alive_european",
    "mc.reduce",
)

#: Driver groups: a top-level call named ``<module>.<fn>`` counts toward
#: ``<module>.driver``.
DRIVERS = ("estimators", "bermudan")


class _TracedGenerator:
    """A generator whose ``standard_normal`` draws are recorded as spans."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self.standard_normal = tracer.wrap(NORMALS, gen.standard_normal, _size_rows)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _size_rows(args):
    size = args[0] if args else None
    if size is None:
        return 1
    return int(size[0]) if isinstance(size, tuple) else int(size)


class Tracer:
    """Collects spans from wrapped callables; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._call_id = -1

    def wrap(self, name, fn, rows):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, self._call_id, stack[-1] if stack else -1, 0.0, 0.0, rows(args)]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()

        return traced

    def call(self, name, fn):
        """Run ``fn()`` as one top-level call: a root span with a fresh id."""
        self._call_id += 1
        return self.wrap(name, fn, _one)()

    @contextmanager
    def installed(self, package):
        """Patch every site of ``package`` for the duration of the block."""
        saved = []
        try:
            for owner_path, attr, name, rows in SITES:
                owner = _resolve(package, owner_path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, rows))
            rng_for = package.mc.rng_for
            saved.append((package.mc, "rng_for", rng_for))
            package.mc.rng_for = lambda *a, **k: _TracedGenerator(rng_for(*a, **k), self)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, _, _, start, end, _) in enumerate(self.spans)]

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer and driver group: summed self time, calls and rows."""
        totals = {name: {"self_s": 0.0, "calls": 0, "rows": 0} for name in LAYERS}
        for group in DRIVERS:
            totals[f"{group}.driver"] = {"self_s": 0.0, "calls": 0, "rows": 0}
        for span, self_s in zip(self.spans, self.self_times()):
            name, _, parent = span[0], span[1], span[2]
            key = f"{name.split('.', 1)[0]}.driver" if parent < 0 else name
            t = totals[key]
            t["self_s"] += self_s
            t["calls"] += 1
            t["rows"] += span[5]
        return totals

    def overfull_calls(self, tol: float = 1e-9) -> list[int]:
        """Top-level calls whose child self times add up to more than their wall."""
        selfs = self.self_times()
        walls: dict[int, float] = {}
        child_sum: dict[int, float] = {}
        for span, self_s in zip(self.spans, selfs):
            cid = span[1]
            if span[2] < 0:
                walls[cid] = span[4] - span[3]
            else:
                child_sum[cid] = child_sum.get(cid, 0.0) + self_s
        return [cid for cid, wall in walls.items() if child_sum.get(cid, 0.0) > wall + tol]


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj
