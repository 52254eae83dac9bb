"""Per-layer spans for the traced benchmark run.

The tracer wraps the public functions of each slopebound layer from outside
the package. A function is replaced in every slopebound module that holds it,
so calls through imported aliases (``harness.char_poly``,
``harness.build_params``, ``plf.faulhaber_sum``, ...) are spanned as well.

A span's self time is its duration minus the time covered by the spans it
caused. Book-keeping done after a span closes (hashing arguments for
``distinct_ratio``, counting compared points) is charged to no span, so it
shows only in the overall tracing overhead.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

# (span name, module under slopebound, attribute); a dotted attribute is a method.
TARGETS = (
    ("rootsystems.build_root_system", "rootsystems", "build_root_system"),
    ("counting.truncation_divisors", "counting", "truncation_divisors"),
    ("counting.count_nh", "counting", "count_nh"),
    ("bernoulli.faulhaber_sum", "bernoulli", "faulhaber_sum"),
    ("bernoulli.bernoulli_poly", "bernoulli", "bernoulli_poly"),
    ("plf.dominates", "plf", "PiecewiseLinear.dominates"),
    ("plf.agrees_with", "plf", "PiecewiseLinear.agrees_with"),
    ("plf.profiles", "plf", "from_divisor_sequence"),
    ("plf.profiles", "plf", "f_r"),
    ("plf.profiles", "plf", "f_infinity"),
    ("newton.char_poly", "newton", "char_poly"),
    ("newton.newton_polygon", "newton", "newton_polygon"),
    ("newton.check_lower_bound", "newton", "check_lower_bound"),
    ("bounds.build_params", "bounds", "build_params"),
    ("bounds.compute_M", "bounds", "compute_M"),
    ("harness.gen_instance", "harness", "gen_instance"),
    ("harness.draw_b_seq", "harness", "draw_b_seq"),
    ("harness.verify_chain", "harness", "verify_chain"),
    ("harness.verify_corollary", "harness", "verify_corollary"),
)

# Spans whose argument tuples are counted, to expose recomputation.
KEYED = frozenset({"bernoulli.faulhaber_sum", "newton.char_poly", "bounds.build_params"})


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    keys: set = field(default_factory=set)
    points_compared: int = 0
    coeff_bits_max: int = 0

    def merge(self, data: dict) -> None:
        """Add a snapshot taken in another process (see ``Tracer.snapshot``)."""
        self.calls += data["calls"]
        self.self_s += data["self_s"]
        self.total_s += data["total_s"]
        # each process has its own caches, so distinct keys add up across processes
        self.keys.update((data.get("pid"), k) for k in data["keys"])
        self.points_compared += data["points_compared"]
        self.coeff_bits_max = max(self.coeff_bits_max, data["coeff_bits_max"])


def _merged_point_count(fn, other, x_max) -> int:
    x_max = Fraction(x_max)
    xs = {Fraction(0), x_max}
    for f in (fn, other):
        xs.update(bx for bx, _ in f.breakpoints if bx <= x_max)
    return len(xs)


def _after(name: str):
    """Book-keeping run after a successful call of span ``name``, or None."""
    if name == "plf.dominates":
        def after(stat, args, result):
            stat.points_compared += _merged_point_count(*args)
    elif name == "newton.char_poly":
        def after(stat, args, result):
            stat.keys.add(hash(args))
            stat.coeff_bits_max = max(stat.coeff_bits_max, max(c.bit_length() for c in result))
    elif name in KEYED:
        def after(stat, args, result):
            stat.keys.add(hash(args))
    else:
        after = None
    return after


class Tracer:
    """Span statistics per layer function, kept in memory for one process."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {name: LayerStat() for name, _, _ in TARGETS}
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        after = _after(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                child = stack.pop()
                stat.calls += 1
                stat.total_s += end - start
                stat.self_s += end - start - child
                if stack:
                    stack[-1] += end - start
            if after is not None:
                after(stat, args, result)
                if stack:
                    stack[-1] += perf_counter() - end
            return result

        return spanned

    def install(self) -> None:
        """Replace every target in every loaded slopebound module."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "slopebound" or n.startswith("slopebound."))]
        for name, module_name, attr in TARGETS:
            owner = sys.modules[f"slopebound.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    def snapshot(self) -> dict:
        """JSON-ready statistics, for merging into another process's tracer."""
        return {
            name: {
                "calls": st.calls, "self_s": st.self_s, "total_s": st.total_s,
                "keys": sorted(st.keys), "pid": os.getpid(),
                "points_compared": st.points_compared, "coeff_bits_max": st.coeff_bits_max,
            }
            for name, st in self.stats.items()
        }

    def merge(self, snapshot: dict) -> None:
        for name, data in snapshot.items():
            self.stats[name].merge(data)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of the benchmark, as {name: (value, unit)}."""
        st = self.stats

        def ratio(name: str) -> float:
            return len(st[name].keys) / st[name].calls if st[name].calls else 0.0

        return {
            "rootsystems.build_root_system.self_s": (st["rootsystems.build_root_system"].self_s, "s"),
            "counting.truncation_divisors.calls": (st["counting.truncation_divisors"].calls, "count"),
            "counting.truncation_divisors.self_s": (st["counting.truncation_divisors"].self_s, "s"),
            "counting.count_nh.self_s": (st["counting.count_nh"].self_s, "s"),
            "bernoulli.faulhaber_sum.calls": (st["bernoulli.faulhaber_sum"].calls, "count"),
            "bernoulli.faulhaber_sum.self_s": (st["bernoulli.faulhaber_sum"].self_s, "s"),
            "bernoulli.faulhaber_sum.distinct_ratio": (ratio("bernoulli.faulhaber_sum"), "ratio"),
            "bernoulli.bernoulli_poly.self_s": (st["bernoulli.bernoulli_poly"].self_s, "s"),
            "plf.dominates.calls": (st["plf.dominates"].calls, "count"),
            "plf.dominates.self_s": (st["plf.dominates"].self_s, "s"),
            "plf.dominates.points_compared": (st["plf.dominates"].points_compared, "count"),
            "plf.agrees_with.self_s": (st["plf.agrees_with"].self_s, "s"),
            "plf.profiles.self_s": (st["plf.profiles"].self_s, "s"),
            "newton.char_poly.calls": (st["newton.char_poly"].calls, "count"),
            "newton.char_poly.self_s": (st["newton.char_poly"].self_s, "s"),
            "newton.char_poly.distinct_ratio": (ratio("newton.char_poly"), "ratio"),
            "newton.char_poly.coeff_bits_max": (st["newton.char_poly"].coeff_bits_max, "bit"),
            "newton.newton_polygon.self_s": (st["newton.newton_polygon"].self_s, "s"),
            "newton.check_lower_bound.self_s": (st["newton.check_lower_bound"].self_s, "s"),
            "bounds.build_params.calls": (st["bounds.build_params"].calls, "count"),
            "bounds.build_params.self_s": (st["bounds.build_params"].self_s, "s"),
            "bounds.build_params.total_s": (st["bounds.build_params"].total_s, "s"),
            "bounds.build_params.distinct_ratio": (ratio("bounds.build_params"), "ratio"),
            "bounds.compute_M.self_s": (st["bounds.compute_M"].self_s, "s"),
            "harness.gen_instance.self_s": (st["harness.gen_instance"].self_s, "s"),
            "harness.draw_b_seq.self_s": (st["harness.draw_b_seq"].self_s, "s"),
            "harness.verify_chain.self_s": (st["harness.verify_chain"].self_s, "s"),
            "harness.verify_corollary.self_s": (st["harness.verify_corollary"].self_s, "s"),
        }
