"""Spans and counters recorded around hcpack's public functions.

The tracer patches names where their callers look them up (module
globals, class attributes), so the package itself stays untouched.  Spans
are kept in memory with their parent span and folded into per-name totals
and self times after each operation; hot leaf predicates only count.

`Tracer.metrics` derives every per-layer metric of a traced run;
README.md maps each to the end-to-end metric it should move.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class OpTimeout(BaseException):
    """An operation hit its limit.  BaseException, so no `except Exception`
    inside the program can swallow it."""


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


class Tracer:
    """Patches hcpack while active.  Inside `capped()`, at most `cross_cap`
    crossing-predicate calls are allowed, so a traced pack that runs too
    long stops at the same point on every run."""

    def __init__(self, cross_cap: int):
        self.cross_cap = cross_cap
        self._budget = None  # crossing calls left while a capped op runs
        self.counts: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self._spans: list = []  # [name, start, end, parent index]
        self._stack: list = []
        self._patches: list = []

    # -- recording ----------------------------------------------------------
    def _spanned(self, name, fn, failure=None, count_result=None):
        spans, stack, counts, clock = self._spans, self._stack, self.counts, time.perf_counter
        calls, failed = name + ".calls", name + ".failed"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            counts[calls] += 1
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if failure is not None and isinstance(exc, failure):
                    counts[failed] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if count_result is not None:
                counts[count_result] += len(out)
            return out

        return wrapper

    def _counted(self, name, fn, failure=None):
        counts = self.counts
        calls, failed = name + ".calls", name + ".failed"
        if failure is None:
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                try:
                    return fn(*args, **kwargs)
                except failure:
                    counts[failed] += 1
                    raise
        return wrapper

    def _cross(self, fn):
        counts = self.counts

        def wrapper(e1, e2):
            counts["geometry.cross.calls"] += 1
            left = self._budget
            if left is not None:
                if left <= 0:
                    raise OpTimeout(f"crossing-call cap {self.cross_cap} hit")
                self._budget = left - 1
            return fn(e1, e2)

        return wrapper

    @contextmanager
    def capped(self):
        """Bound the crossing-predicate calls of the enclosed block."""
        self._budget = self.cross_cap
        try:
            yield
        finally:
            self._budget = None

    def _stream(self, fn):
        """Time each next() of a cut stream as its own span."""
        spanned_next = self._spanned("bisection.cut", next)
        counts = self.counts

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)

            def timed():
                while True:
                    try:
                        item = spanned_next(it)
                    except StopIteration:
                        return
                    counts["bisection.cuts_yielded"] += 1
                    yield item

            return timed()

        return wrapper

    def _oracle_factory(self, fn):
        counted = self._counted

        def wrapper(*args, **kwargs):
            return counted("geometry.oracle", fn(*args, **kwargs))

        return wrapper

    # -- installation -------------------------------------------------------
    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, modules, attr, make):
        original = getattr(modules[0], attr)
        wrapped = make(original)
        for mod in modules:
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"{mod.__name__}.{attr} is not the {modules[0].__name__} one")
            self._patch(mod, attr, wrapped)

    def _patch_classmethod(self, cls, attr, make):
        func = cls.__dict__[attr].__func__
        self._patch(cls, attr, classmethod(make(func)))

    @contextmanager
    def active(self):
        from hcpack import cli, cycles, errors, general, geometry, instances, oracle, structured

        p = self._patch_everywhere
        try:
            p([general], "pack_general_detailed", lambda f: self._spanned("general.pack", f))
            p([general], "march_cycle", lambda f: self._spanned("general.march", f, errors.MarchFailed))
            p([general], "join_cycles", lambda f: self._spanned("general.join", f, errors.NoJoinFound))
            p([general], "uncross", lambda f: self._counted("general.uncross", f, errors.StillCrossing))
            p([general], "bisecting_lines", self._stream)
            p([general], "ham_sandwich_cuts", self._stream)
            p([general], "separating_subset_line",
              lambda f: self._spanned("bisection.separating", f, errors.NotSeparable))
            p([geometry, general], "segments_properly_cross", self._cross)
            p([geometry, general, instances], "coordinate_oracle", self._oracle_factory)
            p([geometry, structured], "convex_oracle", self._oracle_factory)
            p([geometry, structured], "wheel_oracle", self._oracle_factory)
            p([general, structured], "is_one_plane", lambda f: self._counted("cycles.one_plane", f))
            p([cycles, general, structured], "crossing_report",
              lambda f: self._spanned("cycles.crossing_report", f))
            p([cycles, cli], "verify_packing", lambda f: self._spanned("cycles.verify", f))
            p([geometry.PointSet], "__post_init__", lambda f: self._spanned("geometry.pointset", f))
            p([instances], "generate", lambda f: self._spanned("instances.generate", f))
            p([structured], "pack_convex", lambda f: self._spanned("structured.pack", f))
            p([structured], "pack_wheel", lambda f: self._spanned("structured.pack", f))
            self._patch_classmethod(instances.InstanceFile, "load",
                                    lambda f: self._spanned("instances.load", f))
            self._patch_classmethod(instances.PackingFile, "load",
                                    lambda f: self._spanned("instances.load", f))
            p([cli], "main", lambda f: self._spanned("cli.verify", f))
            p([oracle], "enumerate_1phc",
              lambda f: self._spanned("oracle.enumerate", f, count_result="oracle.cycles_enumerated"))
            p([oracle], "max_packing_exact", lambda f: self._spanned("oracle.search", f))
            yield self
        finally:
            for owner, attr, value in reversed(self._patches):
                setattr(owner, attr, value)
            self._patches.clear()

    def end_op(self) -> None:
        """Fold the operation's spans into totals and self times."""
        spans = self._spans
        for name, start, end, parent in spans:
            if end == 0.0:  # left open by an interrupt; close at the last end seen
                end = max(s[2] for s in spans)
            dur = end - start
            self.total[name] += dur
            self.self_time[name] += dur
            if parent >= 0:
                self.self_time[spans[parent][0]] -= dur
        spans.clear()
        self._stack.clear()

    # -- results ------------------------------------------------------------
    def metrics(self, overhead_s: float) -> dict:
        """Every per-layer metric, summed over the traced operations."""
        c, t, s = self.counts, self.total, self.self_time
        joins = c["general.join.calls"]
        values = {
            "general.join_s": t["general.join"],
            "general.join_calls": joins,
            "general.join_failed": c["general.join.failed"],
            "general.join_success_ratio": (joins - c["general.join.failed"]) / joins if joins else 0.0,
            "general.uncross_calls": c["general.uncross.calls"],
            "general.uncross_failed": c["general.uncross.failed"],
            "general.pack_self_s": s["general.pack"],
            "general.march_s": t["general.march"],
            "general.march_calls": c["general.march.calls"],
            "general.march_failed": c["general.march.failed"],
            "bisection.cut_s": t["bisection.cut"] + t["bisection.separating"],
            "bisection.cuts_yielded": c["bisection.cuts_yielded"],
            "bisection.separating_calls": c["bisection.separating.calls"],
            "bisection.separating_failed": c["bisection.separating.failed"],
            "geometry.cross_calls": c["geometry.cross.calls"],
            "geometry.oracle_calls": c["geometry.oracle.calls"],
            "cycles.one_plane_calls": c["cycles.one_plane.calls"],
            "cycles.crossing_report_calls": c["cycles.crossing_report.calls"],
            "cycles.crossing_report_s": t["cycles.crossing_report"],
            "geometry.pointset_s": t["geometry.pointset"],
            "geometry.pointset_calls": c["geometry.pointset.calls"],
            "instances.generate_s": t["instances.generate"],
            "instances.generate_calls": c["instances.generate.calls"],
            "structured.pack_s": t["structured.pack"],
            "cycles.verify_s": t["cycles.verify"],
            "instances.load_s": t["instances.load"],
            "cli.verify_self_s": s["cli.verify"],
            "oracle.enumerate_s": t["oracle.enumerate"],
            "oracle.cycles_enumerated": c["oracle.cycles_enumerated"],
            "oracle.search_self_s": s["oracle.search"],
        }
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}
