"""Tracing of bykovlab from outside the package.

`Tracer.install()` rebinds the public functions of the package's layers to
wrappers.  A function is rebound in its home module and in every bykovlab
module that imported the same object; a method is rebound on its class.
`Tracer.uninstall()` restores every original binding.

Span wrappers record (name, start, end, parent) in flat arrays kept in
memory.  The innermost hot functions (TrigPoly, CircleMapFamily,
CriticalSet.distance) get count-only wrappers, so the tracing overhead stays
small.  Self time is a span's duration minus the part of it covered by its
child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, function, span name); spans nest through these calls
SPANS = (
    ("cli", "main", "cli"),
    ("config", "load_config", "config.load_config"),
    ("svgplot", "regime_map_svg", "svgplot.regime_map_svg"),
    ("model", "return_map", "model.return_map"),
    ("model", "jac_return", "model.jac_return"),
    ("model", "det_jac_return", "model.det_jac_return"),
    ("orbits", "iterate", "orbits.iterate"),
    ("orbits", "lyapunov", "orbits.lyapunov"),
    ("orbits", "rotation_set_2d", "orbits.rotation_set_2d"),
    ("orbits", "classify_cell", "orbits.classify_cell"),
    ("orbits", "scan", "orbits.scan"),
    ("circlemap", "critical_points", "circlemap.critical_points"),
    ("circlemap", "misiurewicz_check", "circlemap.misiurewicz_check"),
    ("circlemap", "singular_limit_convergence",
     "circlemap.singular_limit_convergence"),
    ("circlemap", "monotonicity_partition", "circlemap.monotonicity_partition"),
    ("audit", "audit_H1", "audit.H1"),
    ("audit", "audit_H2_H3", "audit.H2H3"),
    ("audit", "audit_H4", "audit.H4"),
    ("audit", "audit_H5_proxy", "audit.H5"),
    ("audit", "audit_H6", "audit.H6"),
    ("audit", "audit_H7", "audit.H7"),
)

# (module, class, method, counter prefix, index of the points argument or None)
COUNTED = (
    ("model", "TrigPoly", "__call__", "model.trigpoly", 1),
    ("model", "TrigPoly", "d1", "model.trigpoly", 1),
    ("model", "TrigPoly", "d2", "model.trigpoly", 1),
    ("circlemap", "CircleMapFamily", "lift", "circlemap.family", 2),
    ("circlemap", "CircleMapFamily", "val", "circlemap.family", 2),
    ("circlemap", "CircleMapFamily", "deriv", "circlemap.family", 1),
    ("circlemap", "CircleMapFamily", "deriv2", "circlemap.family", 1),
    ("circlemap", "CriticalSet", "distance", "circlemap.distance", None),
)


def _on_result(counts: Counter, name: str, result) -> None:
    """Counters read from a traced function's return value."""
    if name == "orbits.lyapunov":
        counts["orbits.lyapunov.inconclusive"] += bool(result.inconclusive)
    elif name == "orbits.classify_cell":
        counts["orbits.classify_cell.useful"] += result.label != "Escaped"
    elif name == "circlemap.misiurewicz_check":
        counts["circlemap.misiurewicz_check.passed"] += bool(result.passed)


def bykovlab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "bykovlab" or name.startswith("bykovlab."))
            and m is not None]


def self_times(start, end, parent) -> np.ndarray:
    """Per-span duration minus the union of its children's intervals.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result never double-counts covered time.
    """
    n = len(start)
    children: dict[int, list[int]] = {}
    for i in range(n):
        if parent[i] >= 0:
            children.setdefault(parent[i], []).append(i)
    out = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered, reach = 0.0, lo_p
        for i in sorted(kids, key=lambda k: start[k]):
            lo, hi = max(start[i], reach), min(end[i], hi_p)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out[p] -= covered
    return out


class Tracer:
    """Spans and counters of one process, kept across install()/uninstall()."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.cells: dict[str, list[int]] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_of:
            self.name_of[name] = len(self.names)
            self.names.append(name)
        return self.name_of[name]

    def span(self, name: str, fn):
        nid = self._name_id(name)
        clock, stack, counts = time.perf_counter, self.stack, self.counts
        span_name, parent, start, end = (self.span_name, self.parent,
                                         self.start, self.end)
        escape_error = None
        if name == "model.return_map":
            escape_error = sys.modules["bykovlab.model"].EscapeError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if escape_error is not None and isinstance(exc, escape_error):
                    counts["model.escapes"] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            _on_result(counts, name, result)
            return result
        return wrapper

    def counter(self, prefix: str, fn, points_arg: int | None):
        # a [calls, points] cell per prefix: cheaper than a Counter update
        cell = self.cells.setdefault(prefix, [0, 0])
        if points_arg is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                x = args[points_arg]
                cell[0] += 1
                cell[1] += 1 if type(x) is float else getattr(x, "size", 1)
                return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {m.__name__: m for m in bykovlab_modules()}
        try:
            for mod_name, fn_name, span_name in SPANS:
                original = getattr(mods["bykovlab." + mod_name], fn_name)
                wrapper = self.span(span_name, original)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, wrapper)
            for mod_name, cls_name, meth, prefix, points_arg in COUNTED:
                cls = getattr(mods["bykovlab." + mod_name], cls_name)
                self._rebind(cls, meth, self.counter(prefix, cls.__dict__[meth],
                                                     points_arg))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def _all_counts(self) -> Counter:
        counts = Counter(self.counts)
        for prefix, (calls, points) in self.cells.items():
            counts[prefix + ".calls"] = calls
            counts[prefix + ".points"] = points
        return counts

    def mark(self) -> tuple[int, Counter]:
        return len(self.start), self._all_counts()

    def summary(self, since: tuple[int, Counter]) -> dict:
        """Per-layer metrics of the spans and counts recorded after `since`."""
        lo, counts_before = since
        names = [self.names[k] for k in self.span_name[lo:]]
        parents = [p - lo if p >= lo else -1 for p in self.parent[lo:]]
        start, end = self.start[lo:], self.end[lo:]
        selfs = self_times(start, end, parents)
        counts = self._all_counts()
        counts.subtract(counts_before)

        calls, self_s, total_s, steps = Counter(), Counter(), Counter(), Counter()
        for i, name in enumerate(names):
            calls[name] += 1
            self_s[name] += float(selfs[i])
            total_s[name] += end[i] - start[i]
            if name == "model.return_map" and parents[i] >= 0:
                steps[names[parents[i]]] += 1

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m = {}
        for layer in ("model.return_map", "model.jac_return"):
            m[layer + ".calls"] = calls[layer]
            m[layer + ".self_s"] = self_s[layer]
        m["model.det_jac_return.calls"] = calls["model.det_jac_return"]
        m["model.escapes"] = counts["model.escapes"]
        m["model.trigpoly.calls"] = counts["model.trigpoly.calls"]
        m["model.trigpoly.points"] = counts["model.trigpoly.points"]
        for layer in ("orbits.iterate", "orbits.lyapunov"):
            m[layer + ".calls"] = calls[layer]
            m[layer + ".self_s"] = self_s[layer]
            m[layer + ".steps"] = steps[layer]
        m["orbits.lyapunov.inconclusive"] = counts["orbits.lyapunov.inconclusive"]
        for layer in ("orbits.rotation_set_2d", "orbits.classify_cell"):
            m[layer + ".calls"] = calls[layer]
            m[layer + ".self_s"] = self_s[layer]
        m["orbits.useful_ratio"] = ratio(counts["orbits.classify_cell.useful"],
                                         calls["orbits.classify_cell"])
        m["orbits.scan.total_s"] = total_s["orbits.scan"]
        for layer in ("circlemap.critical_points",
                      "circlemap.misiurewicz_check"):
            m[layer + ".calls"] = calls[layer]
            m[layer + ".self_s"] = self_s[layer]
        m["circlemap.misiurewicz_check.pass_ratio"] = ratio(
            counts["circlemap.misiurewicz_check.passed"],
            calls["circlemap.misiurewicz_check"])
        m["circlemap.singular_limit_convergence.self_s"] = \
            self_s["circlemap.singular_limit_convergence"]
        m["circlemap.monotonicity_partition.calls"] = \
            calls["circlemap.monotonicity_partition"]
        m["circlemap.family.calls"] = counts["circlemap.family.calls"]
        m["circlemap.family.points"] = counts["circlemap.family.points"]
        m["circlemap.distance.calls"] = counts["circlemap.distance.calls"]
        for h in ("H1", "H2H3", "H4", "H5", "H6", "H7"):
            m[f"audit.{h}.total_s"] = total_s["audit." + h]
        m["config.load_config.total_s"] = total_s["config.load_config"]
        m["svgplot.regime_map_svg.total_s"] = total_s["svgplot.regime_map_svg"]
        m["cli.self_s"] = self_s["cli"]
        return m

    def save(self, path: str) -> None:
        """Write every recorded span (name, start, end, parent) to an .npz file."""
        np.savez_compressed(path, names=np.array(self.names),
                            span_name=np.frombuffer(self.span_name, np.int32),
                            parent=np.frombuffer(self.parent, np.int32),
                            start=np.frombuffer(self.start, np.float64),
                            end=np.frombuffer(self.end, np.float64))
