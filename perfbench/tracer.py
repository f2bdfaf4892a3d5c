"""In-memory span tracer that wraps a package's functions from the outside.

Calls at a layer boundary become spans (name, layer, start, end, parent span,
root, replication id).  Per-step calls are aggregated per (root, parent span,
name) into a count, a total and a self time, so the tracer's own cost stays a
few tenths of a microsecond per call.  A span's self time is its duration
minus the time of the wrapped calls made inside it.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[dict] = []
        self.aggregates: dict[tuple, list] = {}   # key -> [layer, count, total, self]
        self.missing: list[str] = []
        self._stack: list[list[float]] = [[0.0]]  # child time of each open call
        self._span = None                          # innermost open span id
        self._root = None
        self._rid = None
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name: str, layer: str, rid_arg: int | None = None):
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent, prev_rid = tracer._span, tracer._rid
            if rid_arg is not None and len(args) > rid_arg:
                tracer._rid = args[rid_arg]
            frame = [0.0]
            stack.append(frame)
            tracer._span = sid
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stack[-1][0] += t1 - t0
                tracer._span = parent
                tracer.spans.append({
                    "id": sid, "name": name, "layer": layer, "parent": parent,
                    "root": tracer._root, "rid": tracer._rid,
                    "start": t0 - tracer.origin, "end": t1 - tracer.origin,
                    "self": (t1 - t0) - frame[0]})
                tracer._rid = prev_rid

        return wrapper

    def _count_wrapper(self, fn, name: str, layer: str):
        tracer = self
        stack = self._stack
        aggregates = self.aggregates

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                stack[-1][0] += d
                key = (tracer._root, tracer._span, name)
                rec = aggregates.get(key)
                if rec is None:
                    rec = aggregates[key] = [layer, 0, 0.0, 0.0]
                rec[1] += 1
                rec[2] += d
                rec[3] += d - frame[0]

        return wrapper

    # -- installation -----------------------------------------------------

    def wrap(self, package: str, module: str, qualname: str, layer: str,
             per_step: bool, rid_arg: int | None = None) -> None:
        """Wrap ``package.module.qualname``; a function is replaced wherever
        the package's modules bind it, a method on its class."""
        mod = sys.modules.get(f"{package}.{module}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = None if owner is None else (
            owner.__dict__.get(attr) if owner_name else getattr(owner, attr, None))
        if fn is None or not callable(fn):
            self.missing.append(f"{module}.{qualname}")
            return
        wrapped = self._count_wrapper(fn, qualname, layer) if per_step \
            else self._span_wrapper(fn, qualname, layer, rid_arg)
        targets = [owner] if owner_name else [
            m for n, m in list(sys.modules.items())
            if (n == package or n.startswith(package + ".")) and getattr(m, attr, None) is fn]
        for target in targets:
            self._patches.append((target, attr, fn))
            setattr(target, attr, wrapped)

    def restore(self) -> None:
        for target, attr, fn in reversed(self._patches):
            setattr(target, attr, fn)
        self._patches.clear()

    def root(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as the root span ``name``; returns (result, span)."""
        prev_root = self._root
        self._root = name
        try:
            result = self._span_wrapper(fn, name, "root")(*args, **kwargs)
        finally:
            self._root = prev_root
        span = next(s for s in reversed(self.spans) if s["name"] == name and s["parent"] is None)
        return result, span

    # -- summaries --------------------------------------------------------

    def summary(self, root: str) -> dict:
        """Per-name totals and per-layer self times under one root."""
        funcs: dict[str, dict] = {}
        layers: dict[str, float] = {}
        duration = 0.0

        def add(name, layer, count, total, self_time):
            f = funcs.setdefault(name, {"layer": layer, "count": 0, "total": 0.0,
                                        "self": 0.0, "durations": []})
            f["count"] += count
            f["total"] += total
            f["self"] += self_time
            layers[layer] = layers.get(layer, 0.0) + self_time
            return f

        for s in self.spans:
            if s["root"] != root:
                continue
            if s["parent"] is None:
                duration = s["end"] - s["start"]
                layers["root"] = layers.get("root", 0.0) + s["self"]
                continue
            add(s["name"], s["layer"], 1, s["end"] - s["start"], s["self"])["durations"].append(
                s["end"] - s["start"])
        for (r, _, name), (layer, count, total, self_time) in self.aggregates.items():
            if r == root:
                add(name, layer, count, total, self_time)
        return {"duration": duration, "funcs": funcs, "layer_self": layers}

    def write(self, path, **meta) -> None:
        """Write every span and aggregate as one JSON document."""
        doc = dict(meta, clock="perf_counter seconds since tracer start",
                   missing=self.missing, spans=self.spans,
                   aggregates=[{"root": r, "parent": p, "name": n, "layer": rec[0],
                                "count": rec[1], "total": rec[2], "self": rec[3]}
                               for (r, p, n), rec in self.aggregates.items()])
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
