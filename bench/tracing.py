"""In-memory spans around calls into the library, recorded from outside it.

A `Tracer` keeps one row per span (name, start, end, parent, operation id)
in flat arrays, so a ladder pass with a few hundred thousand calls stays a
few megabytes.  `install` wraps the named callables, patching every module
namespace of the package that holds the same object (a function imported by
name elsewhere is wrapped there too), and returns a `Patch` whose `restore`
puts the originals back.  Names missing from the library are reported as
absent instead of failing.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
import weakref
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")  # inside a span of the same name
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._active: list[int] = []
        self._op_id = -1

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.nested.append(1 if self._active[nid] else 0)
        self.end.append(0.0)
        self._active[nid] += 1
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int, nid: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._active[nid] -= 1

    @contextmanager
    def operation(self, label: str):
        """Root span of one benchmark operation; its children share its id."""
        self._op_id += 1
        nid = self.name_index(label)
        idx = self.enter(nid)
        try:
            yield
        finally:
            self.exit(idx, nid)

    def table(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds (outermost spans only)
        and self seconds (duration minus the time covered by child spans)."""
        n = len(self.start)
        if n == 0:
            return {}
        names = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outer = np.frombuffer(self.nested, dtype=np.int8) == 0
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(names[outer], minlength=k)
        incl = np.bincount(names[outer], weights=dur[outer], minlength=k)
        own = np.bincount(names, weights=self_s, minlength=k)
        return {name: {"calls": int(calls[i]), "inclusive_s": float(incl[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def write_spans(self, path: str) -> None:
        """Write every span as gzipped CSV, times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent,operation\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]},{self.op[i]}\n")


def _wrap(tracer: Tracer, name: str, fn, observe):
    nid = tracer.name_index(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(idx, nid)
        if observe is not None:
            observe(tracer, args, result)
        return result

    return wrapper


class Patch:
    def __init__(self):
        self._undo: list = []
        self.absent: list[str] = []

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _set(patch: Patch, holder, attr: str, value) -> None:
    had_own = attr in vars(holder)
    old = vars(holder).get(attr)
    setattr(holder, attr, value)
    if had_own:
        patch._undo.append(lambda: setattr(holder, attr, old))
    else:
        patch._undo.append(lambda: delattr(holder, attr))


def install(tracer: Tracer, package: str, targets) -> Patch:
    """Wrap each (span name, module, dotted attribute, observe) target.

    A method (``Class.method``) is wrapped on its class.  A module-level
    function is wrapped in every loaded module of `package` whose namespace
    holds that same function object.
    """
    patch = Patch()
    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == package or key.startswith(package + "."))]
    for name, module, dotted, observe in targets:
        mod = sys.modules.get(f"{package}.{module}")
        parts = dotted.split(".")
        holder = mod
        for part in parts[:-1]:
            holder = getattr(holder, part, None)
        original = getattr(holder, parts[-1], None) if holder is not None else None
        if original is None:
            patch.absent.append(f"{module}.{dotted}")
            continue
        wrapper = _wrap(tracer, name, original, observe)
        if len(parts) > 1:
            _set(patch, holder, parts[-1], wrapper)
            continue
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    _set(patch, m, attr, wrapper)
    return patch


def distinct_results(key: str):
    """Observer counting results not returned before (by identity), e.g.
    a cache accessor that only sometimes builds."""
    seen = weakref.WeakSet()
    kept = []  # results that take no weak reference are held strongly

    def observe(tracer, args, result):
        try:
            new = result not in seen
            if new:
                seen.add(result)
        except TypeError:
            new = not any(r is result for r in kept)
            if new:
                kept.append(result)
        if new:
            tracer.count(key)

    return observe
