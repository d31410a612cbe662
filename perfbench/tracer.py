"""A span recorder that wraps library functions from outside.

The library imports names with ``from .x import y``, so one function can
be bound under several module namespaces (and inside module-level tables
such as ``checks.SUITES``).  ``Tracer`` replaces every binding of each
target function, found by identity, with a wrapper that records a span,
and puts every original back on exit.  Spans stay in flat arrays until the
run ends; self time is a span's duration minus the time its direct
children cover.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from dataclasses import dataclass, field

import numpy as np


@dataclass
class SpanTable:
    """Finished spans as parallel arrays, with per-name aggregates."""

    names: list  # name id -> span name
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray  # index of the enclosing span, -1 at the root
    request: np.ndarray
    self_s: np.ndarray = field(init=False)

    def __post_init__(self):
        dur = self.end - self.start
        child = np.zeros(len(dur))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], dur[has_parent])
        self.self_s = dur - child

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def ids(self, names) -> list:
        return [i for i, n in enumerate(self.names) if n in names]

    def mask(self, names) -> np.ndarray:
        return np.isin(self.name, self.ids(names))

    def calls(self, names) -> int:
        return int(np.count_nonzero(self.mask(names)))

    def self_time(self, names) -> float:
        return float(self.self_s[self.mask(names)].sum())

    def inclusive_time(self, names) -> float:
        return float(self.duration[self.mask(names)].sum())

    def in_requests(self, request_ids) -> np.ndarray:
        return np.isin(self.request, sorted(request_ids))

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=self.name,
            start=self.start,
            end=self.end,
            parent=self.parent,
            request=self.request,
        )


class Tracer:
    """Context manager: wrap targets on entry, restore them on exit.

    ``targets`` maps a span name to the function object to wrap;
    ``hooks`` maps a span name to ``hook(args, kwargs, result)``, called
    inside the span after the function returns, for counters.
    ``patches`` are further ``(owner, attr, new)`` replacements without a
    span, such as counters, undone on exit like the wrappers.
    """

    def __init__(self, modules, targets: dict, hooks: dict | None = None, patches=()):
        self.modules = list(modules)
        self.targets = targets
        self.hooks = hooks or {}
        self.patches = list(patches)
        self.request = 0
        self._names = list(targets)
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._req = array("i")
        self._stack = [-1]
        self._undo = []

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, name_id: int, fn, hook):
        names, starts, ends = self._name, self._start, self._end
        parents, reqs, stack = self._parent, self._req, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            reqs.append(self.request)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for name_id, (name, fn) in enumerate(self.targets.items()):
            if inspect.isgeneratorfunction(fn):
                raise ValueError(f"{name}: a generator function cannot be timed by a wrapper")
            wrappers[id(fn)] = self._wrapper(name_id, fn, self.hooks.get(name))
        try:
            for mod in self.modules:
                self._patch_namespace(mod, wrappers)
            for owner, attr, new in self.patches:
                self._set(owner, attr, new, vars(owner)[attr])
        except BaseException:
            self.restore()
            raise
        return self

    def _patch_namespace(self, mod, wrappers: dict) -> None:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:  # targets stay alive, so ids are unique
                self._set(mod, attr, wrappers[id(value)], value)
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for cattr, cval in list(vars(value).items()):
                    if id(cval) in wrappers:
                        self._set(value, cattr, wrappers[id(cval)], cval)
            elif isinstance(value, (list, tuple)) and attr.isupper():
                swapped = _swap_table(value, wrappers)
                if swapped is not None:
                    self._set(mod, attr, swapped, value)

    def _set(self, owner, attr, new, old) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ------------------------------------------------------------

    def table(self) -> SpanTable:
        if len(self._stack) != 1:
            raise RuntimeError("spans are still open")
        # views over the recording buffers, which stop growing here
        return SpanTable(
            list(self._names),
            np.frombuffer(self._name, dtype=np.int32),
            np.frombuffer(self._start, dtype=np.float64),
            np.frombuffer(self._end, dtype=np.float64),
            np.frombuffer(self._parent, dtype=np.int32),
            np.frombuffer(self._req, dtype=np.int32),
        )


def _swap_table(value, wrappers: dict):
    """A copy of a list/tuple (of tuples) with wrapped functions swapped in."""
    changed = False

    def swap(item):
        nonlocal changed
        if isinstance(item, tuple):
            return tuple(swap(x) for x in item)
        if id(item) in wrappers:
            changed = True
            return wrappers[id(item)]
        return item

    out = [swap(x) for x in value]
    if not changed:
        return None
    return out if isinstance(value, list) else tuple(out)


def package_modules(package: str) -> list:
    """The package and its loaded submodules, in a stable order."""
    return [sys.modules[n] for n in sorted(sys.modules) if n == package or n.startswith(package + ".")]
