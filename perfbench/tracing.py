"""In-memory span recorder that wraps a program's public functions from outside.

A span records its name, start, end, parent span and outcome.  Spans live
in flat arrays while the run is in progress and are only aggregated or
written out once it ends.  Wrappers call the original function with the
same arguments and return its result unchanged: they draw no random
numbers and do not reorder calls, so a traced run produces the same
outputs as an untraced one.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

OK, RAISED, FALSE = 0, 1, 2


@dataclass
class Aggregate:
    """Totals over every span that matched one query."""

    calls: int = 0
    total: float = 0.0  # seconds, inclusive of child spans
    self_total: float = 0.0  # seconds, child spans subtracted
    units: int = 0  # sum of the units callback over calls
    raised: int = 0
    false: int = 0  # calls that returned exactly False

    def mean(self) -> float:
        return self.total / self.calls if self.calls else 0.0

    def self_mean(self) -> float:
        return self.self_total / self.calls if self.calls else 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.status = array("b")
        self.units = array("q")
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.status.append(OK)
        self.units.append(0)
        self._stack.append(i)
        self.start.append(self._clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self._clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, fn, name: str, units=None):
        """A function that records a span around each call of fn."""
        nid = self._name_id(name)
        clock, stack = self._clock, self._stack
        names, parents, starts, ends, status, unit_arr = (
            self.name, self.parent, self.start, self.end, self.status, self.units)

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            status.append(OK)
            unit_arr.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                stack.pop()
                status[i] = RAISED
                raise
            ends[i] = clock()
            stack.pop()
            if result is False:
                status[i] = FALSE
            if units is not None:
                unit_arr[i] = units(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing wrappers -------------------------------------------------

    def install(self, package: str, module: str, attr: str, units=None) -> bool:
        """Wrap ``module.attr`` of a package, recording spans named ``module.attr``.

        ``attr`` is a function name or ``Class.method``.  A method is wrapped
        on its class; a function is wrapped in every loaded module of the
        package that binds the same object under that name, so callers that
        imported it see the wrapper too.  A name the program no longer has
        is recorded in ``missing`` and False is returned.
        """
        name = f"{module}.{attr}"
        try:
            mod = importlib.import_module(f"{package}.{module}")
        except ImportError:
            self.missing.append(name)
            return False
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            original = owner.__dict__.get(method) if isinstance(owner, type) else None
            if not callable(original):
                self.missing.append(name)
                return False
            self._patch(owner, method, original, self.wrap(original, name, units))
            return True
        original = getattr(mod, attr, None)
        if not callable(original):
            self.missing.append(name)
            return False
        traced = self.wrap(original, name, units)
        for mod_name, other in list(sys.modules.items()):
            if (mod_name == package or mod_name.startswith(package + ".")) and getattr(other, attr, None) is original:
                self._patch(other, attr, original, traced)
        return True

    def _patch(self, owner, attr: str, original, traced) -> None:
        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reading the spans back ------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.start))]

    def roots(self) -> list[int]:
        """Index of the outermost enclosing span of every span."""
        root = list(range(len(self.start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                root[i] = root[p]  # a parent is always recorded before its child
        return root

    def aggregate(self) -> dict[tuple[str, str, str], Aggregate]:
        """Totals keyed by (root span name, parent span name, span name)."""
        self_t = self.self_times()
        root = self.roots()
        names, parent, name_of = self.name, self.parent, self.names
        out: dict[tuple[str, str, str], Aggregate] = {}
        for i in range(len(self.start)):
            p = parent[i]
            key = (name_of[names[root[i]]], name_of[names[p]] if p >= 0 else "", name_of[names[i]])
            agg = out.get(key)
            if agg is None:
                agg = out[key] = Aggregate()
            agg.calls += 1
            agg.total += self.end[i] - self.start[i]
            agg.self_total += self_t[i]
            agg.units += self.units[i]
            if self.status[i] == RAISED:
                agg.raised += 1
            elif self.status[i] == FALSE:
                agg.false += 1
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                p = self.parent[i]
                fh.write(json.dumps({
                    "id": i,
                    "name": self.names[self.name[i]],
                    "parent": p if p >= 0 else None,
                    "start": self.start[i],
                    "end": self.end[i],
                    "status": ("ok", "raised", "false")[self.status[i]],
                }) + "\n")


def select(aggs: dict[tuple[str, str, str], Aggregate], name: str, *, root: str | None = None,
           parent: str | None = None) -> Aggregate:
    """Sum of the aggregates of one span name, optionally by root or parent span."""
    out = Aggregate()
    for (r, p, n), agg in aggs.items():
        if n != name or (root is not None and r != root) or (parent is not None and p != parent):
            continue
        out.calls += agg.calls
        out.total += agg.total
        out.self_total += agg.self_total
        out.units += agg.units
        out.raised += agg.raised
        out.false += agg.false
    return out
