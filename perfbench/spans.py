"""In-memory span recording around boolekit's public functions, and self-time analysis.

The recorder wraps functions from outside the package: it replaces every
reference it can find (module attributes, module-level dicts such as the
CLI's handler table, and listed methods) with a wrapper that records one
span per call, and puts the originals back on ``restore``.  Spans stay in
memory as parallel integer arrays until ``write`` dumps them once, after the
traced call has returned.

Self time is a span's duration minus the part of it covered by its child
spans.  Calls are synchronous and single-threaded, so children never
overlap; the analysis still merges child intervals, so it stays right for
any well-formed tree.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from fractions import Fraction
from types import ModuleType

FRACTION_NEW = "rational_core.fraction_new.calls"

# Methods are not module attributes; the ones worth a span are named here.
TRACED_METHODS = (("boolekit.vandermonde", "ExactMatrix", "with_column"),)

# Counters read off return values: span name -> (counter, amount for one result).
RESULT_COUNTERS = {
    f"boole_identity.{sweep}": ("boole_identity.cases", lambda report: report.total)
    for sweep in ("verify_generalized_boole", "verify_stirling", "verify_cramer")
}


class SpanRecorder:
    """Spans of one traced workload repetition, all sharing ``run_id``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, object, object]] = []
        self._fraction_calls = [0]

    def wrap(self, name: str, fn):
        """A wrapper around fn that records one span named ``name`` per call.

        Span ids are assigned at entry, so they follow start order and a
        parent's id is always smaller than its children's.  A call that
        raises still closes its span and counts ``<name>.raised.<Type>``;
        a call named in RESULT_COUNTERS adds to its counter.
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter_ns
        tally = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(span_id)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if tally is not None:
                    counter, amount = tally
                    counters[counter] = counters.get(counter, 0) + amount(result)
                return result
            except BaseException as exc:
                key = f"{name}.raised.{type(exc).__name__}"
                counters[key] = counters.get(key, 0) + 1
                raise
            finally:
                ends[span_id] = clock()
                stack.pop()

        return traced

    def patch(self, modules: list[ModuleType]) -> None:
        """Wrap every public function defined in ``modules``, wherever they refer to it.

        A function is named ``<module>.<function>`` after the last component
        of its defining module.  The same wrapper replaces the function in
        every module namespace and module-level dict, so a call through a
        re-export (``boolekit.boole_identity.solve_exact``) or a handler table
        is recorded exactly like a direct one.
        """
        defining = {module.__name__ for module in modules}
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ in defining
                    and id(value) not in wrappers
                ):
                    wrappers[id(value)] = self.wrap(_span_name(value), value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._replace(module, attr, value, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._replace(value, key, item, wrappers[id(item)])
        by_name = {module.__name__: module for module in modules}
        for module_name, class_name, method in TRACED_METHODS:
            owner = getattr(by_name[module_name], class_name)
            original = owner.__dict__[method]
            name = f"{module_name.rsplit('.', 1)[-1]}.{method}"
            self._replace(owner, method, original, self.wrap(name, original))
        self._count_fraction_new()

    def _count_fraction_new(self) -> None:
        original = Fraction.__dict__["__new__"]
        new = original.__func__
        calls = self._fraction_calls

        def counting_new(cls, *args, **kwargs):
            calls[0] += 1
            return new(cls, *args, **kwargs)

        self._replace(Fraction, "__new__", original, staticmethod(counting_new))

    def _replace(self, owner, key, original, replacement) -> None:
        if isinstance(owner, dict):
            owner[key] = replacement
        else:
            setattr(owner, key, replacement)
        self._undo.append((owner, key, original))

    def restore(self) -> None:
        """Put every patched reference back, newest first."""
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self.counters[FRACTION_NEW] = self._fraction_calls[0]

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "names": self.names,
            "counters": self.counters,
            "spans": {
                "name": self.name.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
                "parent": self.parent.tolist(),
            },
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, separators=(",", ":"))


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def self_times_ns(starts, ends, parents) -> list[int]:
    """Per span: its duration minus the union of its children's intervals, clipped to it."""
    children: dict[int, list[int]] = {}
    for span_id, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(span_id)
    result = [end - start for start, end in zip(starts, ends)]
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        covered = 0
        cursor = lo
        for kid in sorted(kids, key=lambda k: starts[k]):
            begin = max(starts[kid], cursor)
            finish = min(ends[kid], hi)
            if finish > begin:
                covered += finish - begin
                cursor = finish
        result[parent] -= covered
    return result


def summarize(trace: dict) -> dict:
    """Calls and self time per span name, and the number of spans.

    ``trace`` is the shape ``SpanRecorder.to_dict`` produces.
    """
    spans = trace["spans"]
    names = trace["names"]
    starts, ends, parents = spans["start_ns"], spans["end_ns"], spans["parent"]
    selfs = self_times_ns(starts, ends, parents)
    per_name = {name: {"calls": 0, "self_ns": 0} for name in names}
    for span_id, name_id in enumerate(spans["name"]):
        entry = per_name[names[name_id]]
        entry["calls"] += 1
        entry["self_ns"] += selfs[span_id]
    return {"per_name": per_name, "spans": len(starts)}
