"""Spans and call counts around unital_lab's public functions, installed from
outside the library.

``Tracer("spans")`` records one span per call of every public function and
of the public methods and properties of ``FieldCtx``, ``ProjectivePlane`` and
``UnitalModel``: name, start, end, parent span and the index of the CLI call
it belongs to.  Spans stay in memory until the run ends.  Per-element scalar
methods would dominate a span trace, so they get no span;
``Tracer("counts")`` counts their calls in a pass of its own instead.

Installing rebinds every namespace that holds a wrapped function: the
defining module, every ``unital_lab`` module that imported it by name, the
package itself, and module-level dicts such as the CLI's command table.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("fields", "plane", "unitals", "pedals", "elations", "cli")
CLASSES = {"fields": "FieldCtx", "plane": "ProjectivePlane", "unitals": "UnitalModel"}
# Called per element or per point: counted in the counts pass, never spanned.
SCALAR = {
    "fields": {
        "fq_add_raw", "fq_mul_raw",
        "qadd", "qsub", "qmul", "qneg", "qinv", "qdiv", "qpow", "is_square",
        "add", "sub", "mul", "neg", "inv", "div", "pow", "conj", "trace", "norm",
        "pack", "unpack", "im", "scalar",
    },
    "plane": {"point_id", "line_id", "normalize", "incident", "coords", "join", "meet"},
}
# Cheap accessors: neither spanned nor counted (gen_pairs is the cached dict
# behind generating_pair).  Private members and dunders, UnitalModel.__contains__
# among them, are not traced either, except PRIVATE_SPANNED.
UNTRACED = {"plane": {"incidence"}, "unitals": {"generating_pair", "gen_pairs"}}
PRIVATE_SPANNED = {"__init__", "_build_incidence"}


def _targets():
    """(layer, name, owner, original) for every traceable member.

    ``owner`` is the class for methods and properties, else None."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"unital_lab.{layer}"]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                out.append((layer, name, None, obj))
        cls_name = CLASSES.get(layer)
        if cls_name is None:
            continue
        cls = getattr(mod, cls_name)
        for name, obj in vars(cls).items():
            if (name.startswith("_") and name not in PRIVATE_SPANNED) or name in UNTRACED.get(layer, ()):
                continue
            if isinstance(obj, property) or inspect.isfunction(obj):
                out.append((layer, name, cls, obj))
    return out


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans come from one thread, so a span's children never overlap and their
    covered part is the sum of their durations."""
    child = [0.0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += ends[i] - starts[i]
    return [end - start - c for start, end, c in zip(starts, ends, child)]


class Tracer:
    """Installs wrappers of one kind ("spans" or "counts") and keeps what they record."""

    def __init__(self, mode: str, measures=None, clock=time.perf_counter):
        if mode not in ("spans", "counts"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.mode = mode
        self.clock = clock
        # name -> f(result) -> number, summed per name over the calls
        self.measures = dict(measures or {})
        self.measured: Counter = Counter()
        self.counts: Counter = Counter()
        self.call_id = 0
        self.names: list[str] = []
        self.name_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.call_ids: list[int] = []
        self.raised: list[bool] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers -------------------------------------------------------------

    def wrap(self, name: str, fn):
        """A span wrapper (spans mode) or a call counter (counts mode) for fn."""
        if self.mode == "counts":
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        nid = len(self.names)
        self.names.append(name)
        measure = self.measures.get(name)
        clock, stack = self.clock, self._stack
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, call_ids, raised = self.parents, self.call_ids, self.raised

        def spanned(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            call_ids.append(self.call_id)
            raised.append(False)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[sid] = True
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if measure is not None:
                self.measured[name] += measure(result)
            return result

        return spanned

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        spaces = [
            vars(mod)
            for key, mod in list(sys.modules.items())
            if key == "unital_lab" or key.startswith("unital_lab.")
        ]
        seen = set()
        for layer, name, owner, original in _targets():
            scalar = name in SCALAR.get(layer, ())
            if scalar != (self.mode == "counts"):
                continue
            label = f"{layer}.{name}"
            if label in seen:
                raise RuntimeError(f"two traced members named {label}")
            seen.add(label)
            if owner is not None:
                if isinstance(original, property):
                    wrapped = property(self.wrap(label, original.fget), original.fset, original.fdel, original.__doc__)
                else:
                    wrapped = self.wrap(label, original)
                self._undo.append((owner, name, original))
                setattr(owner, name, wrapped)
                continue
            wrapped = self.wrap(label, original)
            for space in spaces:
                for key, value in list(space.items()):
                    if value is original:
                        self._undo.append((space, key, original))
                        space[key] = wrapped
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for k, v in list(value.items()):
                            if v is original:
                                self._undo.append((value, k, original))
                                value[k] = wrapped

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._undo.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ----------------------------------------------------------------

    def span_rows(self):
        """(call id, span id, parent, name, start, end, self time, raised) per span."""
        selfs = self_times(self.starts, self.ends, self.parents)
        for sid, nid in enumerate(self.name_ids):
            yield (
                self.call_ids[sid], sid, self.parents[sid], self.names[nid],
                self.starts[sid], self.ends[sid], selfs[sid], self.raised[sid],
            )

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {"calls", "raised", "total_s", "self_s"} over every span."""
        out: dict[str, dict[str, float]] = {}
        for _, _, _, name, start, end, own, raised in self.span_rows():
            entry = out.setdefault(name, {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["raised"] += raised
            entry["total_s"] += end - start
            entry["self_s"] += own
        return out
