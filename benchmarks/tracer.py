"""Span tracing of the ``hnd`` layers from outside the package.

``Tracer.install()`` replaces every public function of every ``hnd``
module, every re-import of such a function into another module's
namespace (including the package namespace), and the public methods,
classmethods and validating constructors of the classes each module
defines, with a wrapper that records one span per call:
``(name, start_ns, end_ns, parent)``. ``Tracer.remove()`` puts the
originals back. Nothing inside ``src/hnd`` is edited, so the traced
program is the program users run.

Spans live in Python lists until ``spans()`` turns them into arrays;
``summarize()`` derives calls, self time (duration minus what the direct
children cover) and the counts the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass, is_dataclass

import numpy as np

MODULES = (
    "cli", "diagnostics", "hypergraph", "model", "modulation", "operators",
    "rng", "solvers", "synth", "train",
)

# Operator applies whose work is N pairs times the signal's column count.
APPLY_METHODS = ("grad_scaled", "grad_scaled_t", "quad_apply")

# Short metric names for spans whose qualified name is long or
# describes the mechanism rather than the layer's job.
ALIASES = {
    "operators.HypergraphOperators.__init__": "operators.build",
    "operators.HypergraphOperators.grad_scaled": "operators.grad_scaled",
    "operators.HypergraphOperators.grad_scaled_t": "operators.grad_scaled_t",
    "operators.HypergraphOperators.quad_apply": "operators.quad_apply",
    "modulation.normalize_modulation": "modulation.softmax",
    "cli.main": "cli",
}


def _columns(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[1]) if len(shape) == 2 else 1


class Tracer:
    """Wraps the ``hnd`` callables and records spans while installed."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._name_ids: dict[str, int] = {}
        self.names: list[str] = []
        # the wrappers hold these lists, so they are emptied, never replaced
        self._name: list[int] = []
        self._start: list[int] = []
        self._end: list[int] = []
        self._parent: list[int] = []
        self._work: list[int] = []
        self._stack: list[int] = [-1]

    # ---- recording ----

    def clear(self) -> None:
        """Drop recorded spans; the wrappers stay installed."""
        for lst in (self._name, self._start, self._end, self._parent, self._work):
            lst.clear()
        del self._stack[1:]

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str, pair_work: bool = False):
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        names, starts, ends = self._name, self._start, self._end
        parents, works, stack = self._parent, self._work, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            # args[0] is the HypergraphOperators instance, args[-1] the signal
            works.append(args[0].N * _columns(args[-1]) if pair_work else 0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # ---- installation ----

    def install(self) -> None:
        """Patch every public ``hnd`` callable; idempotent per instance."""
        if self._patches:
            return
        modules = {m: importlib.import_module(f"hnd.{m}") for m in MODULES}
        package = importlib.import_module("hnd")
        wrappers: dict[int, object] = {}

        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)

        # swap the module-level binding of each function, and every
        # re-import of it into another namespace
        for ns in (package, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(ns, attr, wrapper)

    def _wrap_class(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            constructor = attr == "__post_init__" or (attr == "__init__" and not is_dataclass(cls))
            if attr.startswith("_") and not constructor:
                continue
            name = f"{short}.{cls.__qualname__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(self._wrap(obj.__func__, name)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(obj, name, pair_work=attr in APPLY_METHODS))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        """Restore every original binding."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # ---- results ----

    def spans(self) -> "Spans":
        return Spans(
            names=list(self.names),
            name=np.asarray(self._name, dtype=np.int64),
            start=np.asarray(self._start, dtype=np.int64),
            end=np.asarray(self._end, dtype=np.int64),
            parent=np.asarray(self._parent, dtype=np.int64),
            work=np.asarray(self._work, dtype=np.int64),
        )


@dataclass
class Spans:
    """Recorded spans of one traced call, in entry order.

    A parent always precedes its children, so one forward pass over the
    arrays resolves ancestry.
    """

    names: list
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    work: np.ndarray

    def duration_ns(self) -> np.ndarray:
        return self.end - self.start

    def self_ns(self) -> np.ndarray:
        dur = self.duration_ns()
        covered = np.zeros_like(dur)
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], dur[has_parent])
        return dur - covered

    def ids(self, *qualified: str) -> list[int]:
        return [self.names.index(q) for q in qualified if q in self.names]

    def inside(self, *qualified: str) -> np.ndarray:
        """Mask of spans that have an ancestor with one of the given names."""
        targets = set(self.ids(*qualified))
        mask = np.zeros(self.name.size, dtype=bool)
        name = self.name.tolist()
        parent = self.parent.tolist()
        for i, p in enumerate(parent):
            if p >= 0 and (mask[p] or name[p] in targets):
                mask[i] = True
        return mask

    def count(self, qualified: str, mask=None) -> int:
        ids = self.ids(qualified)
        if not ids:
            return 0
        hit = self.name == ids[0]
        if mask is not None:
            hit &= mask
        return int(hit.sum())

    def to_json(self) -> str:
        return json.dumps({
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "pair_columns"],
            "spans": np.stack([self.name, self.start, self.end, self.parent, self.work],
                              axis=1).tolist(),
        })


def summarize(spans: Spans) -> dict:
    """Per-layer figures of one traced call.

    Keys are ``<layer>.<function>.calls`` and ``.self_s`` for every
    recorded span name (aliased per ``ALIASES``), plus:

    * ``solvers.implicit.quad_applies``: quad_apply calls inside
      implicit-Euler step spans;
    * ``solvers.implicit.fp_iters``: modulation evaluations (per-node
      softmax calls) inside implicit-Euler step spans, minus the one
      each step makes at its starting state;
    * ``diagnostics.power_iters``: quad_apply calls inside
      spectral-radius spans;
    * ``operators.ns_per_pair_col``: time of the outermost operator
      applies (G, G^T, G^T A G) over the pair-columns they processed.
    """
    out: dict = {}
    self_ns = spans.self_ns()
    for nid, qualified in enumerate(spans.names):
        key = ALIASES.get(qualified, qualified)
        hit = spans.name == nid
        out[f"{key}.calls"] = int(hit.sum())
        out[f"{key}.self_s"] = float(self_ns[hit].sum()) * 1e-9

    quad = "operators.HypergraphOperators.quad_apply"
    implicit = spans.inside("solvers.step_implicit_euler")
    out["solvers.implicit.quad_applies"] = spans.count(quad, implicit)
    out["solvers.implicit.fp_iters"] = (
        spans.count("modulation.normalize_modulation", implicit)
        - spans.count("solvers.step_implicit_euler")
    )
    out["diagnostics.power_iters"] = spans.count(quad, spans.inside("diagnostics.spectral_radius"))

    apply_ids = spans.ids(*(f"operators.HypergraphOperators.{m}" for m in APPLY_METHODS))
    is_apply = np.isin(spans.name, apply_ids)
    outermost = is_apply & ~spans.inside(*(spans.names[i] for i in apply_ids))
    pair_cols = int(spans.work[outermost].sum())
    out["operators.ns_per_pair_col"] = (
        float(spans.duration_ns()[outermost].sum()) / pair_cols if pair_cols else 0.0
    )
    return out
