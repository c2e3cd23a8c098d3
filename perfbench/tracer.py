"""Span tracer for the rbgroups package, installed from outside the package.

`Tracer.install()` replaces every public function of every rbgroups module,
and every public method of the classes those modules define, with a wrapper
that records a span: (name, start, end, parent).  Names bound elsewhere with
``from .x import y`` are patched too, so a call through an alias is traced.

The permutation kernel (`Perm.__mul__`, `Perm.inverse`) runs millions of
times per job, so it gets no span records: each call's duration is added to
the enclosing span as time spent in the `perm` layer.  Its call counts come
from `Counter`, which runs in a pass of its own so that counting never
inflates span self times.

A layer is a module; a span named ``perm.FiniteGroup.order`` belongs to the
layer ``perm``.  A span's self time is its duration minus what its child
spans and kernel calls cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "rbgroups"
MODULES = (
    "perm", "families", "gf", "rbop", "build", "classify",
    "transitive", "labels", "serialize", "cli",
)
KERNEL = (("perm", "Perm", "__mul__"), ("perm", "Perm", "inverse"))

# Work counts read from a span's arguments or result:
# span name -> (metric name, function of (args, result)).
MEASURES = {
    "classify.enumerate_rb": ("classify.enumerate_rb.operators", lambda a, r: len(r)),
    "classify.equivalence_classes": ("classify.equivalence_classes.classes", lambda a, r: len(r)),
    "perm.closure": ("perm.closure.elements", lambda a, r: len(r)),
    "rbop.verify": ("rbop.verify.pairs", lambda a, r: r.pairs),
    "transitive.verify_an_operator": (
        "transitive.verify_an_operator.pairs",
        lambda a, r: r.pairs_exhaustive + r.pairs_sampled),
    "serialize.format_operator": ("serialize.bytes", lambda a, r: len(r)),
    "serialize.format_group": ("serialize.bytes", lambda a, r: len(r)),
    "serialize.parse_operator": ("serialize.bytes", lambda a, r: _text_len(a[0])),
    "serialize.parse_group": ("serialize.bytes", lambda a, r: _text_len(a[0])),
}


def _text_len(text) -> int:
    if isinstance(text, str):
        return len(text)
    return sum(len(line) + 1 for line in text)


def _targets():
    """Yield (owner, attr, name) for every traced callable.

    `owner` is the module or class whose attribute is replaced; `name` is
    the span name.  Callables defined in another module (imported names) are
    skipped here and reached through `_patch_aliases`.
    """
    for modname in MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{modname}")
        full = mod.__name__
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != full:
                continue
            if inspect.isclass(obj):
                if issubclass(obj, BaseException):
                    continue
                for mattr, mobj in sorted(vars(obj).items()):
                    if mattr.startswith("_") or (modname, attr, mattr) in KERNEL:
                        continue
                    if isinstance(mobj, (classmethod, staticmethod)) or inspect.isfunction(mobj):
                        yield obj, mattr, f"{modname}.{attr}.{mattr}"
            elif callable(obj):
                yield mod, attr, f"{modname}.{attr}"


class _Patcher:
    """Replaces attributes and puts the originals back on `uninstall()`."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()


def _kernel_targets():
    """Yield (class, attr, counter key) for each kernel method."""
    for modname, cls, attr in KERNEL:
        owner = getattr(importlib.import_module(f"{PACKAGE}.{modname}"), cls)
        yield owner, attr, f"{modname}.{attr.strip('_')}"


class Tracer(_Patcher):
    """Records spans in memory; `summary()` reduces them to per-name and
    per-layer figures."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # span i: name id, parent index (-1 at top level), start, end,
        # and the kernel time spent directly under it
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.kernel: list[float] = []
        self.measures: dict[str, float] = defaultdict(float)
        self.kernel_top = 0.0  # kernel time outside every span
        self._stack = [-1]

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn):
        """Wrap `fn` so that every call records a span named `name`."""
        nid = self._name_id(name)
        clock, stack = time.perf_counter, self._stack
        name_of, parent, start, end, kernel = (
            self.name_of, self.parent, self.start, self.end, self.kernel)
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            kernel.append(0.0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                ret = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if measure is not None and not self._inside(parent[i], measure[0]):
                self.measures[measure[0]] += measure[1](args, ret)
            return ret

        return wrapper

    def _inside(self, i: int, metric: str) -> bool:
        """Whether span i or an ancestor already feeds `metric`, as
        parse_group does inside parse_operator: count the outermost only."""
        while i >= 0:
            m = MEASURES.get(self.names[self.name_of[i]])
            if m is not None and m[0] == metric:
                return True
            i = self.parent[i]
        return False

    def kernel_leaf(self, fn):
        """Wrap a kernel method: its time is charged to the `perm` layer and
        taken out of the enclosing span's self time, with no span record."""
        clock, stack, kernel = time.perf_counter, self._stack, self.kernel

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = clock()
            ret = fn(*args)
            dt = clock() - t0
            top = stack[-1]
            if top >= 0:
                kernel[top] += dt
            else:
                self.kernel_top += dt
            return ret

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        originals: dict[int, object] = {}
        for owner, attr, name in _targets():
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self.span(name, raw.__func__))
            else:
                new = self.span(name, raw)
                originals[id(raw)] = new
            self._set(owner, attr, new)
        for owner, attr, _ in _kernel_targets():
            self._set(owner, attr, self.kernel_leaf(vars(owner)[attr]))
        _patch_aliases(originals, self._set)

    # -- reduction ---------------------------------------------------------

    def records(self) -> list[tuple[str, int, float, float, float]]:
        """(name, parent, start, end, kernel_s) for every span."""
        return [
            (self.names[n], p, s, e, k)
            for n, p, s, e, k in zip(self.name_of, self.parent, self.start,
                                      self.end, self.kernel)
        ]

    def summary(self) -> dict:
        return summarize(self.records(), self.kernel_top, dict(self.measures))


def _patch_aliases(replacements: dict[int, object], setter) -> None:
    """Point every module-level name bound to a replaced function at its
    wrapper (``from .rbop import verify`` binds `cli.verify` separately)."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            new = replacements.get(id(obj))
            if new is not None and new is not obj:
                setter(mod, attr, new)


def self_times(records) -> list[float]:
    """Self time of each span: its duration minus the durations of its child
    spans (which, in one thread, never overlap) and the kernel time charged
    to it."""
    out = [end - start - kernel for _, _, start, end, kernel in records]
    for _, parent, start, end, _ in records:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(records, kernel_top: float = 0.0, measures: dict | None = None) -> dict:
    """Per-name calls/total/self and per-layer self time.

    A name's total time counts only its outermost spans, so recursion is not
    counted twice.  `layers[x]` is the self time of every span in module x;
    kernel time is charged to ``perm``.  Their sum equals the time covered
    by the top-level spans (plus kernel time outside every span).
    """
    selfs = self_times(records)
    names: dict[str, dict] = {}
    layers: dict[str, float] = defaultdict(float)
    for i, (name, parent, start, end, kernel) in enumerate(records):
        d = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        d["calls"] += 1
        d["self_s"] += selfs[i]
        layers[name.split(".", 1)[0]] += selfs[i]
        layers["perm"] += kernel
        p = parent
        while p >= 0 and records[p][0] != name:
            p = records[p][1]
        if p < 0:
            d["total_s"] += end - start
    layers["perm"] += kernel_top
    top = sum(end - start for _, parent, start, end, _ in records if parent < 0)
    return {
        "spans": names,
        "layers": dict(layers),
        "measures": dict(measures or {}),
        "top_s": top + kernel_top,
    }


class Counter(_Patcher):
    """Counts kernel calls (`Perm.__mul__`, `Perm.inverse`) and nothing else."""

    def __init__(self):
        super().__init__()
        self.counts: dict[str, int] = {}

    def install(self) -> None:
        for owner, attr, key in _kernel_targets():
            self.counts[key] = 0
            self._set(owner, attr, self._counting(key, vars(owner)[attr]))

    def _counting(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper
