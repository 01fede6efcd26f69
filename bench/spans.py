"""Span tracer that wraps propring's public functions from outside the package.

Every wrapped call records a span (name, parent, start, end, self time) in
memory; self time is the span's duration minus the time its child spans
cover.  A call whose immediate enclosing span has the same name (recursion,
or one jsonio helper calling another) is folded into that span.

p-adic arithmetic runs millions of times per configuration, so the padic
entry points are counted rather than spanned: the outermost padic call on
the stack is timed, its duration is charged to the padic layer and removed
from the enclosing span's self time, and nested padic calls only count.
That keeps  sum(span self times) + padic time = root span duration.

`from .gf import rref` binds the function separately in each importing
module, so `install` replaces every binding of the original object in every
loaded propring module (and on the class, for methods), and each call is
counted once whichever name it went through."""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PROPRING_MODULES = (
    "propring.gf", "propring.padic", "propring.groups", "propring.algebra",
    "propring.graded", "propring.modules", "propring.jsonio", "propring.checks",
    "propring.cli",
)


def _rows_cols(a, k):
    rows = a[0]
    return len(rows) * (len(rows[0]) if len(rows) else 0)


def _madds(a, k):
    (m, kk), (_, n) = np.shape(a[0]), np.shape(a[1])
    return m * kk * n


def _batch(a, k):
    return int(np.prod(np.shape(a[1])[:-1], dtype=np.int64))


def _nnz_right(a, k):
    return int(np.count_nonzero(a[2]))


def _key_arg1(a, k):
    return tuple(int(c) for c in a[1])


def _key_args(a, k):
    return a[1:]


def _key_all(a, k):
    return a


# (module, attribute path, span name, {counter: fn(args, kwargs) -> int},
#  distinct-key fn or None, name of a counter fed by the return value)
SPAN_TARGETS = [
    ("propring.gf", "rref", "gf.rref", {"cells": _rows_cols}, None, None),
    ("propring.gf", "matmul", "gf.matmul", {"madds": _madds}, None, None),
    ("propring.groups", "GroupModel.decompose", "groups.decompose", {}, None, None),
    ("propring.groups", "GroupModel.mul", "groups.mul", {}, None, None),
    ("propring.groups", "GroupModel.right_mul_table", "groups.right_mul_table", {},
     _key_arg1, None),
    ("propring.algebra", "GroupAlgebra.mul", "algebra.mul", {"terms": _nnz_right},
     None, None),
    ("propring.algebra", "GroupAlgebra.zmul", "algebra.zmul", {}, None, None),
    ("propring.algebra", "GroupAlgebra.to_monomial", "algebra.transform",
     {"elements": _batch}, None, None),
    ("propring.algebra", "GroupAlgebra.from_monomial", "algebra.transform",
     {"elements": _batch}, None, None),
    ("propring.algebra", "GroupAlgebra.dual_to_monomial", "algebra.transform",
     {"elements": _batch}, None, None),
    ("propring.algebra", "GroupAlgebra.monomial", "algebra.monomial", {}, _key_arg1, None),
    ("propring.graded", "GradedRing.mul", "graded.mul", {}, None, None),
    ("propring.graded", "GradedRing.mult_matrix", "graded.mult_matrix", {}, _key_args,
     None),
    ("propring.graded", "IdealTables.__init__", "graded.ideal_tables", {}, None, None),
    ("propring.graded", "tau_rewrite", "graded.tau", {}, None, None),
    ("propring.modules", "module_corpus", "modules.corpus", {}, None, None),
    ("propring.modules", "weight_quotient_module", "modules.weight_quotient", {},
     _key_all, None),
    ("propring.modules", "check_multiplicative", "modules.validate", {}, None, "pairs"),
    ("propring.modules", "grade", "modules.grade", {}, None, None),
    ("propring.modules", "min_annihilator_exponent", "modules.exponent", {}, None, None),
]

# (class path, method names, counter name); all time goes to the padic layer
PADIC_TARGETS = [
    ("ZqElement", ("__mul__", "__rmul__"), "padic.zq_mul"),
    ("ZqElement", ("__add__", "__sub__", "__neg__", "__pow__"), "padic.zq_other"),
    ("ZqRing", ("inv", "teichmuller", "hensel_sqrt", "teich_coords"), "padic.zq_other"),
    ("Quaternion", ("__mul__",), "padic.quat_mul"),
    ("Quaternion", ("inv", "nrd", "conj"), "padic.quat_other"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.stack: list[list] = []  # [span index, child time, name id]
        self.counters: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self.padic_s = 0.0
        self._in_padic = False
        self._installed: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name: str) -> None:
        nid = self._id(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.self_s.append(0.0)
        self.stack.append([idx, 0.0, nid])

    def finish(self) -> None:
        t = time.perf_counter()
        idx, child, _ = self.stack.pop()
        dur = t - self.start[idx]
        self.end[idx] = t
        self.self_s[idx] = dur - child
        if self.stack:
            self.stack[-1][1] += dur

    def unwind(self, depth: int) -> None:
        """Close spans left open above depth by an exception raised from a
        signal handler, which can land inside the tracer's own bookkeeping."""
        self._in_padic = False
        while len(self.stack) > depth:
            self.finish()

    def wrap(self, fn, name: str, extra=None, key=None, ret=None):
        nid = self._id(name)
        stack, counters, keys = self.stack, self.counters, self.keys
        extra = list((extra or {}).items())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][2] == nid:
                return fn(*args, **kwargs)
            for cname, measure in extra:
                counters[f"{name}.{cname}"] += measure(args, kwargs)
            if key is not None:
                keys[name].add(key(args, kwargs))
            self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish()
            if ret is not None:
                counters[f"{name}.{ret}"] += int(out)
            return out

        return traced

    def wrap_padic(self, fn, name: str):
        counters = self.counters
        calls = f"{name}.calls"
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[calls] += 1
            if self._in_padic:
                return fn(*args, **kwargs)
            self._in_padic = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._in_padic = False
                self.padic_s += dt
                if self.stack:
                    self.stack[-1][1] += dt

        return counted

    # -- installation ----------------------------------------------------------

    def _rebind(self, orig, wrapper) -> int:
        """Replace every module-level binding of orig in loaded propring modules."""
        hits = 0
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "propring" or mname.startswith("propring.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, orig))
                    hits += 1
        return hits

    def _set_attr(self, owner, attr, wrapper) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for m in PROPRING_MODULES:
            importlib.import_module(m)
        for modname, path, name, extra, key, ret in SPAN_TARGETS:
            owner = importlib.import_module(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapper = self.wrap(orig, name, extra, key, ret)
            if cls_path:
                self._set_attr(owner, attr, wrapper)
            elif not self._rebind(orig, wrapper):
                raise RuntimeError(f"{modname}.{attr} is not bound anywhere")
        jsonio = sys.modules["propring.jsonio"]
        for attr, val in list(vars(jsonio).items()):
            if (callable(val) and not attr.startswith("_") and not isinstance(val, type)
                    and getattr(val, "__module__", None) == "propring.jsonio"):
                self._rebind(val, self.wrap(val, "jsonio"))
        pmod = sys.modules["propring.padic"]
        for cls_name, methods, name in PADIC_TARGETS:
            cls = getattr(pmod, cls_name)
            wrapped = {}
            for meth in methods:
                orig = cls.__dict__[meth]
                if orig not in wrapped:  # __rmul__ is __mul__: one wrapper
                    wrapped[orig] = self.wrap_padic(orig, name)
                self._set_attr(cls, meth, wrapped[orig])
        registry = sys.modules["propring.checks"].CHECKS
        for cname, fn in list(registry.items()):
            registry[cname] = self.wrap(fn, f"checks.{cname}")
            self._installed.append((registry, cname, fn))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._installed):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._installed.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per span name: calls, self_s, s (summed durations), the extra
        counters, distinct keys; plus the padic layer counters."""
        if self.stack:
            raise RuntimeError("spans still open")
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        k = len(self.names)
        out: dict[str, float] = {}
        calls = np.bincount(names, minlength=k)
        selfs = np.bincount(names, weights=np.frombuffer(self.self_s), minlength=k)
        totals = np.bincount(names, weights=dur, minlength=k)
        for i, n in enumerate(self.names):
            out[f"{n}.calls"] = int(calls[i])
            out[f"{n}.self_s"] = float(selfs[i])
            out[f"{n}.s"] = float(totals[i])
        for n, v in self.counters.items():
            out[n] = int(v)
        for n, s in self.keys.items():
            out[f"{n}.distinct"] = len(s)
        out["padic.self_s"] = self.padic_s
        out["trace.spans"] = int(len(names))
        return out

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=object).astype(str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            self_s=np.frombuffer(self.self_s),
        )
