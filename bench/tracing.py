"""Spans around calls into the library's layers, installed from outside `src/`.

`Tracer` records one span per call: name, start, end and parent (the span
open when the call began), in flat arrays kept in memory until `dump`.
`patched(tracer, names)` wraps the named functions and methods where callers
look them up and restores every attribute on exit.

Functions are matched by identity and re-bound in every `invofactor.*`
module namespace that holds them.  That is how `from .decomp import
minimal_polynomial` in the caller's module gets traced, and how the
`invofactor.factor` name clash is avoided: the package attribute `factor` is
the function, so the submodule is only ever reached through `sys.modules`.
"""

from __future__ import annotations

import array
import functools
import gzip
import inspect
import json
import sys
import time
import types
from contextlib import contextmanager

# the module-level functions each layer exposes to its callers
FUNCTIONS = (
    "factor",
    "minimal_polynomial",
    "krylov_span",
    "frobenius_form",
    "factorize",
    "is_irreducible_poly",
    "symmetric_conjugator",
    "core_checks",
    "verify_certificate",
    "group_enumerate",
)
# methods, traced on their class
METHODS = {
    "Mat": ("inv", "solve_right", "right_kernel_basis", "det", "__matmul__"),
    "SesquiForm": ("similitude_ratio",),
}
ALL_NAMES = FUNCTIONS + tuple(f"{c}.{m}" for c, ms in METHODS.items() for m in ms)


class Tracer:
    """Flat in-memory span store for one thread."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self._stack = [-1]
        self.hooks = {}  # span name -> callable(result), run after the span closes

    def _nid(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self):
        return len(self.start)

    def _open(self, nid):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        nid = self._nid(name)
        hooks = self.hooks
        if inspect.isgeneratorfunction(fn):
            # each resumption of the generator is one span
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            hook = hooks.get(name)
            if hook is not None:
                hook(result)
            return result

        return traced

    def spans(self, since=0):
        """[(name, start, end, parent)] from index `since` on."""
        names = self.names
        return [
            (names[self.name_id[i]], self.start[i], self.end[i], self.parent[i])
            for i in range(since, len(self.start))
        ]

    def dump(self, path):
        doc = {
            "format": "invofactor-bench-spans-v1",
            "names": self.names,
            "name": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _library_modules():
    return [
        m
        for key, m in list(sys.modules.items())
        if (key == "invofactor" or key.startswith("invofactor.")) and isinstance(m, types.ModuleType)
    ]


@contextmanager
def patched(tracer, names=ALL_NAMES):
    """Trace the given names for the duration of the block, then restore."""
    mods = _library_modules()
    wanted_funcs = {n for n in names if "." not in n}
    originals = {}
    for m in mods:
        for val in vars(m).values():
            if (
                inspect.isfunction(val)
                and val.__name__ in wanted_funcs
                and val.__module__ == m.__name__
            ):
                originals[id(val)] = val
    wrappers = {key: tracer.wrap(fn.__name__, fn) for key, fn in originals.items()}
    saved = []
    try:
        for m in mods:
            for attr, val in list(vars(m).items()):
                w = wrappers.get(id(val))
                if w is not None and originals[id(val)] is val:
                    saved.append((m, attr, val))
                    setattr(m, attr, w)
        for m in mods:
            for cls_name, meths in METHODS.items():
                cls = vars(m).get(cls_name)
                if not isinstance(cls, type) or cls.__module__ != m.__name__:
                    continue
                for meth in meths:
                    full = f"{cls_name}.{meth}"
                    if full in names and meth in vars(cls):
                        fn = vars(cls)[meth]
                        saved.append((cls, meth, fn))
                        setattr(cls, meth, tracer.wrap(full, fn))
        yield saved
    finally:
        for owner, attr, val in reversed(saved):
            setattr(owner, attr, val)


# ---------------------------------------------------------------------------
# analysis


class SpanTable:
    """Per-span derived columns: duration, self time and root span."""

    def __init__(self, tracer, since=0):
        self.rows = tracer.spans(since)
        n = len(self.rows)
        self.dur = [e - s for _, s, e, _ in self.rows]
        child = [0.0] * n
        self.root = list(range(n))
        for i, (_, _, _, par) in enumerate(self.rows):
            par -= since
            if par >= 0:
                child[par] += self.dur[i]
                self.root[i] = self.root[par]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def roots(self, name):
        return [i for i, (nm, _, _, par) in enumerate(self.rows) if nm == name and self.root[i] == i]

    def under(self, root_name):
        """Indices of spans whose root span is named root_name."""
        return [i for i in range(len(self.rows)) if self.rows[self.root[i]][0] == root_name]
