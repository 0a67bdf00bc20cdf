"""Outside-in span tracer for the delpair package.

``Tracer.install()`` wraps every public module-level function of every
``delpair`` module and rebinds the wrapper at each module attribute that
holds the original, so aliases imported by name (``cli``, ``sff``,
``projgeo/__init__``) are traced too.  Nothing under ``src/`` changes.

Each call records one span (function id, parent span, start, end) in flat
arrays kept in memory.  ``summary()`` turns them into call counts, self time
(a span's time minus the time of its child spans) and inclusive time per
function, and counts the exceptions that leave a layer.  Private helpers and
methods are not wrapped, so their time stays in the self time of the public
function that called them.
"""
from __future__ import annotations

import functools
import importlib
import pkgutil
import types
from array import array
from time import perf_counter

LRU_FUNCTIONS = ("rootsys.build_root_system", "chevalley.build_table")


def _delpair_modules() -> list[types.ModuleType]:
    import delpair
    names = [m.name for m in pkgutil.walk_packages(delpair.__path__, "delpair.")]
    return [delpair] + [importlib.import_module(n) for n in sorted(names)]


def _layer(module_name: str) -> str:
    return module_name.removeprefix("delpair.")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.originals: dict[str, object] = {}
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.escapes: list[int] = []
        self._stack = [-1]

    def install(self) -> "Tracer":
        modules = _delpair_modules()
        wrappers: dict[int, object] = {}
        for mod in modules:
            for name, obj in sorted(vars(mod).items()):
                traceable = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
                if (name.startswith("_") or not traceable
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                fid = len(self.names)
                qual = f"{_layer(mod.__name__)}.{name}"
                self.names.append(qual)
                self.layers.append(_layer(mod.__name__))
                self.originals[qual] = obj
                self.escapes.append(0)
                wrappers[id(obj)] = self._wrap(fid, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
        return self

    def _wrap(self, fid: int, fn):
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack, layers, escapes = self._stack, self.layers, self.escapes
        layer = layers[fid]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                caller = parents[idx]
                if caller < 0 or layers[fids[caller]] != layer:
                    escapes[fid] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per-function calls, self and inclusive seconds, escaped errors."""
        n = len(self.fid)
        child = [0.0] * n
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        incl_s = [0.0] * len(self.names)
        for i in range(n):
            f = fids[i]
            d = ends[i] - starts[i]
            calls[f] += 1
            self_s[f] += d - child[i]
            if parents[i] < 0 or fids[parents[i]] != f:
                incl_s[f] += d       # recursion is not counted twice
        functions = {
            name: {"calls": calls[f], "self_s": self_s[f], "incl_s": incl_s[f],
                   "errors": self.escapes[f]}
            for f, name in enumerate(self.names) if calls[f] or self.escapes[f]
        }
        caches = {}
        for name in LRU_FUNCTIONS:
            info = self.originals[name].cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        return {"spans": n, "functions": functions, "caches": caches}
