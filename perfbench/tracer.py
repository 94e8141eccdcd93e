"""Per-layer tracing from outside the program.

``Tracer.install`` wraps every public function of each layer module (the
names in its ``__all__``) and rebinds the wrapper in every ``logsine``
module that holds the name, since ``from .x import f`` makes a binding of
its own.  The zeta series and the tanh-sinh engine are entered only
through private names, so those are wrapped too.  A name that is absent
is recorded as missing, not treated as an error: later versions of the
program may rename or merge it.

Spans stay in memory.  ``summary`` folds them into per-layer totals:

- ``calls``: entries into the layer from another layer or from the
  benchmark (a call inside the layer opens no span of its own);
- ``self_s``: span time minus the time covered by child spans;

plus the counts the layers expose: Euler-Maclaurin series evaluations,
integrand evaluations, and cache statistics read from ``cache_info()``.
Only spans and counts inside ``measure()`` windows are kept, so a warm
repeat or the benchmark's own work between ops is not attributed.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

LAYERS = (
    "cli",
    "exact_core",
    "zeta_engine",
    "logsine_closed_form",
    "quadrature_oracle",
    "contour_verifier",
    "fourier_appendix",
)

# layers entered through a private name, and what the name counts
_PRIVATE = {"zeta_engine": ("_euler_maclaurin",), "quadrature_oracle": ("_tanh_sinh",)}
_SERIES = ("zeta_engine", "_euler_maclaurin")
_ENGINE = ("quadrature_oracle", "_tanh_sinh")
# layers whose lru caches are read: the Bernoulli tables, the tanh-sinh
# node tables and the quadrature result caches
_CACHED_LAYERS = ("exact_core", "quadrature_oracle")
TABLE_CACHE = "exact_core.bernoulli_table"
NODE_CACHE = "quadrature_oracle._nodes"


class Tracer:
    def __init__(self) -> None:
        # [layer, name, start, end, parent index]; recorded only while active
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.active = False
        self.integrand_evals = 0
        self.series_evals = 0
        self.cache_deltas: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._caches: dict[str, object] = {}

    # -- installation -----------------------------------------------------

    def _span(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        key = (layer, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if key == _SERIES:
                self.series_evals += 1
            if stack and spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)  # not a layer boundary: no span
            index = len(spans)
            spans.append([layer, name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = time.perf_counter()

        return wrapper

    def _count_integrand(self, engine):
        @functools.wraps(engine)
        def counted(f, *args, **kwargs):
            def g(*xs):
                if self.active:
                    self.integrand_evals += 1
                return f(*xs)

            return engine(g, *args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap the layers of the already imported ``logsine`` package."""
        replace: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"logsine.{layer}")
            if module is None:
                self.missing.append(f"logsine.{layer}")
                continue
            if layer in _CACHED_LAYERS:
                for name, fn in vars(module).items():
                    if hasattr(fn, "cache_info"):
                        self._caches[f"{layer}.{name}"] = fn
            for name in list(getattr(module, "__all__", ())) + list(_PRIVATE.get(layer, ())):
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                if isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue  # re-exported from another layer; wrapped there
                wrapped = self._span(layer, name, fn)
                if (layer, name) == _ENGINE:
                    wrapped = self._count_integrand(wrapped)
                replace[id(fn)] = (fn, wrapped)
        for name in (TABLE_CACHE, NODE_CACHE):
            if name not in self._caches:
                self.missing.append(name)
        for modname, module in list(sys.modules.items()):
            if modname != "logsine" and not modname.startswith("logsine."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    # -- measurement ------------------------------------------------------

    def _cache_snapshot(self) -> dict[str, tuple[int, int]]:
        out = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            out[name] = (info.hits, info.misses)
        return out

    @contextlib.contextmanager
    def measure(self):
        """Record spans and count work for the duration of the block."""
        before = self._cache_snapshot()
        self.active = True
        try:
            yield
        finally:
            self.active = False
            after = self._cache_snapshot()
            for name, (hits, misses) in after.items():
                acc = self.cache_deltas.setdefault(name, [0, 0])
                acc[0] += hits - before[name][0]
                acc[1] += misses - before[name][1]

    def summary(self) -> dict:
        """Per-layer totals over every ``measure()`` window."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for layer, name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for i, (layer, name, start, end, parent) in enumerate(spans):
            layers[layer]["calls"] += 1
            layers[layer]["self_s"] += (end - start) - child_time[i]
        return {
            "layers": layers,
            "series_evals": self.series_evals,
            "integrand_evals": self.integrand_evals,
            "caches": self.cache_deltas,
            "missing": self.missing,
            "spans": [[l, n, round(s, 7), round(e - s, 7), p] for l, n, s, e, p in spans],
        }
