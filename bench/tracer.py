"""Per-layer spans recorded by wrapping the package's public functions at
runtime. No source file of the package is touched.

A span's self time (``busy_s``) is its duration minus the time of the
wrapped calls nested in it. A rise of the process's ``ru_maxrss`` during a
span, minus the rises during its nested spans, is that span's
``rss_added_mb``. A target that no longer exists is recorded as absent.
"""
from __future__ import annotations

import importlib
import resource
import sys
import time
from dataclasses import dataclass, field


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stratum_pairs(args, result):
    return {"pairs_max": len(getattr(result, "pairs", ()))}


def _profile_pairs(args, result):
    return {"pairs_total": len(getattr(args[0], "pairs", ())) if args else 0}


def _ftangle_found(args, result):
    return {"found": int(result is not None)}


# layer metric prefix -> (module, attribute path, counter hook)
TARGETS = {
    "io.parse_grid": ("tanglescope.io", "parse_grid", None),
    "canvas.all_orders": ("tanglescope.canvas", "WeightedCanvas.all_orders", None),
    "sepsys.stratum": ("tanglescope.sepsys", "SeparationPool.stratum", _stratum_pairs),
    "search.profiles": ("tanglescope.search", "enumerate_profile_orientations", _profile_pairs),
    "search.ftangle": ("tanglescope.search", "find_star_avoiding_orientation", _ftangle_found),
    "profiles.restrict": ("tanglescope.profiles", "restrict", None),
    "profiles.regions": ("tanglescope.profiles", "regions", None),
    "duality.find_f_tangle": ("tanglescope.duality", "find_f_tangle", None),
    "duality.build_chop_tree": ("tanglescope.duality", "build_chop_tree", None),
    "duality.verify_chop_tree": ("tanglescope.duality", "verify_chop_tree", None),
    "duality.induced_subcanvas": ("tanglescope.duality", "induced_subcanvas", None),
    "duality.max_supported_resolution": ("tanglescope.duality", "max_supported_resolution", None),
    "treeset.build": ("tanglescope.treeset", "build_distinguishing_tree_set", None),
    "treeset.verify": ("tanglescope.treeset", "verify_tree_set", None),
    "report.analyze": ("tanglescope.report", "analyze", None),
    "report.encode_report": ("tanglescope.report", "encode_report", None),
    "render.render_svg": ("tanglescope.render", "render_svg", None),
    "render.render_mask": ("tanglescope.render", "render_mask", None),
}


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    rss_added_mb: float = 0.0
    cache_hits: int = 0
    counters: dict = field(default_factory=dict)


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit.

    Spans are kept in memory as (layer, op, start, end, parent index) and
    aggregated into per-layer statistics as they close."""

    def __init__(self):
        self.stats = {name: LayerStats() for name in TARGETS}
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[list] = []   # [span index, child seconds, child rss]
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _call(self, name, hook, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [index, 0.0, 0.0]
        self._stack.append(frame)
        rss0 = _maxrss_mb()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            rise = _maxrss_mb() - rss0
            self._stack.pop()
            self.spans[index] = (name, self.op, start, end, parent)
            stats = self.stats[name]
            stats.calls += 1
            stats.busy_s += (end - start) - frame[1]
            stats.rss_added_mb += rise - frame[2]
            if self._stack:
                self._stack[-1][1] += end - start
                self._stack[-1][2] += rise
        if hook is not None:
            for key, value in hook(args, result).items():
                old = stats.counters.get(key, 0)
                stats.counters[key] = max(old, value) if key.endswith("_max") else old + value
        return result

    def _wrap(self, name, hook, fn):
        def wrapper(*args, **kwargs):
            return self._call(name, hook, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_all_orders(self, name, fn):
        # Only the call that builds a canvas's table is a span; the cached
        # lookups (millions per picture through order_of) are counted. A
        # canvas without the _order_cache attribute makes every call a span.
        stats = self.stats[name]

        def all_orders(wc):
            cache = getattr(wc, "_order_cache", None)
            if cache is not None and cache.get("orders") is not None:
                stats.cache_hits += 1
                return fn(wc)
            return self._call(name, None, fn, (wc,), {})
        all_orders.__wrapped__ = fn
        return all_orders

    # -- install / restore ---------------------------------------------------

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "tanglescope" or key.startswith("tanglescope.")]
        for name, (module_name, path, hook) in TARGETS.items():
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if name == "canvas.all_orders":
                wrapper = self._wrap_all_orders(name, original)
            else:
                wrapper = self._wrap(name, hook, original)
            if outer:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            # a function is also bound by name in every module that imported it
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def summary(self) -> dict:
        out = {}
        for name, s in self.stats.items():
            out[name] = {"calls": s.calls, "busy_s": s.busy_s,
                         "rss_added_mb": s.rss_added_mb,
                         "cache_hits": s.cache_hits, **s.counters}
        return out
