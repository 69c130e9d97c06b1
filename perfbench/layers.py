"""Fold a cProfile run into per-layer host self time.

A layer is a top-level package of ``src/repro`` (``sim``, ``threads``,
``am`` ...); a sub-layer is ``<pkg>.<module>`` (``sim.engine``) or, for a
nested package, ``<pkg>.<subpkg>`` (``apps.em3d``).  The map is computed
from the file path, so a new module lands in its layer without edits
here.  Modules directly under ``src/repro`` (``errors.py``) count as
``util``.

Self time of code outside ``src/repro`` -- builtins, the standard
library, numpy -- is charged to the layer that called it, using the
per-caller times cProfile records, so it does not form a phantom
``builtins`` layer.  What no ``src/repro`` frame called (the benchmark's
own code) is ``harness``.
"""

from __future__ import annotations

import sys
from collections import defaultdict

LAYERS = (
    "sim", "threads", "am", "machine", "marshal", "ccpp", "splitc", "apps",
    "experiments", "rma", "ft", "obs", "nexus", "mpl", "util", "service",
    "harness",
)
SUBLAYERS = (
    "sim.engine", "threads.scheduler", "threads.sync", "ccpp.rmi",
    "marshal.packer", "marshal.serialize", "machine.network",
    "machine.topology", "splitc.process", "splitc.runtime", "apps.em3d",
    "apps.water", "apps.lu", "experiments.microbench",
)
#: the experiments modules that orchestrate artifacts rather than model
#: the paper's programs (``experiments.microbench`` holds Table 4's)
ORCHESTRATION = (
    "experiments.cli", "experiments.registry", "experiments.runner",
    "experiments.cache", "experiments.serde", "experiments.report",
    "experiments.sweep",
)
HARNESS = "harness"
_MARK = "/src/repro/"


def sublayer_of(filename: str) -> str | None:
    """``.../src/repro/<pkg>/<module>.py`` -> ``<pkg>.<module>``; None
    outside ``src/repro``."""
    path = filename.replace("\\", "/")
    at = path.rfind(_MARK)
    if at < 0:
        return None
    parts = path[at + len(_MARK):].split("/")
    if len(parts) == 1:
        return "util"
    second = parts[1].removesuffix(".py")
    return parts[0] if second == "__init__" else f"{parts[0]}.{second}"


def top(sublayer: str) -> str:
    return sublayer.split(".", 1)[0]


class _Folder:
    def __init__(self, stats: dict):
        self.stats = stats
        self.own = {f: sublayer_of(f[0]) for f in stats}
        self.memo: dict = {}
        self.visiting: set = set()

    def share(self, func) -> dict[str, float] | None:
        """Which sub-layers ``func`` works for, as weights summing to 1.

        A ``src/repro`` function works for its own sub-layer; any other
        function for its callers, weighted by the cumulative time each
        caller spent in it.  None while ``func`` is already being resolved
        (a recursion cycle outside ``src/repro``)."""
        own = self.own.get(func)
        if own is not None:
            return {own: 1.0}
        if func in self.memo:
            return self.memo[func]
        if func in self.visiting or func not in self.stats:
            return None
        self.visiting.add(func)
        _, _, _, ct, callers = self.stats[func]
        acc: dict[str, float] = defaultdict(float)
        for caller, (_, nc, _, edge_ct) in callers.items():
            d = self.share(caller)
            if d is None:
                continue
            w = edge_ct if ct > 0 else float(nc)
            for key, frac in d.items():
                acc[key] += w * frac
        self.visiting.discard(func)
        total = sum(acc.values())
        result = {k: v / total for k, v in acc.items()} if total > 0 else {HARNESS: 1.0}
        self.memo[func] = result
        return result

    def layer_of_caller(self, func) -> str:
        d = self.share(func) or {HARNESS: 1.0}
        return top(max(d.items(), key=lambda kv: (kv[1], kv[0]))[0])


def fold(stats: dict) -> dict:
    """``pstats.Stats(...).stats`` -> ``{"self_s": {...}, "calls_in": {...},
    "total_s": t}``.  ``self_s`` is keyed by sub-layer; every second of
    profiled self time lands in exactly one key."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))
    try:
        folder = _Folder(stats)
        self_s: dict[str, float] = defaultdict(float)
        calls_in: dict[str, int] = defaultdict(int)
        total = 0.0
        for func, (_, _, tt, _, callers) in stats.items():
            total += tt
            own = folder.own[func]
            if own is not None:
                self_s[own] += tt
                for caller, (_, nc, _, _) in callers.items():
                    if folder.layer_of_caller(caller) != top(own):
                        calls_in[top(own)] += nc
                continue
            charged = 0.0
            for caller, (_, _, edge_tt, _) in callers.items():
                d = folder.share(caller) or {HARNESS: 1.0}
                for key, frac in d.items():
                    self_s[key] += edge_tt * frac
                charged += edge_tt
            self_s[HARNESS] += tt - charged  # calls with no recorded caller
    finally:
        sys.setrecursionlimit(limit)
    folded = sum(self_s.values())
    if abs(folded - total) > 1e-6 * max(total, 1.0):
        raise ValueError(f"layer self times sum to {folded}, profile total is {total}")
    return {"self_s": dict(self_s), "calls_in": dict(calls_in), "total_s": total}
