"""One workload process: set up, run one measured op, print one JSON line.

Spawned by ``run.py`` in a fresh interpreter for every sample::

    python3 perfbench/worker.py --workload NAME [--seed N] --t0 T \
        --workdir DIR [--setup-only | --profile | --record]

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this process (the clock is system-wide on Linux), so ``setup_s`` covers
interpreter start, imports and input generation.  ``--profile`` runs the
measured phase under cProfile and adds the per-layer fold.  ``--record``
reports the outputs' fingerprints for ``expected.json`` instead of
checking them.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import resource
import sys
import time
import weakref
from collections import defaultdict
from pathlib import Path

import layers
import workloads


class Probe:
    """Exact counts at the ``Cluster.run`` boundary, host seconds per
    artifact, and result-cache stores -- all recorded by wrapping public
    entry points from outside ``src/repro``."""

    def __init__(self) -> None:
        self.counts: dict[str, float] = defaultdict(int)
        self.artifact_s: dict[str, float] = defaultdict(float)
        self.cache_stores = 0
        self._depth = 0  # an artifact run inside another counts for the outer one
        self._last: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def install(self) -> None:
        """Wrap what the workload's set-up imported; import nothing more,
        so set-up time stays the workload's own."""
        from repro.machine.cluster import Cluster

        probe = self
        cluster_run = Cluster.run

        def run(cluster, *args, **kwargs):
            try:
                return cluster_run(cluster, *args, **kwargs)
            finally:
                probe.fold_cluster(cluster)

        Cluster.run = run

        cache = sys.modules.get("repro.experiments.cache")
        if cache is not None:
            cache_store = cache.ResultCache.store

            def store(self_, *args, **kwargs):
                path = cache_store(self_, *args, **kwargs)
                if path is not None:
                    probe.cache_stores += 1
                return path

            cache.ResultCache.store = store

        registry = sys.modules.get("repro.experiments.registry")
        for spec in registry.specs() if registry is not None else ():
            module = sys.modules.get(spec.module)
            if module is not None:
                entry = getattr(module, spec.entry)
                setattr(module, spec.entry, self._timed(spec.name, entry))

    def _timed(self, name, fn):
        def timed(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.artifact_s[name] += time.perf_counter() - t0
                self._depth -= 1

        return timed

    def fold_cluster(self, cluster) -> None:
        """Add what this cluster did since its previous ``run`` returned."""
        snap: dict[str, float] = defaultdict(int)
        for key, value in cluster.sim.fastpath_stats().items():
            snap[f"sim.{key}"] = value
        snap["sim.virtual_us"] = cluster.sim.now
        for key, value in cluster.aggregate_counters().counts.items():
            snap[key] = value
        for node in cluster.nodes:
            for key, value in node.marshal_pool.stats().items():
                if key != "free":  # a level, not a count
                    snap[f"pool.{key}"] += value
        if cluster.topology is not None:
            for link in cluster.topology.link_stats():
                for key in ("packets", "bytes", "busy_us", "queued_us"):
                    snap[f"link.{key}"] += link[key]
        last = self._last.get(cluster, {})
        for key, value in snap.items():
            self.counts[key] += value - last.get(key, 0)
        self._last[cluster] = snap


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="report fingerprints instead of checking them")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed, args.workdir)
    probe = Probe()
    probe.install()
    if not args.record:
        expected = json.loads(
            (Path(__file__).resolve().parent / "expected.json").read_text()
        )
    start = time.perf_counter()
    report: dict = {"setup_s": start - args.t0}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    profiler = cProfile.Profile() if args.profile else None
    if profiler is not None:
        profiler.enable()
    result = workload.measure()
    if profiler is not None:
        profiler.disable()
    report["wall_s"] = time.perf_counter() - start
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.record:
        prints = workload.fingerprints(result)
        bad = [op for op in workload.check(result, prints) if not op[1]]
        if bad:
            raise SystemExit(f"refusing to record a failed op: {bad[0]}")
        report["fingerprints"] = prints
    else:
        report["ops"] = workload.check(
            result, workloads.expected_for(expected, args.workload, args.seed)
        )
    report["counts"] = dict(probe.counts)
    report["artifact_s"] = dict(probe.artifact_s)
    report["cache_stores"] = probe.cache_stores
    if profiler is not None:
        report["layers"] = layers.fold(pstats.Stats(profiler).stats)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
