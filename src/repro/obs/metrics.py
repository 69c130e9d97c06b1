"""Named log-bucket histograms and the metrics registry.

A :class:`LogHistogram` keeps a fixed array of 64 power-of-two buckets:
bucket 0 holds ``[0, 1)``, bucket ``b`` holds ``[2^(b-1), 2^b)``, and the
last bucket is the overflow (anything from ``2^62`` up, including
``inf``).  :meth:`LogHistogram.record` touches only preallocated state —
no allocation, no hashing — so the simulator's per-message and
per-dispatch paths can sample without disturbing wall-clock benchmarks.

Quantiles come from a cumulative walk with linear interpolation inside
the landing bucket, clamped to the observed ``[min, max]`` — coarse (a
log-bucket estimate, not a t-digest) but stable and allocation-free,
which is the right trade for virtual-time latencies spanning five
decades.

A :class:`Metrics` registry maps names to histograms (memoized, so
instrumentation sites resolve their histogram once at construction and
hold the object) plus a plain ``gauges`` dict for point-in-time values
(pool hit rate, engine fast-path counters).
"""

from __future__ import annotations

from math import frexp, inf

__all__ = ["LogHistogram", "Metrics", "MetricNames", "collect_cluster_gauges"]

N_BUCKETS = 64
_LAST = N_BUCKETS - 1


class LogHistogram:
    """Fixed log2-bucket histogram of non-negative samples."""

    __slots__ = ("name", "counts", "count", "total", "vmin", "vmax")

    def __init__(self, name: str = ""):
        self.name = name
        self.counts: list[int] = [0] * N_BUCKETS
        self.count = 0
        self.total = 0.0
        self.vmin = inf
        self.vmax = -inf

    def record(self, value: float) -> None:
        """Add one sample.  Allocation-free; rejects negatives and NaN."""
        if not value >= 0.0:
            raise ValueError(f"histogram {self.name!r}: cannot record {value}")
        if value < 1.0:
            b = 0
        elif value == inf:
            b = _LAST
        else:
            # frexp(v)[1] is ceil(log2(v)) for v in (2^(k-1), 2^k] shifted
            # by the mantissa convention: exactly the bucket index we want
            b = frexp(value)[1]
            if b > _LAST:
                b = _LAST
        self.counts[b] += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    @staticmethod
    def bucket_bounds(b: int) -> tuple[float, float]:
        """``[lo, hi)`` covered by bucket ``b`` (the last bucket is open)."""
        if not 0 <= b < N_BUCKETS:
            raise ValueError(f"bucket index {b} out of range")
        if b == 0:
            return 0.0, 1.0
        hi = inf if b == _LAST else 2.0 ** b
        return 2.0 ** (b - 1), hi

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 <= q <= 1); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cum = 0
        for b, n in enumerate(self.counts):
            if n == 0:
                continue
            if cum + n >= target:
                if b == _LAST:
                    return self.vmax  # open bucket: the observed max is the estimate
                lo, hi = self.bucket_bounds(b)
                est = lo + (target - cum) / n * (hi - lo)
                if est < self.vmin:
                    est = self.vmin
                elif est > self.vmax:
                    est = self.vmax
                return est
            cum += n
        return self.vmax  # pragma: no cover - unreachable (count > 0)

    def percentiles(self) -> dict[str, float]:
        """The p50/p90/p99 triple every report shows."""
        return {
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def merge(self, other: "LogHistogram") -> None:
        """Fold another histogram into this one (aggregating nodes)."""
        counts, ocounts = self.counts, other.counts
        for i in range(N_BUCKETS):
            counts[i] += ocounts[i]
        self.count += other.count
        self.total += other.total
        if other.vmin < self.vmin:
            self.vmin = other.vmin
        if other.vmax > self.vmax:
            self.vmax = other.vmax

    def nonzero_buckets(self) -> list[tuple[float, float, int]]:
        """``(lo, hi, n)`` for every populated bucket, ascending."""
        return [
            (*self.bucket_bounds(b), n)
            for b, n in enumerate(self.counts)
            if n
        ]

    def snapshot(self) -> dict[str, float]:
        """Summary stats for reports: count, mean, min/max, percentiles."""
        out: dict[str, float] = {
            "count": float(self.count),
            "mean": self.mean(),
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
        }
        out.update(self.percentiles())
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.count:
            return f"<LogHistogram {self.name!r} empty>"
        return (
            f"<LogHistogram {self.name!r} n={self.count} mean={self.mean():.1f} "
            f"p50={self.quantile(0.5):.1f} max={self.vmax:.1f}>"
        )


class Metrics:
    """Registry of named histograms plus point-in-time gauges.

    Pass one instance to :class:`~repro.machine.cluster.Cluster` (or the
    experiment helpers that build clusters) and every instrumented layer
    resolves its histograms from it at construction time; with no
    registry attached each site holds ``None`` and the hot paths pay one
    ``is not None`` test.
    """

    __slots__ = ("_hists", "gauges")

    def __init__(self) -> None:
        self._hists: dict[str, LogHistogram] = {}
        #: point-in-time values (pool hit rate, engine counters, ...)
        self.gauges: dict[str, float] = {}

    def histogram(self, name: str) -> LogHistogram:
        """The histogram registered under ``name`` (created on first use)."""
        h = self._hists.get(name)
        if h is None:
            h = self._hists[name] = LogHistogram(name)
        return h

    def histograms(self) -> dict[str, LogHistogram]:
        """All registered histograms, sorted by name."""
        return dict(sorted(self._hists.items()))

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def __len__(self) -> int:
        return len(self._hists)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Metrics histograms={sorted(self._hists)} gauges={sorted(self.gauges)}>"


class MetricNames:
    """Canonical histogram/gauge keys, shared by instrumentation and
    reports (mirrors :class:`~repro.sim.account.CounterNames`)."""

    RMI_LATENCY = "ccpp.rmi.latency_us"     # initiator: invoke() end to end
    AM_RTT = "am.rtt_us"                    # app-level bare-AM ping-pong
    AM_SERVICE = "am.service_us"            # send -> handler-serviced delay
    RETX_DELAY = "am.retx_delay_us"         # reliable sublayer: expiring rto
    RUNQ_DEPTH = "sched.runq_depth"         # ready threads at dispatch
    MSG_BYTES = "net.msg_bytes"             # per-packet bytes at transmit
    LINK_QUEUE = "net.link_queue_us"        # per-packet queueing behind busy links
    LINK_MAX_UTIL = "net.link_max_util"     # gauge: busiest link's busy fraction
    LINK_QUEUED_TOTAL = "net.link_queued_us_total"  # gauge: sum of link queue time
    SC_READ = "splitc.read_us"              # blocking remote read latency
    POOL_HIT_RATE = "pool.hit_rate"         # gauge: warm leases / leases
    POOL_LEASES = "pool.leases"             # gauge
    DETECT_SILENCE = "ft.detect_silence_us" # silence observed when declaring death
    RMA_REGISTER = "rma.register_us"        # window registration (pin + publish)
    RMA_REMOTE = "rma.remote_us"            # issue -> remote-completion latency
    RMA_INFLIGHT = "rma.inflight"           # outstanding one-sided ops at issue


def collect_cluster_gauges(metrics: Metrics, cluster) -> None:
    """Fold a cluster's end-of-run pool and engine statistics into
    ``metrics.gauges`` (call after the run; these are snapshots, not
    samples)."""
    leases = allocs = reuses = 0
    for node in cluster.nodes:
        stats = node.marshal_pool.stats()
        leases += stats["leases"]
        allocs += stats["allocs"]
        reuses += stats["reuses"]
    metrics.gauge(MetricNames.POOL_LEASES, float(leases))
    metrics.gauge(MetricNames.POOL_HIT_RATE, reuses / leases if leases else 0.0)
    for key, value in cluster.sim.fastpath_stats().items():
        metrics.gauge(f"engine.{key}", float(value))
    for key, value in cluster.sim.queue_stats().items():
        metrics.gauge(f"engine.queue.{key}", float(value))
    topo = getattr(cluster, "topology", None)
    if topo is not None and topo.contention:
        metrics.gauge(MetricNames.LINK_MAX_UTIL, topo.max_utilization(cluster.sim.now))
        metrics.gauge(MetricNames.LINK_QUEUED_TOTAL, topo.total_queued_us())
