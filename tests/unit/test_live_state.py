"""Resident state tracks live simulation state, not history.

* finished threads leave the scheduler's registry, so a long parfor run
  holds as much memory as a short one;
* a packet on the wire costs one queue entry and nothing else, and the
  network's in-flight accounting (``in_flight``, ``quiescent()``,
  ``describe_in_flight()``) still names exactly the packets scheduled but
  not yet delivered, also when a fault plan drops, duplicates and delays;
* no runtime module imports scipy.

The memory checks use ``tracemalloc`` so their verdict does not depend on
the machine.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

from repro.experiments.microbench import run_cc_microbench
from repro.machine.cluster import Cluster
from repro.machine.costs import SP2_COSTS
from repro.machine.faults import FaultPlan, FaultRule
from repro.machine.network import Network, Packet
from repro.machine.node import Node
from repro.sim.account import Category
from repro.sim.effects import WAIT_INBOX, Charge, Park
from repro.sim.engine import Simulator
from repro.threads.api import spawn
from repro.threads.thread import ThreadState

SRC = Path(__file__).resolve().parents[2] / "src"


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ------------------------------------------------------------------ memory


def test_prefetch_peak_memory_does_not_grow_with_iterations():
    """The CC++ Prefetch row spawns one thread per element; finished
    threads must be freed, so 10x the iterations needs no more memory.
    (Keeping every finished thread costs ~21 KB per iteration: 8.5 MB at
    400.  The sizes keep the test to a few seconds under tracemalloc.)"""
    run_cc_microbench("Prefetch 20-Word", iters=1)  # lazy imports
    short = _traced_peak(lambda: run_cc_microbench("Prefetch 20-Word", iters=40))
    long = _traced_peak(lambda: run_cc_microbench("Prefetch 20-Word", iters=400))
    assert long <= 1_000_000, f"iters=400 peaked at {long} traced bytes"
    assert long <= 2 * short, f"iters=400 peak {long} vs iters=40 peak {short}"


def test_packet_burst_costs_one_queue_entry_per_packet():
    """20,000 packets injected at t=0 on a contended fat tree: beyond the
    packets themselves, each in-flight packet may cost at most 256 traced
    bytes (its event-queue entry; no closure, no registry entry)."""
    n = 20_000
    cluster = Cluster(64, topology="fattree:arity=8,fatness=2")
    net = cluster.network
    packets = [
        Packet(src=i % 64, dst=(7 * i + 1) % 64, kind="burst", payload=None, nbytes=64)
        for i in range(n)
    ]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for p in packets:
            net.transmit(p)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert net.in_flight == n
    per_packet = (after - before) / n
    assert per_packet <= 256, f"{per_packet:.0f} traced bytes per in-flight packet"
    cluster.sim.run()
    assert net.in_flight == 0
    assert net.packets_delivered == n


# ------------------------------------------------------- in-flight accounting


class _RecordingSim(Simulator):
    """Remembers every packet scheduled as an arrival event."""

    def __init__(self):
        super().__init__()
        self.scheduled: dict[int, Packet] = {}

    def schedule(self, delay, fn):
        if type(fn) is Packet:
            self.scheduled[fn.pid] = fn
        super().schedule(delay, fn)


class _RecordingNode(Node):
    """Remembers every packet delivered to it."""

    def __init__(self, nid, sim, delivered):
        super().__init__(nid, sim, SP2_COSTS)
        self._delivered = delivered

    def deliver(self, packet):
        self._delivered.add(packet.pid)
        super().deliver(packet)


def test_in_flight_accounting_matches_pending_packets_under_faults():
    rule = FaultRule(
        kind="flow", drop=0.2, duplicate=0.2, delay=0.3, delay_us=40.0, jitter_us=60.0
    )
    sim = _RecordingSim()
    net = Network(sim, faults=FaultPlan(seed=11).add_rule(rule))
    delivered: set[int] = set()
    nodes = [_RecordingNode(nid, sim, delivered) for nid in range(6)]
    for node in nodes:
        net.register(node)

    def inject(i):
        return lambda: net.transmit(
            Packet(src=i % 6, dst=(5 * i + 2) % 6, kind="flow", payload=i, nbytes=8 * (i % 9))
        )

    for i in range(300):
        sim.schedule(0.5 + 1.7 * i, inject(i))

    checked = 0
    for t in range(20, 640, 20):
        sim.run(until=float(t))
        pending = [p for pid, p in sim.scheduled.items() if pid not in delivered]
        pending.sort(key=lambda p: (p.arrival_time, p.pid))
        assert net.in_flight == len(pending)
        assert net.describe_in_flight() == [
            f"{p.describe()} sent t={p.send_time:.1f} due t={p.arrival_time:.1f}"
            for p in pending
        ]
        if t % 40 == 0:
            for node in nodes:
                node.inbox.clear()
        has_mail = any(node.inbox for node in nodes)
        assert net.quiescent() == (not pending and not has_mail)
        checked += bool(pending)
    sim.run()
    assert net.in_flight == 0 and net.describe_in_flight() == []
    assert checked > 20  # most instants had packets on the wire
    assert net.packets_dropped and net.packets_duplicated
    assert any(
        p.arrival_time - p.send_time > SP2_COSTS.net.wire_latency + 40.0
        for p in sim.scheduled.values()
    )


def test_blocked_threads_listed_in_creation_order_after_many_finished():
    n_finished = 10_000
    cluster = Cluster(1)
    node = cluster.nodes[0]
    sched = node.scheduler

    def parked():
        yield Park()

    def waiting():
        yield WAIT_INBOX

    def short():
        yield Charge(1.0, Category.CPU)

    def spawner(count):
        for _ in range(count):
            yield from spawn(node, short())

    cluster.launch(0, parked(), "first-parked")
    cluster.launch(0, spawner(n_finished // 2), "spawner-a")
    cluster.launch(0, waiting(), "inbox-waiter", daemon=True)
    cluster.launch(0, spawner(n_finished // 2), "spawner-b")
    cluster.launch(0, parked(), "last-parked")
    cluster.sim.run()

    assert [t.name for t in sched.blocked_threads()] == [
        "first-parked", "inbox-waiter", "last-parked",
    ]
    described = sched.describe_blocked()
    assert [line.rsplit(":", 1)[0] for line in described] == [
        "first-parked [parked] at parked",
        "inbox-waiter [wait-inbox, daemon] at waiting",
        "last-parked [parked] at parked",
    ]
    # the registry holds live threads only
    assert len(sched.threads) == 3
    assert all(t.state is not ThreadState.DONE for t in sched.threads)
    assert sched.live_nondaemon_count() == 2


# ------------------------------------------------------------- dependencies


def test_runtime_modules_do_not_import_scipy():
    code = (
        "import importlib, sys\n"
        "from repro.experiments import cli, registry\n"
        "for spec in registry.specs():\n"
        "    importlib.import_module(spec.module)\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(','.join(loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "", f"scipy modules loaded: {out.stdout.strip()}"
