"""The flat EM3D kernel: bit-identity with the generator path.

``run_splitc_em3d(batched=...)`` (default from ``REPRO_BATCHED``) runs
the base version through the flattened compute kernel of
:mod:`repro.apps.em3d.batched`.  Its contract is strict: every committed
observable — elapsed virtual time, per-category breakdown, counter
totals, computed values, and the full application trace — equals the
generator path's bit for bit.  These tests drive both paths over the
same workloads and diff everything, including under a lossy fabric and
with the reliable sublayer on.
"""

import re

import pytest

from repro.apps.em3d import Em3dGraph, Em3dParams, run_splitc_em3d
from repro.apps.em3d.splitc_impl import batched_default
from repro.machine.faults import FaultPlan
from repro.sim.trace import RecordingTracer


def _graph():
    return Em3dGraph(Em3dParams(n_nodes=80, degree=5, n_procs=4, pct_remote=1.0))


def _assert_results_equal(a, b):
    assert a.elapsed_us == b.elapsed_us
    assert a.breakdown == b.breakdown
    assert a.counters == b.counters
    assert list(a.values) == list(b.values)


@pytest.mark.parametrize("version", ["base"])
def test_batched_em3d_identical_to_reference(version):
    graph = _graph()
    batched = run_splitc_em3d(graph, steps=2, version=version, batched=True)
    reference = run_splitc_em3d(graph, steps=2, version=version, batched=False)
    _assert_results_equal(batched, reference)


def _normalized(tracer: RecordingTracer):
    # packet ids come from a process-wide counter; normalize them away
    return [
        (r.time, r.node, r.kind, re.sub(r"#\d+", "#", r.detail))
        for r in tracer.records
    ]


def test_batched_em3d_trace_identical_to_reference():
    """Full application trace equality: same events, same order, same
    timestamps — the strongest identity the tier claims."""
    graph = _graph()
    bt, rt = RecordingTracer(), RecordingTracer()
    batched = run_splitc_em3d(
        graph, steps=2, version="base", warmup_steps=0, tracer=bt, batched=True
    )
    reference = run_splitc_em3d(
        graph, steps=2, version="base", warmup_steps=0, tracer=rt, batched=False
    )
    _assert_results_equal(batched, reference)
    b_records, r_records = _normalized(bt), _normalized(rt)
    assert len(b_records) > 1000  # a trivial trace would prove nothing
    assert b_records == r_records


def test_batched_em3d_identical_under_reliable_am():
    graph = _graph()
    batched = run_splitc_em3d(graph, steps=1, version="base", reliable=True, batched=True)
    reference = run_splitc_em3d(graph, steps=1, version="base", reliable=True, batched=False)
    _assert_results_equal(batched, reference)


def test_batched_em3d_identical_under_faults():
    """The kernel hands packets straight to the network; the fault plan's
    delay/duplicate decisions must still line up packet for packet."""
    graph = _graph()

    def run(batched):
        plan = (
            FaultPlan(seed=11)
            .delay("am.", rate=0.2, delay_us=40.0, jitter_us=10.0)
            .duplicate("am.short", rate=0.05)
        )
        return run_splitc_em3d(
            graph, steps=1, version="base", faults=plan, batched=batched
        )

    _assert_results_equal(run(True), run(False))


def test_repro_batched_env_controls_default(monkeypatch):
    monkeypatch.delenv("REPRO_BATCHED", raising=False)
    assert batched_default() is True
    monkeypatch.setenv("REPRO_BATCHED", "0")
    assert batched_default() is False
    monkeypatch.setenv("REPRO_BATCHED", "1")
    assert batched_default() is True
