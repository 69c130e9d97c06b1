"""Golden traces: observable simulator behaviour, pinned by snapshot.

Three levels of evidence, from engine to full application, each compared
exactly against a committed snapshot under ``snapshots/``:

* an engine-level trace of ``(time, seq)`` per fired callback for a mixed
  schedule (heap delays, zero-delay lane, ``call_soon``, inline advances,
  cancellations);
* every Table 4 micro-benchmark row (CC++ and Split-C): virtual-time
  totals, per-category breakdown, and thread-op counters;
* a traced EM3D base run: the per-event application trace (time, node,
  kind, detail; pinned by count and sha256) plus elapsed time,
  breakdown, counters and computed values.

Virtual time is the repository's contract, so an engine, AM or runtime
change that moves any of these is a behaviour change, not a refactor.
The snapshots are JSON, whose floats are written with ``repr`` and so
round-trip exactly.  Regenerate them only when an output change is
intended::

    PYTHONPATH=src python -m tests.integration.test_golden_trace

Packet ids in trace details are normalized away: they come from a
process-wide counter that keeps ticking across runs, so two equal runs
disagree on the absolute ids while agreeing on everything else.
"""

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.apps.em3d import Em3dGraph, Em3dParams, run_splitc_em3d
from repro.experiments.microbench import (
    CC_BENCHMARKS,
    SC_BENCHMARKS,
    run_cc_microbench,
    run_sc_microbench,
)
from repro.sim.engine import Simulator
from repro.sim.trace import RecordingTracer

_ITERS = 25
SNAPSHOTS = Path(__file__).resolve().parent / "snapshots"
_ENGINE = SNAPSHOTS / "golden_engine_trace.json"
_TABLE4 = SNAPSHOTS / "golden_table4_rows.json"
_EM3D = SNAPSHOTS / "golden_em3d_base.json"


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _engine_trace() -> list[list[float]]:
    """Drive one mixed scenario and record (time, seq) per fire.

    ``seq`` is read off the simulator *after* the fire so inline-advance
    bookkeeping shows up too: a change in how sequence numbers are
    consumed diverges the trace even when the firing times agree.  The
    last entry is ``(now, seq, events_fired)`` after the run.
    """
    sim = Simulator()
    trace: list[list[float]] = []

    def mark() -> None:
        trace.append([sim.now, sim._seq])

    def storm(n: int):
        def kick() -> None:
            mark()
            if n > 0:
                sim.call_soon(storm(n - 1))

        return kick

    def tick(left: int, delay: float):
        def fire() -> None:
            mark()
            if left > 0:
                sim.schedule(delay, tick(left - 1, delay))
                sim.schedule(0.0, mark)
                sim.call_soon(storm(2))

        return fire

    sim.schedule(1.0, tick(12, 3.0))
    sim.schedule(2.5, tick(9, 2.0))
    doomed = [sim.schedule_event(50.0 + i, mark) for i in range(8)]
    sim.schedule(40.0, lambda: [ev.cancel() for ev in doomed[:6]])
    sim.run()
    trace.append([sim.now, sim._seq, sim.events_fired])
    return trace


def _table4_rows() -> dict[str, dict[str, dict]]:
    return {
        "cc": {
            name: dataclasses.asdict(run_cc_microbench(name, iters=_ITERS))
            for name in CC_BENCHMARKS
        },
        "sc": {
            name: dataclasses.asdict(run_sc_microbench(name, iters=_ITERS))
            for name in SC_BENCHMARKS
        },
    }


def _em3d_base() -> dict:
    graph = Em3dGraph(Em3dParams(n_nodes=80, degree=5, n_procs=4, pct_remote=1.0))
    tracer = RecordingTracer()
    run = run_splitc_em3d(
        graph, steps=2, version="base", warmup_steps=0, tracer=tracer
    )
    lines = [
        f"{r.time!r} {r.node} {r.kind} {re.sub(r'#[0-9]+', '#', r.detail)}"
        for r in tracer.records
    ]
    return {
        "records": len(lines),
        "records_sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "evicted": tracer.evicted,
        "elapsed_us": run.elapsed_us,
        "breakdown": run.breakdown,
        "counters": run.counters,
        "values": run.values.tolist(),
    }


def test_engine_event_trace_identical():
    assert _engine_trace() == _load(_ENGINE)


@pytest.mark.parametrize("name", list(CC_BENCHMARKS))
def test_cc_table4_row_identical(name):
    row = run_cc_microbench(name, iters=_ITERS)
    assert dataclasses.asdict(row) == _load(_TABLE4)["cc"][name]


@pytest.mark.parametrize("name", list(SC_BENCHMARKS))
def test_sc_table4_row_identical(name):
    row = run_sc_microbench(name, iters=_ITERS)
    assert dataclasses.asdict(row) == _load(_TABLE4)["sc"][name]


def test_em3d_run_and_trace_identical():
    got = _em3d_base()
    assert got["records"] > 1000  # a trivial trace would prove nothing
    assert got == _load(_EM3D)


def _write(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write(_ENGINE, _engine_trace())
    _write(_TABLE4, _table4_rows())
    _write(_EM3D, _em3d_base())
