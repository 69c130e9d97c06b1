"""The repository benchmark: host time of the simulator, end to end and
layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see NOTES.md for why):
``paper_all``, ``em3d_1024``, ``table4_micro``.

Every sample is a fresh single-threaded worker process (``worker.py``).

* ``--trace 0`` prints the end-to-end metrics: a few set-up-only workers,
  then measured workers until ``--seconds`` is used up (at least two);
  each metric is the median over the workers.
* ``--trace 1`` prints the per-layer metrics: one untraced worker and one
  worker under cProfile.  Their exact counts must be equal, or tracing
  perturbed the simulation and the run is not correct.

Every op's output is checked against ``expected.json``.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections.abc import Iterator
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import layers
import workloads

SETUP_PROBES = 3
MIN_SAMPLES = 2
WORKER_TIMEOUT_S = 150
WORKDIR = ROOT / ".perfbench_work"

#: artifacts of ``run all`` at the commit that defined the benchmark
ARTIFACTS = (
    "table1", "table4", "figure5", "figure6", "nexus", "ablations", "faults",
    "chaos", "scaling", "scorecard", "trace", "metrics", "congestion", "rma",
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric and its unit, in print order."""
    units: dict[str, str] = {}
    for layer in layers.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "fraction"
        units[f"{layer}.calls_in"] = "count"
    for sub in layers.SUBLAYERS:
        units[f"{sub}.self_s"] = "s"
    units["experiments.orchestration.self_s"] = "s"
    for name in ("sim.events", "sim.heap_fired", "sim.immediate_fired", "sim.inline_advances"):
        units[name] = "count"
    units["sim.host_ns_per_event"] = "ns"
    units["sim.virtual_us"] = "us"
    for name in ("threads.create", "threads.yield", "threads.sync_op", "threads.lock.contended"):
        units[name] = "count"
    units["ccpp.stub_hit_ratio"] = "fraction"
    units["ccpp.rbuf_reuse_ratio"] = "fraction"
    units["marshal.pool_hit_ratio"] = "fraction"
    for name in ("net.msg.short", "net.msg.bulk", "net.polls"):
        units[name] = "count"
    units["net.bytes"] = "bytes"
    units["am.useful_poll_ratio"] = "fraction"
    units["net.link_queued_us"] = "us"
    units["experiments.cache_stores"] = "count"
    for name in ARTIFACTS:
        units[f"artifact.{name}_s"] = "s"
    units["trace.total_s"] = "s"
    units["trace_overhead"] = "ratio"
    return units


def child_env(workdir: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(workdir),
        REPRO_CACHE_DIR=str(workdir / "cache"),
    )
    return env


class WorkerError(RuntimeError):
    pass


@contextlib.contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under ``WORKDIR`` (inside the checkout), removed on
    exit together with ``WORKDIR`` once no other run uses it."""
    WORKDIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORKDIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it


def spawn(workload: str, seed: int | None, workdir: Path, *flags: str,
          entry: tuple[str, ...] = (str(HERE / "worker.py"),)) -> dict:
    """Run one worker process to completion; its last stdout line.
    ``entry`` is the script (and leading arguments) that runs the worker."""
    cmd = [sys.executable, *entry, "--workload", workload,
           "--workdir", str(workdir), *flags]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(
        [*cmd, "--t0", repr(t0)], cwd=ROOT, env=child_env(workdir),
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise WorkerError(f"worker {workload} exited {proc.returncode}: {tail[0]}")
    report = json.loads(lines[-1])
    report["elapsed_s"] = time.perf_counter() - t0
    return report


def tally(reports: list[dict]) -> tuple[int, int, list[str]]:
    ops = [op for r in reports for op in r["ops"]]
    reasons = [f"{name}: {why}" for name, ok, why in ops if not ok]
    return len(ops), len(reasons), reasons


def end_to_end(name: str, seed: int | None, seconds: float, workdir: Path):
    started = time.perf_counter()
    setups = [spawn(name, seed, workdir, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    samples: list[dict] = []
    while len(samples) < MIN_SAMPLES or (
        time.perf_counter() - started
        + statistics.median(r["elapsed_s"] for r in samples) <= seconds
    ):
        samples.append(spawn(name, seed, workdir))
    attempted, failed, reasons = tally(samples)
    if any(r["counts"] != samples[0]["counts"] for r in samples):
        reasons.append("exact counts differ between identical runs")
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in samples),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in samples]),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in samples),
    }
    notes = [f"{len(setups) + len(samples)} set-ups; wall_s of {len(samples)} measured "
             "samples: " + " ".join(f"{r['wall_s']:.3f}" for r in samples)]
    return metrics, END_TO_END, attempted, failed, reasons, notes


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(name: str, seed: int | None, seconds: float, workdir: Path):
    base = spawn(name, seed, workdir)
    traced = spawn(name, seed, workdir, "--profile")
    attempted, failed, reasons = tally([base, traced])
    if base["counts"] != traced["counts"]:
        reasons.append("exact counts differ between the traced and untraced runs")

    fold = traced["layers"]
    self_s, calls_in, total = fold["self_s"], fold["calls_in"], fold["total_s"]
    c = base["counts"]
    m: dict[str, float] = {}
    for layer in layers.LAYERS:
        own = sum((v for k, v in self_s.items() if layers.top(k) == layer), 0.0)
        m[f"{layer}.self_s"] = own
        m[f"{layer}.share"] = ratio(own, total)
        m[f"{layer}.calls_in"] = calls_in.get(layer, 0)
    for sub in layers.SUBLAYERS:
        m[f"{sub}.self_s"] = self_s.get(sub, 0.0)
    m["experiments.orchestration.self_s"] = sum(self_s.get(k, 0.0) for k in layers.ORCHESTRATION)
    events = c.get("sim.events_fired", 0)
    m["sim.events"] = events
    for key in ("heap_fired", "immediate_fired", "inline_advances"):
        m[f"sim.{key}"] = c.get(f"sim.{key}", 0)
    m["sim.host_ns_per_event"] = ratio(base["wall_s"] * 1e9, events)
    m["sim.virtual_us"] = c.get("sim.virtual_us", 0.0)
    for key in ("threads.create", "threads.yield", "threads.sync_op",
                "threads.lock.contended", "net.msg.short", "net.msg.bulk",
                "net.polls", "net.bytes"):
        m[key] = c.get(key, 0)
    warm, cold = c.get("ccpp.rmi.warm", 0), c.get("ccpp.rmi.cold", 0)
    m["ccpp.stub_hit_ratio"] = ratio(warm, warm + cold)
    reuse, alloc = c.get("ccpp.rbuf.reuse", 0), c.get("ccpp.rbuf.alloc", 0)
    m["ccpp.rbuf_reuse_ratio"] = ratio(reuse, reuse + alloc)
    m["marshal.pool_hit_ratio"] = ratio(c.get("pool.reuses", 0), c.get("pool.leases", 0))
    m["am.useful_poll_ratio"] = ratio(m["net.msg.short"] + m["net.msg.bulk"], m["net.polls"])
    m["net.link_queued_us"] = c.get("link.queued_us", 0.0)
    m["experiments.cache_stores"] = base["cache_stores"]
    for art in ARTIFACTS:
        m[f"artifact.{art}_s"] = base["artifact_s"].get(art, 0.0)
    m["trace.total_s"] = total
    m["trace_overhead"] = ratio(traced["wall_s"], base["wall_s"])
    units = per_layer_units()
    notes = [f"untraced wall {base['wall_s']:.3f} s, traced wall {traced['wall_s']:.3f} s"]
    return {k: m[k] for k in units}, units, attempted, failed, reasons, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = workloads.workload_seed(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    try:
        with scratch_dir("run-") as workdir:
            metrics, units, attempted, failed, reasons, notes = measure(
                args.workload, seed, args.seconds, workdir
            )
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}: --seed {args.seed} -> workload seed "
          f"{seed if seed is not None else 'none (Table 4 has no seed; ignored)'}")
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"affinity {len(os.sched_getaffinity(0))} cpus; " + "; ".join(notes))
    for reason in reasons:
        print(f"FAILED {reason}")
    print(f"failed_frac {failed}/{attempted} = {ratio(failed, attempted):g}")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": not reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
