"""Self-tests of the benchmark: does it see what it claims to see?

    python3 perfbench/selftest.py          # about three minutes on 2 cores

1. ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py``
   prints, with the same units.
2. A perturbed cost constant (the switch's wire latency, +0.5 virtual us)
   shows up as failed ops on every workload, since all three send
   messages.
3. A busy-wait injected into ``Topology.occupy`` (the per-packet routing
   walk) raises ``machine.topology.self_s`` in the traced run and
   ``wall_s`` on ``em3d_1024`` by more than the metric's bound, and
   leaves ``table4_micro`` (flat fabric, no topology) within the bound.

Injections run in a worker started as
``selftest.py --inject NAME <worker arguments>``; the program's files are
never edited.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import run
import worker
import workloads

SELF = str(run.HERE / "selftest.py")
BUSY_US = 20.0


def inject_wire_latency() -> None:
    from repro.machine.costs import SP2_COSTS

    net = SP2_COSTS.net
    object.__setattr__(net, "wire_latency", net.wire_latency + 0.5)


def inject_topology_busywait() -> None:
    """Spin ``BUSY_US`` before every ``Topology.occupy``.  The wrapper is
    compiled under the topology module's file name so the profiler
    charges the spin to ``machine.topology``, as if the layer itself had
    become slower."""
    from repro.machine import topology

    source = (
        "def occupy(self, *args, _orig=_orig, _clock=_clock, _spin=_spin):\n"
        "    end = _clock() + _spin\n"
        "    while _clock() < end:\n"
        "        pass\n"
        "    return _orig(self, *args)\n"
    )
    namespace = {
        "_orig": topology.Topology.occupy,
        "_clock": time.perf_counter,
        "_spin": BUSY_US * 1e-6,
    }
    exec(compile(source, topology.__file__, "exec"), namespace)
    topology.Topology.occupy = namespace["occupy"]


INJECTIONS = {"wire_latency": inject_wire_latency, "topology": inject_topology_busywait}


def check_benchmark_json() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.per_layer_units())):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            errors.append(f"BENCHMARK.json {key} differs from what run.py prints: "
                          f"{sorted(set(listed.items()) ^ set(units.items()))[:4]}")
    return errors


def samples(name: str, workdir, n: int, inject: str | None, *flags: str) -> list[dict]:
    entry = (SELF, "--inject", inject) if inject else (str(run.HERE / "worker.py"),)
    seed = workloads.workload_seed(name, 0)
    return [run.spawn(name, seed, workdir, *flags, entry=entry) for _ in range(n)]


def median_wall(reports: list[dict]) -> float:
    return statistics.median(r["wall_s"] for r in reports)


def main() -> int:
    errors = check_benchmark_json()
    bound = {
        m["name"]: m["bound"]
        for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }["wall_s"]
    with run.scratch_dir("selftest-") as workdir:
        for name in workloads.WORKLOADS:
            (report,) = samples(name, workdir, 1, "wire_latency")
            failed = sum(not ok for _, ok, _ in report["ops"])
            print(f"wire_latency +0.5us on {name}: {failed}/{len(report['ops'])} ops failed")
            if not failed:
                errors.append(f"perturbed wire latency not detected on {name}")

        (base,) = samples("em3d_1024", workdir, 1, None, "--profile")
        (slow,) = samples("em3d_1024", workdir, 1, "topology", "--profile")
        topo = [r["layers"]["self_s"].get("machine.topology", 0.0) for r in (base, slow)]
        print(f"machine.topology.self_s traced: {topo[0]:.3f} s -> {topo[1]:.3f} s")
        if topo[1] <= topo[0] * (1 + bound):
            errors.append("topology busy-wait did not raise machine.topology.self_s")

        for name, should_move in (("em3d_1024", True), ("table4_micro", False)):
            before = median_wall(samples(name, workdir, 3, None))
            after = median_wall(samples(name, workdir, 3, "topology"))
            change = after / before - 1
            print(f"topology busy-wait on {name}: wall_s {before:.3f} -> {after:.3f} s ({change:+.1%})")
            if should_move and change <= bound:
                errors.append(f"busy-wait did not raise wall_s on {name} beyond {bound:.0%}")
            if not should_move and abs(change) > bound:
                errors.append(f"busy-wait moved wall_s on {name} by {change:+.1%}")
    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--inject"]:
        INJECTIONS[sys.argv[2]]()
        sys.exit(worker.main(sys.argv[3:]))
    sys.exit(main())
