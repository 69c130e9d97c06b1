"""The benchmark's three workloads and their correctness checks.

Each workload is driven only through stable public entry points of the
simulator (``repro.experiments.cli.main``, ``registry.get(name).run``,
``Em3dGraph``, ``run_splitc_em3d``, ``reference_steps``), so it keeps
measuring the same work while the code behind those entry points is
simplified or replaced.

A workload has three phases:

* ``setup(seed, workdir)`` -- imports and input generation, priced as
  ``setup_s``;
* ``measure()`` -- the timed phase, priced as ``wall_s``; returns the raw
  result;
* ``fingerprints(result)`` / ``check(result, expected)`` -- turn the result
  into one fingerprint per op and compare against the committed values in
  ``expected.json``.  A mismatch is a failed op with a one-line reason,
  never a crash.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import re
import tempfile
from typing import Any

#: workload seeds with committed expected outputs.  The driver's ``--seed``
#: picks one of them (``SEEDS[seed % len(SEEDS)]``), so every run can be
#: checked exactly.  1997 is the artifacts' default seed; 7 was held out
#: while the benchmark was tuned.
SEEDS = (1997, 7, 3, 11)

Ops = list[tuple[str, bool, str]]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class PaperAll:
    """``run all --iters 5 --jobs 1`` in process, with an empty result cache.

    Exactly what a reader runs to reproduce the paper.  The only workload
    that prices the experiments orchestration (registry, runner, cache
    stores, rendering), Water/LU and the congestion artifact.  One op is
    one artifact section of stdout.
    """

    name = "paper_all"
    uses_seed = True
    #: counts source lines, so every deletion changes it: runs and is timed,
    #: but only checked for being present
    UNDIGESTED = ("table1",)

    def setup(self, seed: int, workdir: str) -> None:
        from repro.experiments import cache, cli, registry, runner  # noqa: F401

        for spec in registry.specs():
            importlib.import_module(spec.module)
        self.cli = cli
        self.artifacts = list(registry.ARTIFACT_NAMES)
        self.argv = [
            "run", "all", "--iters", "5", "--jobs", "1", "--seed", str(seed),
            "--cache-dir", tempfile.mkdtemp(prefix="cache-", dir=workdir),
        ]

    def measure(self) -> dict[str, Any]:
        out, err = io.StringIO(), io.StringIO()
        rc: Any = None
        error = ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(self.argv)
            except Exception as exc:  # a failed op, not a crashed benchmark
                error = f"{type(exc).__name__}: {exc}"
        return {"stdout": out.getvalue(), "rc": rc, "error": error}

    @staticmethod
    def sections(stdout: str) -> dict[str, str]:
        """Split ``run all`` stdout at its ``=== name ===`` headers."""
        parts = re.split(r"^=== (\S+) ===$", stdout, flags=re.M)
        return {parts[i]: parts[i + 1] for i in range(1, len(parts) - 1, 2)}

    def fingerprints(self, result: dict[str, Any]) -> dict[str, str]:
        return {
            name: sha256(text)
            for name, text in self.sections(result["stdout"]).items()
            if name not in self.UNDIGESTED
        }

    def check(self, result: dict[str, Any], expected: dict[str, str]) -> Ops:
        sections = self.sections(result["stdout"])
        got = self.fingerprints(result)
        why_missing = result["error"] or f"cli exited {result['rc']}"
        ops: Ops = []
        for name in self.artifacts:
            if name not in sections:
                ops.append((name, False, f"no section in stdout ({why_missing})"))
            elif name in self.UNDIGESTED:
                ok = bool(sections[name].strip())
                ops.append((name, ok, "" if ok else "empty section"))
            elif name not in expected:
                ops.append((name, False, "no committed digest"))
            elif got[name] != expected[name]:
                ops.append((name, False, f"stdout sha256 {got[name][:12]} != committed {expected[name][:12]}"))
            else:
                ops.append((name, True, ""))
        return ops


class Em3d1024:
    """Split-C EM3D, bulk version, 1024 procs on a fat tree.

    2048-node degree-4 graph, 25% remote edges, 4 steps, no warm-up.
    Loads ``apps.em3d``, ``splitc``, AM bulk transfers and
    ``machine.topology``; uses no ``ccpp`` and almost no ``marshal``, so a
    CC++ change must show no change here.  One op is one EM3D run.
    """

    name = "em3d_1024"
    uses_seed = True
    STEPS = 4
    TOPOLOGY = "fattree:arity=16,fatness=4"

    def setup(self, seed: int, workdir: str) -> None:
        from repro.apps.em3d import (
            Em3dGraph,
            Em3dParams,
            reference_steps,
            run_splitc_em3d,
        )

        self.run_splitc_em3d = run_splitc_em3d
        self.graph = Em3dGraph(Em3dParams(
            n_nodes=2048, degree=4, n_procs=1024, pct_remote=0.25,
            seed=seed, chunked=True,
        ))
        self.reference = reference_steps(self.graph, self.STEPS).tobytes()

    def measure(self) -> dict[str, Any]:
        try:
            run = self.run_splitc_em3d(
                self.graph, steps=self.STEPS, version="bulk", warmup_steps=0,
                topology=self.TOPOLOGY,
            )
        except Exception as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}
        return {
            "error": "",
            "values": run.values.tobytes(),
            "elapsed_us": run.elapsed_us,
            "counters": dict(sorted(run.counters.items())),
        }

    def fingerprints(self, result: dict[str, Any]) -> dict[str, Any]:
        return {"elapsed_us": result["elapsed_us"], "counters": result["counters"]}

    def check(self, result: dict[str, Any], expected: dict[str, Any]) -> Ops:
        if result["error"]:
            reason = result["error"]
        elif result["values"] != self.reference:
            reason = "values differ bitwise from reference_steps"
        elif result["elapsed_us"] != expected["elapsed_us"]:
            reason = f"elapsed_us {result['elapsed_us']!r} != committed {expected['elapsed_us']!r}"
        elif result["counters"] != expected["counters"]:
            reason = f"counters {result['counters']} != committed {expected['counters']}"
        else:
            reason = ""
        return [("em3d", not reason, reason)]


class Table4Micro:
    """The Table 4 artifact at ``iters=1000``.

    A closed loop of short request/reply messages on a flat fabric: CC++
    RMI variants, Split-C GP/bulk/prefetch rows, and the AM and MPL round
    trips.  Loads ``sim.engine``, ``threads.scheduler``, ``ccpp.rmi``,
    ``marshal`` and the AM short path; no apps, no topology, almost no
    set-up.  Table 4 has no seed, so the seed is ignored.  One op is one
    rendered row.
    """

    name = "table4_micro"
    uses_seed = False
    ITERS = 1000

    def setup(self, seed: int, workdir: str) -> None:
        from repro.experiments import registry

        self.spec = registry.get("table4")
        self.spec.run_fn()  # import the artifact module

    def measure(self) -> dict[str, Any]:
        try:
            result = self.spec.run(iters=self.ITERS)
            rendered = self.spec.render(result)
        except Exception as exc:
            return {"error": f"{type(exc).__name__}: {exc}", "rows": {}}
        rows: dict[str, Any] = {}
        for line in rendered.splitlines():
            name = line.split("|")[0].strip()
            if "|" in line and name != "Benchmark":
                rows[name] = {"line": line}
        for name, row in result.cc.items():
            rows.setdefault(name, {})["cc"] = row.to_json()
        for name, row in result.sc.items():
            rows.setdefault(name, {})["sc"] = row.to_json()
        rows.setdefault("AM base RTT", {})["value"] = result.am_rtt_us
        rows.setdefault("IBM MPL RTT", {})["value"] = result.mpl_rtt_us
        return {"error": "", "rows": rows}

    def fingerprints(self, result: dict[str, Any]) -> dict[str, str]:
        """Per row: the rendered line plus every value at full precision."""
        return {
            name: sha256(json.dumps(row, sort_keys=True))
            for name, row in result["rows"].items()
        }

    def check(self, result: dict[str, Any], expected: dict[str, str]) -> Ops:
        got = self.fingerprints(result)
        ops: Ops = []
        for name, digest in expected.items():
            if name not in got:
                ops.append((name, False, result["error"] or "row missing"))
            elif got[name] != digest:
                ops.append((name, False, "row differs from committed digest"))
            else:
                ops.append((name, True, ""))
        for name in got.keys() - expected.keys():
            ops.append((name, False, "row has no committed digest"))
        return ops


WORKLOADS = {cls.name: cls for cls in (PaperAll, Em3d1024, Table4Micro)}


def workload_seed(name: str, seed: int) -> int | None:
    """The committed workload seed the driver's ``--seed`` selects."""
    return SEEDS[seed % len(SEEDS)] if WORKLOADS[name].uses_seed else None


def expected_for(expected: dict[str, Any], name: str, seed: int | None) -> Any:
    table = expected.get(name, {})
    return table.get(str(seed), {}) if seed is not None else table
