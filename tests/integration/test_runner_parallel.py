"""Integration: the process-pool runner, the orchestrating CLI, sweeps.

The headline guarantee: a parallel run is **byte-identical** to a serial
one — sharding and completion order are invisible in stdout — and a
second cached invocation renders without re-running any simulation.
"""

import io
import contextlib
import os
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.experiments import registry
from repro.experiments.cache import ResultCache
from repro.experiments.cli import main
from repro.experiments.registry import ExperimentSpec, ParamSpec
from repro.experiments.runner import Task, run_tasks, task_seed
from repro.experiments.sweep import grid_tasks, numeric_summary, sweep_csv


# --- a tiny spec the spawn workers can import by module path -------------

@dataclass
class TinyResult:
    value: int

    def render(self) -> str:
        return f"tiny value={self.value}"

    def to_json(self) -> dict:
        return {"value": self.value}

    @classmethod
    def from_json(cls, payload: dict) -> "TinyResult":
        return cls(**payload)


def run_tiny(*, value: int = 1) -> TinyResult:
    return TinyResult(value)


def run_crashy(*, marker: str = "") -> TinyResult:
    """Dies like a segfault on the first attempt; succeeds on the retry."""
    path = Path(marker)
    if path.exists():
        return TinyResult(0)
    path.write_text("attempted", encoding="utf-8")
    os._exit(3)


_HERE = "tests.integration.test_runner_parallel"
SNAPSHOTS = Path(__file__).resolve().parent / "snapshots"


def tiny_spec(name="tiny", entry="run_tiny", **extra) -> ExperimentSpec:
    return ExperimentSpec(
        name=name, title="tiny", module=_HERE, entry=entry,
        result_type="TinyResult",
        params=(ParamSpec("value", "int", 1),) if entry == "run_tiny"
        else (ParamSpec("marker", "str", ""),),
        **extra,
    )


def cli(argv, cache_dir, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    out = capsys.readouterr().out
    return rc, out, err.getvalue()


class TestRunner:
    def test_outcomes_in_input_order_despite_cost_order(self):
        tasks = [
            Task(tiny_spec(cost_hint=float(i)), {"value": i}, label=f"t{i}")
            for i in range(5)
        ]
        outcomes = run_tasks(tasks, jobs=2, progress=lambda m: None)
        assert [o.result.value for o in outcomes] == [0, 1, 2, 3, 4]
        assert all(o.source == "run" for o in outcomes)

    def test_parallel_equals_serial(self):
        tasks = [Task(tiny_spec(), {"value": i}) for i in range(4)]
        serial = run_tasks(tasks, jobs=1, progress=lambda m: None)
        parallel = run_tasks(tasks, jobs=3, progress=lambda m: None)
        assert [o.result for o in serial] == [o.result for o in parallel]

    def test_worker_crash_retries_once_inline(self, tmp_path):
        marker = tmp_path / "crash.marker"
        tasks = [
            Task(tiny_spec(), {"value": 7}),
            Task(tiny_spec("crashy", "run_crashy"), {"marker": str(marker)}),
        ]
        lines = []
        outcomes = run_tasks(tasks, jobs=2, progress=lines.append)
        assert marker.read_text() == "attempted"  # it really died once
        crashed = outcomes[1]
        assert crashed.result == TinyResult(0)
        assert crashed.source == "retry" and crashed.attempts == 2
        assert outcomes[0].result == TinyResult(7)
        assert any("crashed" in line for line in lines)

    def test_task_seed_deterministic_and_param_sensitive(self):
        spec = tiny_spec()
        assert task_seed(spec, {"value": 1}) == task_seed(spec, {"value": 1})
        assert task_seed(spec, {"value": 1}) != task_seed(spec, {"value": 2})

    def test_cache_skips_execution_and_refresh_reruns(self, tmp_path):
        cache = ResultCache(tmp_path, version="t")
        tasks = [Task(tiny_spec(), {"value": 3})]
        first = run_tasks(tasks, cache=cache, progress=lambda m: None)
        second = run_tasks(tasks, cache=cache, progress=lambda m: None)
        assert (first[0].source, second[0].source) == ("run", "cache")
        assert second[0].result == first[0].result
        refreshed = run_tasks(tasks, cache=cache, refresh=True, progress=lambda m: None)
        assert refreshed[0].source == "run"


class TestCli:
    def test_all_jobs4_byte_identical_to_serial(self, tmp_path, monkeypatch, capsys):
        """The acceptance check: quick `all` output does not depend on
        --jobs (merge order is canonical; timing goes to stderr)."""
        args = ["--iters", "3", "--no-cache"]
        rc1, serial, _ = cli(["run", "all"] + args, tmp_path, monkeypatch, capsys)
        rc2, parallel, err = cli(
            ["run", "all", "--jobs", "4"] + args, tmp_path, monkeypatch, capsys
        )
        assert rc1 == rc2 == 0
        assert serial == parallel
        for name in registry.ARTIFACT_NAMES:
            assert f"=== {name} ===" in serial

    def test_second_invocation_is_all_cache_hits(self, tmp_path, monkeypatch, capsys):
        rc1, out1, err1 = cli(
            ["run", "table4", "--iters", "3"], tmp_path, monkeypatch, capsys
        )
        rc2, out2, err2 = cli(
            ["run", "table4", "--iters", "3"], tmp_path, monkeypatch, capsys
        )
        assert rc1 == rc2 == 0 and out1 == out2
        assert "cache hit" not in err1
        assert "cache hit" in err2 and "(run)" not in err2

    def test_positional_form_removed(self, tmp_path, monkeypatch, capsys):
        """`repro-experiments <artifact>` without `run` is a usage error."""
        with pytest.raises(SystemExit) as exc:
            cli(["table1"], tmp_path, monkeypatch, capsys)
        assert exc.value.code == 2

    def test_scenario_flag_maps_to_param(self, tmp_path, monkeypatch, capsys):
        rc, out, _ = cli(
            ["run", "table4", "--iters", "3", "--scenario", "am-rtt"],
            tmp_path, monkeypatch, capsys,
        )
        assert rc == 0 and "AM base RTT" in out
        # only the requested scenario was measured; the rest render "-"
        unmeasured = [
            line for line in out.splitlines() if line.startswith("0-Word ")
        ]
        assert unmeasured
        for line in unmeasured:
            assert line.split("|")[1].strip() == "-"

    def test_scenario_rejected_uniformly_off_table4(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit):
            cli(
                ["run", "figure5", "--scenario", "am-rtt"],
                tmp_path, monkeypatch, capsys,
            )

    def test_unknown_param_rejected(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit):
            cli(["run", "scaling", "--param", "bogus=1"], tmp_path, monkeypatch, capsys)

    def test_rejects_unknown_artifact(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit):
            cli(["figure7"], tmp_path, monkeypatch, capsys)

    def test_list_shows_every_artifact_and_schema(self, tmp_path, monkeypatch, capsys):
        rc, out, _ = cli(["list"], tmp_path, monkeypatch, capsys)
        assert rc == 0
        for name in registry.ARTIFACT_NAMES:
            assert name in out
        assert "scenarios" in out and "drops" in out

    def test_out_dir_through_runner(self, tmp_path, monkeypatch, capsys):
        out_dir = tmp_path / "report"
        rc, out, _ = cli(
            ["run", "table4", "--iters", "3", "--out", str(out_dir), "--no-cache"],
            tmp_path, monkeypatch, capsys,
        )
        assert rc == 0
        assert (out_dir / "table4.txt").exists()
        assert (out_dir / "table4.csv").exists()

    @pytest.mark.parametrize("artifact, overrides", [
        ("table4", ["--iters", "3", "--scenario", "am-rtt"]),
        ("scaling", ["--param", "sizes=20"]),
    ])
    def test_out_dir_honours_overrides(
        self, artifact, overrides, tmp_path, monkeypatch, capsys
    ):
        """The file written under --out is the stdout section of the same
        run: --scenario / --param reach the writer too."""
        argv = ["run", artifact, *overrides, "--no-cache"]
        rc1, out, _ = cli(argv, tmp_path, monkeypatch, capsys)
        out_dir = tmp_path / "report"
        rc2, _, _ = cli(argv + ["--out", str(out_dir)], tmp_path, monkeypatch, capsys)
        assert rc1 == rc2 == 0
        section = out.split(f"=== {artifact} ===\n", 1)[1]
        written = (out_dir / f"{artifact}.txt").read_text(encoding="utf-8")
        assert written.rstrip("\n") == section.rstrip("\n")


class TestSweep:
    def test_grid_tasks_cartesian_order(self):
        spec = registry.get("faults")
        tasks = grid_tasks(
            spec, {"drops": [(0.0,), (0.1,)], "seeds": [(1,), (2,)]},
            {"iters": 2, "steps": 1},
        )
        labels = [t.label for t in tasks]
        assert labels == [
            "faults drops=0.0 seeds=1", "faults drops=0.0 seeds=2",
            "faults drops=0.1 seeds=1", "faults drops=0.1 seeds=2",
        ]
        assert all(t.params["iters"] == 2 for t in tasks)

    def test_grid_tasks_validates_points(self):
        with pytest.raises(Exception, match="no parameter"):
            grid_tasks(registry.get("scaling"), {"bogus": [1, 2]})

    def test_numeric_summary_flattens_pairs_and_skips_bools(self):
        payload = {
            "clean": 54.4,
            "cells": [[0.0, {"rtt": 60.0}], [0.1, {"rtt": 90.0}]],
            "ok": True,
            "name": "x",
        }
        summary = numeric_summary(payload)
        assert summary == {
            "clean": 54.4, "cells[0.0].rtt": 60.0, "cells[0.1].rtt": 90.0,
        }

    def test_sweep_cli_merged_csv(self, tmp_path, monkeypatch, capsys):
        csv_path = tmp_path / "sweep.csv"
        rc, out, _ = cli(
            ["sweep", "scaling", "--param", "sizes=20,200",
             "--csv", str(csv_path), "--no-cache"],
            tmp_path, monkeypatch, capsys,
        )
        assert rc == 0
        assert "--- scaling sizes=20 ---" in out
        assert "--- scaling sizes=200 ---" in out
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("sizes,")
        assert len(lines) == 3
        assert lines[1].startswith("20,") and lines[2].startswith("200,")

    def test_sweep_needs_an_axis(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit):
            cli(["sweep", "scaling"], tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("snapshot, argv", [
        ("sweep_scaling_sizes.txt", ["scaling", "--axis", "sizes=20,200"]),
        ("sweep_faults_drops.txt", [
            "faults", "--axis", "drops=0.0,0.01",
            "--param", "iters=3", "--param", "steps=1",
        ]),
    ])
    def test_sweep_stdout_matches_snapshot(
        self, snapshot, argv, jobs, tmp_path, monkeypatch, capsys
    ):
        """Byte-exact sweep stdout: every point's render, then the CSV."""
        rc, out, _ = cli(
            ["sweep", *argv, "--no-cache", "--jobs", jobs],
            tmp_path, monkeypatch, capsys,
        )
        assert rc == 0
        # read_bytes: the CSV rows end in \r\n, which read_text would fold
        assert out == (SNAPSHOTS / snapshot).read_bytes().decode("utf-8")

    def test_sweep_jobs_matches_serial(self, tmp_path, monkeypatch, capsys):
        argv = ["sweep", "scaling", "--param", "sizes=20,200", "--no-cache"]
        rc1, serial, _ = cli(argv, tmp_path, monkeypatch, capsys)
        rc2, parallel, _ = cli(argv + ["--jobs", "2"], tmp_path, monkeypatch, capsys)
        assert rc1 == rc2 == 0 and serial == parallel
