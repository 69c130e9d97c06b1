"""Report generation: rendered artifacts to a directory.

``write_results(out_dir, outcomes)`` writes what a run produced: the
human-readable render of each outcome (``.txt``), plus, where defined,
the machine-readable CSV (``.csv``) and the Perfetto trace JSON.
``repro-experiments run ... --out DIR`` calls it with the outcomes of
its own validated tasks, so the files match the run's stdout.

``write_all(out_dir)`` is the one-call form: it builds the standard
task of each artifact, runs them through the process-pool runner (same
``jobs``/``cache`` controls as the CLI) and writes the outcomes.  File
contents depend only on the results, never on scheduling, so a
``jobs=4`` report is byte-identical to a serial one.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path
from typing import Any, Callable

from repro.experiments import export, registry
from repro.experiments.cache import ResultCache
from repro.experiments.runner import Task, TaskOutcome, run_tasks

__all__ = ["write_all", "write_results", "ARTIFACTS", "standard_overrides"]

#: report names in canonical order (the historical file stems)
ARTIFACTS = (
    "table1",
    "table4",
    "figure5",
    "figure6",
    "nexus_compare",
    "ablations",
    "faults",
    "scaling",
    "scorecard",
    "metrics",
    "congestion",
    "rma",
    "trace",
)

#: report/CLI aliases -> registry names
_ALIASES = {"nexus_compare": "nexus"}


def standard_overrides(
    spec: registry.ExperimentSpec,
    *,
    quick: bool | None = None,
    iters: int | None = None,
    seed: int | None = None,
) -> dict[str, Any]:
    """The standard parameters, filtered to what ``spec`` declares."""
    overrides: dict[str, Any] = {}
    for name, value in (("quick", quick), ("iters", iters), ("seed", seed)):
        if value is not None and spec.has_param(name):
            overrides[name] = value
    return overrides


def _write_text(out: Path, name: str, text: str, written: list[Path]) -> None:
    path = out / name
    path.write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")
    written.append(path)


def _csv_writers() -> dict[str, Callable[[Any], str]]:
    return {
        "table4": export.table4_csv,
        "figure5": export.figure5_csv,
        "figure6": export.figure6_csv,
        "metrics": lambda result: result.csv(),
        "congestion": lambda result: result.csv(),
        "rma": lambda result: result.csv(),
    }


def write_results(
    out_dir: str | Path, outcomes: Sequence[TaskOutcome]
) -> list[Path]:
    """Write each outcome's render (and CSV/trace) into ``out_dir``;
    returns written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_writers = _csv_writers()
    written: list[Path] = []
    for outcome in outcomes:
        spec, result = outcome.task.spec, outcome.result
        if spec.name == "trace":
            _write_text(out, "trace_summary.txt", spec.render(result), written)
            written.append(result.write(out / "trace.json"))
            continue
        _write_text(out, f"{spec.file_stem}.txt", spec.render(result), written)
        if spec.name in csv_writers:
            _write_text(
                out, f"{spec.file_stem}.csv", csv_writers[spec.name](result), written
            )
    return written


def write_all(
    out_dir: str | Path,
    *,
    quick: bool = True,
    iters: int = 50,
    artifacts: tuple[str, ...] = ARTIFACTS,
    jobs: int = 1,
    cache: ResultCache | None = None,
    refresh: bool = False,
) -> list[Path]:
    """Regenerate ``artifacts`` into ``out_dir``; returns written paths."""
    specs = [registry.get(_ALIASES.get(name, name)) for name in artifacts]
    tasks = [
        Task(spec, spec.validate(standard_overrides(spec, quick=quick, iters=iters)))
        for spec in specs
    ]
    outcomes = run_tasks(tasks, jobs=jobs, cache=cache, refresh=refresh)
    return write_results(out_dir, outcomes)
