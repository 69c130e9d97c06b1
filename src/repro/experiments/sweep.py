"""Parameter-grid sweeps over one experiment.

``repro-experiments sweep <artifact> --param k=v1,v2 --param j=w`` runs
the cartesian product of every multi-valued axis (single-valued params
are fixed), one task per grid point, through the same process-pool
runner and result cache as ``run`` — so ``--jobs`` shards points across
workers and a re-sweep after changing one axis only recomputes the new
cells.

Grid order is deterministic: axes vary in the order given, last axis
fastest (``itertools.product``).  The merged output is one rendered
section per point plus a single CSV whose columns are the axis values
followed by the numeric summary of each result (scalar number fields of
the result's ``to_json()`` payload, flattened depth-first with dotted
names) — enough to plot any sweep without artifact-specific glue.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections.abc import Mapping, Sequence
from typing import Any

from repro.experiments.registry import ExperimentSpec
from repro.experiments.runner import Task, TaskOutcome

__all__ = [
    "grid_tasks",
    "sweep_csv",
    "render_sweep",
    "numeric_summary",
]

#: cap on auto-derived summary columns, so a sweep CSV stays readable
_MAX_SUMMARY_COLUMNS = 48


def grid_tasks(
    spec: ExperimentSpec,
    axes: Mapping[str, Sequence[Any]],
    fixed: Mapping[str, Any] | None = None,
) -> list[Task]:
    """One validated task per grid point of ``axes`` (fixed params merged
    into every point)."""
    if not axes:
        raise ValueError("a sweep needs at least one --param axis")
    names = list(axes)
    tasks = []
    for combo in itertools.product(*(axes[n] for n in names)):
        point = dict(fixed or {})
        point.update(zip(names, combo))
        params = spec.validate(point)
        label = " ".join(f"{n}={_fmt(v)}" for n, v in zip(names, combo))
        tasks.append(Task(spec, params, label=f"{spec.name} {label}"))
    return tasks


def _fmt(value: Any) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def numeric_summary(payload: Any, prefix: str = "") -> dict[str, float]:
    """Scalar numbers of a ``to_json()`` payload, flattened depth-first
    with dotted names.  Pair lists (the tuple-keyed-map encoding) get
    their key joined into the name; plain lists are indexed."""
    out: dict[str, float] = {}

    def walk(node: Any, name: str) -> None:
        if len(out) >= _MAX_SUMMARY_COLUMNS:
            return
        if isinstance(node, bool):
            return
        if isinstance(node, (int, float)):
            out[name] = float(node)
        elif isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{name}.{k}" if name else str(k))
        elif isinstance(node, list):
            if all(
                isinstance(e, list) and len(e) == 2 for e in node
            ) and node:
                for key, value in node:
                    part = (
                        ",".join(str(p) for p in key)
                        if isinstance(key, list)
                        else str(key)
                    )
                    walk(value, f"{name}[{part}]" if name else part)
            else:
                for idx, e in enumerate(node):
                    walk(e, f"{name}[{idx}]" if name else str(idx))

    walk(payload, prefix)
    return out


def _summaries(outcomes: Sequence[TaskOutcome]) -> list[dict[str, float]]:
    rows = []
    for o in outcomes:
        if hasattr(o.result, "to_json"):
            rows.append(numeric_summary(o.result.to_json()))
        else:
            rows.append({})
    return rows


def sweep_csv(
    axes: Mapping[str, Sequence[Any]], outcomes: Sequence[TaskOutcome]
) -> str:
    """The merged sweep table: axis columns, then the union of every
    point's numeric-summary columns (first-seen order)."""
    names = list(axes)
    summaries = _summaries(outcomes)
    columns: list[str] = []
    for row in summaries:
        for key in row:
            if key not in columns:
                columns.append(key)
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(names + columns)
    for outcome, row in zip(outcomes, summaries):
        w.writerow(
            [_fmt(outcome.task.params[n]) for n in names]
            + [("" if key not in row else f"{row[key]:g}") for key in columns]
        )
    return out.getvalue()


def render_sweep(
    spec: ExperimentSpec,
    axes: Mapping[str, Sequence[Any]],
    outcomes: Sequence[TaskOutcome],
) -> str:
    """Every point's render under a parameter header, in grid order."""
    return "\n\n".join(
        f"--- {o.task.label} ---\n{spec.render(o.result)}" for o in outcomes
    )
