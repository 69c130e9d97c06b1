"""Command-line entry point: ``repro-experiments <command> ...``.

Subcommands::

    repro-experiments list                      # every artifact + its schema
    repro-experiments run <artifact|all> [...]  # regenerate artifacts
    repro-experiments sweep <artifact> --axis k=v1,v2 [...]   # grids

Also usable as ``python -m repro.experiments.cli``.

``run`` and ``sweep`` build a list of schema-validated tasks and hand it
to :func:`~repro.experiments.runner.run_tasks`.  ``--jobs N`` shards the
tasks across a spawn process pool and merges in input order, so stdout
is byte-identical to ``--jobs 1``.  Results are cached on disk by
(package version, artifact, params): ``--no-cache`` bypasses the cache,
``--refresh`` recomputes and overwrites.  ``run --out DIR`` writes the
same outcomes to files instead of stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any

from repro.experiments import registry
from repro.experiments.registry import ExperimentParamError


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the paper's full workload sizes (slower) instead of the "
        "reduced same-shape defaults",
    )
    parser.add_argument("--iters", type=int, default=50, help="micro-benchmark iterations")
    parser.add_argument("--seed", type=int, default=None, help="workload-generation seed")
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="K=V",
        help="artifact parameter override (repeatable); validated against "
        "the artifact's schema — see `repro-experiments list`",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run up to N experiments in parallel worker processes "
        "(0 = one per CPU); output is byte-identical to --jobs 1",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="neither read nor write the result cache"
    )
    parser.add_argument(
        "--refresh", action="store_true", help="recompute and overwrite cached results"
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-experiments)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of 'Evaluating the "
        "Performance Limitations of MPMD Communication' (SC'97).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list every artifact and its parameters")

    run = sub.add_parser("run", help="regenerate one artifact (or 'all')")
    run.add_argument(
        "artifact",
        choices=[*registry.ARTIFACT_NAMES, "all"],
        help="which paper artifact to regenerate",
    )
    _add_common_flags(run)
    run.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="shorthand for --param scenarios=...: measure just this "
        "micro-benchmark row (repeatable; a Table 4 name like '0-Word', "
        "or 'am-rtt' / 'mpl-rtt' for the raw-layer references)",
    )
    run.add_argument(
        "--out",
        metavar="DIR",
        help="write rendered artifacts (and CSVs) to this directory "
        "instead of stdout; for 'trace', a path ending in .json writes "
        "the Perfetto JSON directly to that file",
    )

    sweep = sub.add_parser(
        "sweep", help="run a parameter grid over one artifact"
    )
    sweep.add_argument(
        "artifact",
        choices=list(registry.ARTIFACT_NAMES),
        help="which artifact to sweep",
    )
    _add_common_flags(sweep)
    sweep.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="K=V1,V2",
        help="sweep axis (repeatable); every --param with multiple values "
        "is also an axis",
    )
    sweep.add_argument(
        "--csv", metavar="PATH", help="also write the merged sweep CSV here"
    )
    return parser


def _run(args: argparse.Namespace, tasks: list) -> list:
    """Run ``tasks`` with the orchestration flags (jobs, cache, refresh)."""
    from repro.experiments.runner import run_tasks

    cache = None
    if not args.no_cache:
        from repro.experiments.cache import ResultCache

        cache = ResultCache(args.cache_dir)
    jobs = (os.cpu_count() or 1) if args.jobs == 0 else args.jobs
    return run_tasks(tasks, jobs=jobs, cache=cache, refresh=args.refresh)


def _overrides(spec, args: argparse.Namespace) -> dict[str, Any]:
    """Standard flags + explicit --param overrides for one spec."""
    from repro.experiments.report import standard_overrides

    overrides = standard_overrides(
        spec,
        quick=False if args.full else None,
        iters=args.iters,
        seed=args.seed,
    )
    for item in args.param:
        if "=" not in item:
            raise ExperimentParamError(f"--param expects K=V, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key] = spec.param(key).parse(value)
    return overrides


def _cmd_list() -> int:
    from repro.util.tables import TextTable

    t = TextTable(
        ["artifact", "parameters", "cached", "title"],
        title="Experiments — `run <artifact>`, `sweep <artifact> --axis k=v1,v2`",
    )
    for spec in registry.specs():
        schema = ", ".join(
            f"{p.name}:{p.kind}={p.default}" for p in spec.params
        ) or "-"
        t.add_row([spec.name, schema, "yes" if spec.cacheable else "no", spec.title])
    print(t.render())
    return 0


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.experiments.runner import Task

    names = list(registry.ARTIFACT_NAMES) if args.artifact == "all" else [args.artifact]
    if args.scenario:
        args.param = args.param + ["scenarios=" + ",".join(args.scenario)]
    try:
        tasks = [
            Task(spec, spec.validate(_overrides(spec, args)))
            for spec in map(registry.get, names)
        ]
    except ExperimentParamError as exc:
        parser.error(str(exc))

    outcomes = _run(args, tasks)
    if args.artifact == "trace" and args.out and args.out.endswith(".json"):
        # `trace --out x.json`: the Perfetto JSON straight to the named
        # file (open it at ui.perfetto.dev)
        (outcome,) = outcomes
        print(outcome.task.spec.render(outcome.result))
        print(f"wrote {outcome.result.write(args.out)}")
    elif args.out:
        from repro.experiments.report import write_results

        for path in write_results(args.out, outcomes):
            print(f"wrote {path}")
    else:
        for outcome in outcomes:
            print(f"=== {outcome.task.spec.name} ===")
            print(outcome.task.spec.render(outcome.result))
            print()
    return 0


def _cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.experiments.sweep import grid_tasks, render_sweep, sweep_csv

    spec = registry.get(args.artifact)
    try:
        axes: dict[str, list[Any]] = {}
        fixed_params: list[str] = []
        for item in args.axis + args.param:
            if "=" not in item:
                raise ExperimentParamError(f"expected K=V1,V2,..., got {item!r}")
            key, _, value = item.partition("=")
            values = spec.param(key).parse_axis(value)
            if len(values) > 1 or item in args.axis:
                axes[key] = values
            else:
                fixed_params.append(item)
        args.param = fixed_params
        fixed = _overrides(spec, args)
        if not axes:
            raise ExperimentParamError(
                "a sweep needs at least one multi-valued --axis/--param"
            )
        tasks = grid_tasks(spec, axes, fixed)
    except ExperimentParamError as exc:
        parser.error(str(exc))

    outcomes = _run(args, tasks)
    print(render_sweep(spec, axes, outcomes))
    text = sweep_csv(axes, outcomes)
    print()
    print(text, end="")
    if args.csv:
        from pathlib import Path

        path = Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args, parser)
        return _cmd_sweep(args, parser)
    except BrokenPipeError:
        # stdout went away (e.g. `run all | head`); exit quietly with
        # the conventional SIGPIPE status
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
