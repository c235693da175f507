"""CLI: ``python -m repro.experiments <id> [--scale S] [--jobs N] ...``.

Every id runs as its registered experiment's ``run_inline`` with the
shared execution flags (docs/PARALLEL.md): ``--jobs`` fans simulation
cells out over a process pool, ``--cache-dir`` points at the
content-addressed result cache (default ``.repro_cache``; re-running an
experiment re-simulates only changed cells), ``--no-cache`` disables it,
``--sample`` runs cells through the sampled estimator, and
``--engine=obj|array`` picks the cycle-model implementation
(docs/ENGINE.md; digest-identical results).

``sweep`` is an alias for the ``suite`` matrix run into an orchestrate
run directory (``python -m repro.orchestrate run --experiment suite``),
plus the sweep's retry-policy and per-cell knobs (docs/RESILIENCE.md).
"""

from __future__ import annotations

import argparse
import sys
import time

from ..orchestrate.cli import (
    add_execution_args,
    execution_options,
    print_cell,
    print_summary,
)
from . import figure_names


def run_sweep(args, options: dict) -> int:
    """The suite matrix through ``execute_run``, resumable by run dir."""
    from ..orchestrate.experiment import SuiteMatrix
    from ..orchestrate.rundir import RunIdentityError
    from ..orchestrate.runs import execute_run
    from ..resilience.policy import RetryPolicy

    experiment = SuiteMatrix(
        scale=args.scale,
        workloads=args.workloads.split(",") if args.workloads else None,
        modes=tuple(args.modes.split(",")),
    )
    try:
        summary = execute_run(
            experiment,
            out=args.out,
            run_dir=args.run_dir,
            resume=args.resume,
            **options,
            policy=RetryPolicy(retries=args.retries,
                               backoff_base=args.retry_backoff,
                               deadline=args.deadline),
            cycle_budget=args.cycle_budget,
            invariants=args.invariants,
            crash_dir=args.crash_dir,
            on_cell=print_cell,
        )
    except (RunIdentityError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    status = print_summary(summary, markdown=args.markdown, aggregate=False)
    cache = options["cache"]
    if cache is not None:
        stats = cache.stats
        print(f"cache: {stats.hits} hits / {stats.misses} misses "
              f"({stats.hit_rate:.0%} hit rate), {stats.stores} stored")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=figure_names() + ["all", "sweep"],
        help="experiment id (paper table/figure), 'all', or 'sweep' "
        "(resumable suite sweep; docs/RESILIENCE.md)",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="workload scale factor")
    parser.add_argument(
        "--workloads",
        type=str,
        default="",
        help="comma-separated workload subset (default: full suite)",
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="print markdown tables instead of aligned text",
    )
    add_execution_args(parser)
    sweep = parser.add_argument_group("sweep options")
    sweep.add_argument(
        "--out", default="runs", metavar="DIR",
        help="root of run directories for 'sweep' (default: runs)",
    )
    sweep.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="explicit run directory for 'sweep' "
        "(default: allocate <out>/suite/run-NNN)",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="resume 'sweep' from the latest (or --run-dir) run directory, "
        "re-running only missing or failed cells",
    )
    sweep.add_argument(
        "--modes", default="ooo,crisp",
        help="comma-separated modes for 'sweep' (default: ooo,crisp)",
    )
    sweep.add_argument(
        "--retries", type=int, default=1,
        help="retry budget for transient per-cell failures (default: 1)",
    )
    sweep.add_argument(
        "--retry-backoff", type=float, default=0.0, metavar="SECONDS",
        help="base delay before the first retry; doubles per retry with "
        "deterministic seeded jitter (docs/RESILIENCE.md; default: 0, "
        "retry immediately)",
    )
    sweep.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for one cell's attempts: stop retrying a "
        "cell once this much time has been spent on it (default: none)",
    )
    sweep.add_argument(
        "--cycle-budget", type=int, default=None, metavar="CYCLES",
        help="simulated-cycle budget per sweep cell (deterministic timeout; "
        "works in pool workers and off the main thread)",
    )
    sweep.add_argument(
        "--invariants", choices=("off", "periodic", "full"), default="off",
        help="invariant audit cadence for sweep cells",
    )
    sweep.add_argument(
        "--crash-dir", default=None, metavar="DIR",
        help="write crash bundles for failed sweep cells to DIR",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    options = execution_options(args)
    if args.experiment == "sweep":
        return run_sweep(args, options)

    from ..orchestrate.experiment import get_experiment

    names = [args.experiment] if args.experiment != "all" else figure_names()
    for name in names:
        cls = get_experiment(name)
        kwargs = {"scale": args.scale}
        if args.workloads and not (args.experiment == "all" and cls.fixed_workloads):
            kwargs["workloads"] = args.workloads.split(",")
        try:
            experiment = cls(**kwargs)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        start = time.time()
        result = experiment.run_inline(**options)
        print(result.to_markdown() if args.markdown else result.to_text())
        print(f"[{name} took {time.time() - start:.0f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
