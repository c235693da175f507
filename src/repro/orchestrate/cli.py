"""The execution flags every experiment-running CLI shares.

``python -m repro.experiments``, ``python -m repro.orchestrate run`` and
``python -m repro.workgen grid`` all take ``--jobs``, ``--cache-dir``,
``--no-cache``, ``--sample`` and ``--engine`` (docs/PARALLEL.md).
:func:`add_execution_args` declares them once and
:func:`execution_options` turns them into the keyword arguments
``Experiment.run_inline`` and ``execute_run`` accept. :func:`print_cell`
and :func:`print_summary` render an ``execute_run`` for ``run`` and the
``sweep`` alias.
"""

from __future__ import annotations

import argparse
import sys


def _sample_spec(text: str) -> str:
    """``--sample`` type: a spec ``repro.sampling.parse_sample`` accepts."""
    from ..sampling import parse_sample

    try:
        parse_sample(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def add_execution_args(parser) -> None:
    """Add the ``execution options`` argument group to ``parser``."""
    group = parser.add_argument_group("execution options (docs/PARALLEL.md)")
    group.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for simulation cells (default: 1, in-process)",
    )
    group.add_argument(
        "--cache-dir", default=".repro_cache", metavar="DIR",
        help="content-addressed result cache directory (default: .repro_cache)",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache (always re-simulate)",
    )
    group.add_argument(
        "--sample", type=_sample_spec, default=None, metavar="SPEC",
        help="sampled simulation: off | smarts:<detail>/<period> | "
        "simpoint:<k>[/<interval>] (docs/SAMPLING.md; default: off)",
    )
    group.add_argument(
        "--engine", choices=("obj", "array"), default=None,
        help="cycle-model implementation for every cell (docs/ENGINE.md); "
        "default: REPRO_ENGINE env var, then 'array' -- results are identical",
    )


def execution_options(args) -> dict:
    """``jobs``/``cache``/``sample``/``engine`` from parsed flags.

    ``sample`` stays ``None`` when ``--sample`` was not given, which
    ``execute_run`` reads as "off" for a new run and as "the recorded
    spec" when it rebuilds a run from its manifest.
    """
    from ..parallel.cache import ResultCache

    return {
        "jobs": args.jobs,
        "cache": None if args.no_cache else ResultCache(args.cache_dir),
        "sample": args.sample,
        "engine": args.engine,
    }


def print_cell(key, result) -> None:
    """Progress line per resolved cell (``run`` and the ``sweep`` alias)."""
    cached = " (cached)" if result.from_cache else ""
    print(f"  {result.spec.label()}: {result.status}{cached}", flush=True)


def print_summary(summary: dict, *, markdown: bool, aggregate: bool) -> int:
    """Print a finished run's tables; exit status 1 if any cell failed."""
    print(f"run dir: {summary['run_dir']}")
    figure = summary["figure"]
    if figure is not None:
        print(figure.to_markdown() if markdown else figure.to_text())
    table = summary["aggregate"]
    if table is not None and (aggregate or figure is None):
        print(table.to_markdown() if markdown else table.to_text())
    if summary["failed"]:
        print(f"{summary['failed']} cell(s) failed; see "
              f"{summary['run_dir']}/report.md", file=sys.stderr)
        return 1
    return 0
