#!/usr/bin/env python
"""Lint: the experiment registry is complete and documented.

Two invariants (docs/ORCHESTRATION.md):

* registration is unique — one registry entry per experiment id (a
  duplicate ``@register`` raises at import, which this lint surfaces as
  a problem instead of a stack trace);
* ``EXPERIMENTS.md``'s "Experiment index" table lists exactly the
  registered names, so ``python -m repro.orchestrate list`` and the docs
  cannot drift.

Runs standalone (``python scripts/check_experiment_registry.py``), inside
``scripts/lint.py``, and inside tier-1 (``tests/test_lint.py``).
"""

from __future__ import annotations

import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

INDEX_HEADING = "## Experiment index"


def documented_names(experiments_md: str | None = None) -> list[str]:
    """Experiment ids listed in EXPERIMENTS.md's index table."""
    if experiments_md is None:
        experiments_md = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    if INDEX_HEADING not in experiments_md:
        return []
    section = experiments_md.split(INDEX_HEADING, 1)[1]
    # Stop at the next heading; collect the first table column's code spans.
    section = re.split(r"\n## ", section, 1)[0]
    names = []
    for line in section.splitlines():
        match = re.match(r"\|\s*`([a-z0-9_]+)`\s*\|", line)
        if match:
            names.append(match.group(1))
    return names


def check(experiments_md: str | None = None) -> list[str]:
    """Return one problem string per registry/docs invariant violation."""
    problems = []
    try:
        from repro.orchestrate import registry

        registered = set(registry())
    except ValueError as exc:  # duplicate @register raises ValueError
        return [f"experiment registry failed to build: {exc}"]

    if experiments_md is None and not (REPO_ROOT / "EXPERIMENTS.md").is_file():
        problems.append("EXPERIMENTS.md is missing")
        return problems
    documented = documented_names(experiments_md)
    if not documented:
        problems.append(
            f"EXPERIMENTS.md has no {INDEX_HEADING!r} table; document every "
            "registered experiment there"
        )
        return problems
    counts = {name: documented.count(name) for name in documented}
    for name, count in sorted(counts.items()):
        if count > 1:
            problems.append(
                f"EXPERIMENTS.md index lists {name!r} {count} times; every "
                "experiment must appear exactly once"
            )
    for name in sorted(registered - set(documented)):
        problems.append(
            f"experiment {name!r} is registered but missing from "
            "EXPERIMENTS.md's index table"
        )
    for name in sorted(set(documented) - registered):
        problems.append(
            f"EXPERIMENTS.md index lists {name!r} but no such experiment is "
            "registered (python -m repro.orchestrate list)"
        )
    return problems


def main() -> int:
    problems = check()
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} experiment-registry problem(s)")
        return 1
    print("experiment registry: registered ids and EXPERIMENTS.md index agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
