"""The repository benchmark: host cost of real experiment runs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fdo_sweep --seed 0 --seconds 30 --trace 0

Each measured run is one cold ``execute_run`` of the workload's experiment
plan (see ``plans.py``) in a fresh interpreter (``coldrun.py``), followed by
a warm re-check against the same cache. Runs repeat until ``--seconds`` is
spent; timings are medians over the runs. Every cell's result digest is
checked against the committed table in ``golden/<workload>.json``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced runs and prints the per-layer metrics, taken from the
traced runs' spans (``spans.py``), plus the tracing overhead. The last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (cells) and ``metrics``.

``--record-golden`` runs the workload once at the seed's variant and writes
its digests into the golden table instead of measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import plans
import spans

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"
#: Extra set-up-only interpreters started so set-up has at least this many
#: samples even when few runs fit in ``--seconds``.
MIN_SETUP_SAMPLES = 7
#: Child runs that exceed this are killed (the whole benchmark must end
#: within 180 s).
CHILD_TIMEOUT_S = 120

#: Per-layer metrics that are counts of work: they must repeat exactly.
COUNT_METRICS = frozenset({
    "core.fdo_calls", "core.profile_calls", "core.profile_unique",
    "core.slice_calls", "sim.simulate_calls", "uarch.sim_cycles",
    "uarch.retired", "workloads.build_calls", "workloads.build_unique",
    "isa.emulate_calls", "isa.dyn_insts", "multicore.core_cycles",
    "memory.shared.xcore_evictions", "memory.shared.bus_stall_cycles",
    "parallel.cell_s.count", "parallel.cells_executed", "parallel.retries",
    "parallel.failed", "orchestrate.store_calls",
})

UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "sim_kips": "kinst/s",
         "peak_rss_mb": "MiB"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name in COUNT_METRICS:
        return "count"
    if name.endswith("_pct"):
        return "%"
    if ".ns_per_" in name:
        return "ns/cycle"
    if name.endswith("_frac") or "hit_ratio" in name:
        return "frac"
    return "s"


class Checkout:
    """The checkout the benchmark runs in, and the environment it gives
    every child interpreter."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        if not (self.src / "repro" / "__init__.py").is_file():
            raise SystemExit(
                f"perfbench: no repro package under {self.src}; run from the "
                "root of a full checkout")
        self.env = dict(os.environ)
        # Measure the default engine chain as users get it.
        self.env.pop("REPRO_ENGINE", None)
        self.env["PYTHONPATH"] = str(self.src)
        self.work_root = root / ".perfbench_tmp"
        self.out_dir = root / ".perfbench_out"

    def provenance(self) -> dict:
        commit = "unknown"
        if (self.root / ".git").exists():
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=self.root, env=self.env,
                capture_output=True, text=True, check=False)
            commit = done.stdout.strip() or commit
        digest = hashlib.sha256()
        for path in sorted(self.src.rglob("*.py")):
            digest.update(str(path.relative_to(self.src)).encode())
            digest.update(path.read_bytes())
        return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
                "python": platform.python_version(), "nproc": os.cpu_count()}

    def child(self, workload: str, variant: str, *, trace: bool = False,
              setup_only: bool = False) -> dict:
        """Run ``coldrun.py`` once; returns its record plus ``setup_s``."""
        self.work_root.mkdir(exist_ok=True)
        work_dir = tempfile.mkdtemp(dir=self.work_root)
        try:
            out = os.path.join(work_dir, "result.json")
            argv = [sys.executable, str(BENCH_DIR / "coldrun.py"),
                    "--workload", workload, "--variant", variant,
                    "--work-dir", work_dir, "--out", out]
            if trace:
                argv.append("--trace")
            if setup_only:
                argv.append("--setup-only")
            spawned = time.monotonic()
            # Its own process group, so a hung run is killed with its pool workers.
            child = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                     start_new_session=True)
            try:
                code = child.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    os.killpg(child.pid, signal.SIGKILL)
                    child.wait()
            if code != 0:
                raise RuntimeError(
                    f"coldrun.py exited with {code} ({workload}, {variant})")
            with open(out) as handle:
                record = json.load(handle)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        record["setup_s"] = record["ready"] - spawned
        return record


# -- checking --------------------------------------------------------------------

def load_golden(workload: str, variant: str) -> dict:
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.is_file():
        raise SystemExit(f"perfbench: golden table {path} is missing")
    with open(path) as handle:
        table = json.load(handle)
    if variant not in table:
        raise SystemExit(f"perfbench: {path} has no digests for {variant!r}")
    return table[variant]


def check_run(record: dict, golden: dict, tag: str) -> int:
    """Failed cells of one run; prints each with its label.

    A cell fails when it did not complete, its digest differs from the
    golden table, or the warm re-check returned a different digest.
    """
    failed = 0
    for label in sorted(set(golden) | set(record["digests"])):
        want = golden.get(label)
        cold = record["digests"].get(label)
        warm = record["warm_digests"].get(label)
        problem = None
        if cold is None:
            problem = "failed or missing"
        elif want is None:
            problem = "not in the golden table"
        elif cold != want:
            problem = f"digest {cold[:12]} != golden {want[:12]}"
        elif warm != cold:
            problem = f"warm re-check digest {str(warm)[:12]} != cold {cold[:12]}"
        if problem:
            failed += 1
            print(f"MISMATCH {tag}: {label}: {problem}")
    if record["warm_hit_ratio"] != 1.0:
        print(f"MISMATCH {tag}: warm re-check hit ratio "
              f"{record['warm_hit_ratio']:.3f} (want 1.0)")
    return failed


# -- measuring -------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def measure(checkout: Checkout, workload: str, variant: str, seconds: float,
            traced: bool):
    """Repeat runs until ``seconds`` are spent; returns (untraced runs,
    traced runs, set-up samples).

    Another run starts while it is expected to end no more than half a run
    past the deadline. There are at least two untraced runs, and a traced
    measurement has at least one traced run.
    """
    # Compile bytecode and fill the page cache before anything is timed.
    checkout.child(workload, variant, setup_only=True)
    start = time.monotonic()
    runs, traced_runs, setups, lengths = [], [], [], []
    while True:
        trace_this = traced and len(traced_runs) < len(runs)
        began = time.monotonic()
        record = checkout.child(workload, variant, trace=trace_this)
        lengths.append(time.monotonic() - began)
        (traced_runs if trace_this else runs).append(record)
        setups.append(record["setup_s"])
        enough = len(runs) >= 2 and (not traced or traced_runs)
        left = seconds - (time.monotonic() - start)
        if enough and left < _median(lengths) / 2:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(checkout.child(workload, variant, setup_only=True)["setup_s"])
    return runs, traced_runs, setups


def end_to_end(runs: list[dict], setups: list[float]) -> dict:
    return {
        "wall_s": _median([r["wall_s"] for r in runs]),
        "setup_s": _median(setups),
        "cpu_s": _median([r["cpu_s"] for r in runs]),
        "sim_kips": _median([r["retired"] / 1000.0 / r["wall_s"] for r in runs]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in runs]),
    }


def per_layer(runs: list[dict], traced_runs: list[dict], failed_frac: float) -> dict:
    names = traced_runs[0]["layers"].keys()
    metrics = {name: _median([r["layers"][name] for r in traced_runs])
               for name in names}
    for name in sorted(COUNT_METRICS & set(names)):
        values = {r["layers"][name] for r in traced_runs}
        if len(values) > 1:
            print(f"WARNING: count {name} differs between traced runs: "
                  f"{sorted(values)}")
    untraced = _median([r["wall_s"] for r in runs])
    traced = _median([r["wall_s"] for r in traced_runs])
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    metrics["cells_failed_frac"] = failed_frac
    return metrics


def _print_spread(name: str, values: list[float]) -> None:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
        print(f"  {name:<12} median {q2:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
              f"n={len(values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(plans.PLANS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    checkout = Checkout(Path.cwd())
    variant = plans.variant_for_seed(args.seed)

    if args.record_golden:
        return record_golden(checkout, args.workload, variant)

    golden = load_golden(args.workload, variant)
    provenance = checkout.provenance()
    try:
        runs, traced_runs, setups = measure(
            checkout, args.workload, variant, args.seconds, bool(args.trace))
    finally:
        with contextlib.suppress(OSError):
            checkout.work_root.rmdir()

    attempted = failed = 0
    for index, record in enumerate(runs + traced_runs):
        attempted += record["cells"]
        failed += check_run(record, golden, f"{args.workload} run {index}")
    warm_ok = all(r["warm_hit_ratio"] == 1.0 for r in runs + traced_runs)
    engines = sorted({r["engine"] for r in runs + traced_runs})
    provenance.update(engine=",".join(engines), jobs=runs[0]["jobs"],
                      workload=args.workload, seed=args.seed, variant=variant)
    if traced_runs:
        # The cycle-model classes the traced runs actually drove.
        provenance["pipelines"] = ",".join(sorted({
            s["engine"] for r in traced_runs for s in r["spans"]
            if s["name"] == "uarch.run"})) or "none"
    print("provenance: " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    print(f"runs: {len(runs)} untraced, {len(traced_runs)} traced; "
          f"{attempted} cells checked, {failed} failed")
    _print_spread("wall_s", [r["wall_s"] for r in runs])
    _print_spread("setup_s", setups)

    if args.trace:
        metrics = per_layer(runs, traced_runs, failed / attempted)
    else:
        metrics = end_to_end(runs, setups)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {_unit(name)}")
    if traced_runs:
        print("span self time, last traced run, summed over all processes:")
        for name, calls, inclusive, own in spans.self_time_table(
                traced_runs[-1]["spans"]):
            print(f"  {name:<28} calls {calls:>5}  inclusive {inclusive:9.3f} s"
                  f"  self {own:9.3f} s")

    checkout.out_dir.mkdir(exist_ok=True)
    report = checkout.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(report, "w") as handle:
        json.dump({"provenance": provenance, "metrics": metrics,
                   "setup_s": setups,
                   "runs": [_brief(r) for r in runs],
                   "traced_runs": [_brief(r) for r in traced_runs],
                   "spans": traced_runs[-1]["spans"] if traced_runs else []},
                  handle)
    print(f"report: {report.relative_to(checkout.root)}")
    print(json.dumps({
        "correct": failed == 0 and warm_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def _brief(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "spans"}


def record_golden(checkout: Checkout, workload: str, variant: str) -> int:
    """Run once and store the variant's digests in the golden table."""
    record = checkout.child(workload, variant)
    missing = [label for label, d in record["digests"].items() if d is None]
    if missing or record["warm_digests"] != record["digests"]:
        print(f"perfbench: not recording; failed cells {missing} or warm "
              "re-check differs", file=sys.stderr)
        return 1
    path = GOLDEN_DIR / f"{workload}.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    table[variant] = record["digests"]
    GOLDEN_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record['digests'])} digests for {workload}/{variant}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
