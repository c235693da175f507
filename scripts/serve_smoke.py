#!/usr/bin/env python
"""Smoke test for the job server: start, submit, verify, SIGTERM-drain.

Starts ``python -m repro.serve`` as a real subprocess on a UNIX socket,
submits one cell through the client, asserts the result arrives with a
plausible IPC, then delivers SIGTERM with a bulk sweep still in flight
and asserts the server drains gracefully: exit code 0 and a "drained"
farewell on stdout. If the sweep was still unfinished, its drained run
directory must record the ``suite`` experiment and its full identity,
hold only planned cells, and complete under
``python -m repro.orchestrate run --resume --run-dir <dir>``.

Run by CI (the ``serve-smoke`` job) and by
``tests/serve/test_server.py``; exits 0 and prints ``SMOKE OK`` on
success.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.client import ServeClient  # noqa: E402


def wait_for(predicate, *, timeout: float, what: str):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise SystemExit(f"smoke FAILED: timed out waiting for {what}")
        time.sleep(0.1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: a fresh tempdir)")
    parser.add_argument("--scale", type=float, default=0.05)
    args = parser.parse_args()
    workdir = pathlib.Path(args.workdir or tempfile.mkdtemp(prefix="serve-smoke-"))
    workdir.mkdir(parents=True, exist_ok=True)
    socket_path = str(workdir / "serve.sock")
    drain_dir = str(workdir / "drain")

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serve",
         "--socket", socket_path,
         "--jobs", "2",
         "--cache-dir", str(workdir / "cache"),
         "--drain-dir", drain_dir,
         "--drain-timeout", "5"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        wait_for(lambda: os.path.exists(socket_path),
                 timeout=30, what="the server socket")

        with ServeClient(socket_path=socket_path) as client:
            health = client.health()
            assert health["status"] == "serving", health

            # One interactive cell, end to end.
            job = client.submit([{"workload": "pointer_chase", "mode": "ooo",
                                  "scale": args.scale}])
            done = client.wait(job["job"], timeout=120)
            assert done["state"] == "done", done
            (row,) = done["results"]
            assert row["status"] == "done" and row["ipc"] > 0, row
            print(f"cell ok: ipc={row['ipc']:.4f}")

            # A bulk sweep left in flight for the drain to checkpoint.
            sweep = client.sweep(
                ["pointer_chase", "div_chain", "mcf"], ["ooo", "crisp"],
                scale=args.scale)
            print(f"sweep admitted: {sweep['job']} ({sweep['cells']} cells)")

        server.send_signal(signal.SIGTERM)
        out, _ = server.communicate(timeout=120)
        print(out, end="")
        assert server.returncode == 0, f"exit code {server.returncode}"
        assert "drained, exiting" in out, "no graceful-drain farewell"

        # A SIGTERM mid-sweep leaves either a finished job (nothing to
        # save) or a run directory that resumes the remainder.
        manifests = sorted(pathlib.Path(drain_dir).glob("*/run-*/manifest.json"))
        if manifests:
            run_dir = manifests[0].parent
            manifest = json.loads(manifests[0].read_text())
            assert manifest["experiment"] == "suite", manifest
            # Full instance identity must be recorded (resume safety).
            identity = manifest["instance"]
            assert identity["engine"] in ("obj", "array"), identity
            assert isinstance(identity["cache_schema"], int), identity
            stored = {p.stem for p in (run_dir / "cells").glob("*.json")}
            assert stored <= set(manifest["cells"]), (stored, manifest)
            print(f"drained run dir: {run_dir.relative_to(workdir)} "
                  f"({len(stored)}/{len(manifest['cells'])} cells finished)")
            resume = subprocess.run(
                [sys.executable, "-m", "repro.orchestrate", "run",
                 "--resume", "--run-dir", str(run_dir),
                 "--cache-dir", str(workdir / "cache")],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert resume.returncode == 0, resume.stdout + resume.stderr
            resumed = json.loads((run_dir / "manifest.json").read_text())
            assert resumed["status"] == "complete", resumed["status"]
            print("resumed run dir: complete")
        else:
            print("sweep finished before SIGTERM; nothing to save")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()

    print("SMOKE OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
