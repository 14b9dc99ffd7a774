"""jumpqec benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload readme-simulate --seed 1 --seconds 30 --trace 0

The workload runs in a fresh child process (``worker.py``) that imports
``jumpqec`` from this checkout's ``src`` with the BLAS thread count capped
at the number of usable cores.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0`` and the per-layer metrics of a
traced run with ``--trace 1``.  The line before it records the machine
and the run.  Configs, outputs and span dumps go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_out"

#: A run, build included, must end within this many seconds.
RUN_DEADLINE = 170.0

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
                    "ok_frac": "frac"}
PER_LAYER_UNITS = {
    "synthesis.code_s": "s",
    "synthesis.codespace_basis_s": "s",
    "controls.plan_s": "s",
    "controls.unitary_completion_s": "s",
    "controls.unitary_completion_calls": "count",
    "channels.kraus_set_s": "s",
    "trajectory.prepare_s": "s",
    "trajectory.prepare_self_s": "s",
    "kernel.busy_s": "s",
    "kernel.calls": "count",
    "kernel.steps": "count",
    "kernel.jumps": "count",
    "kernel.steps_per_s": "1/s",
    "ensemble.self_s": "s",
    "ensemble.density_bytes": "B",
    "oracle.busy_s": "s",
    "oracle.grid_steps": "count",
    "cli.parse_s": "s",
    "cli.trace_distance_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_frac": "frac",
}


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(cores: int) -> dict[str, str]:
    """Environment for the worker: this checkout's sources, capped BLAS threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_THREAD_VARS:
        try:
            requested = int(env.get(var, cores))
        except ValueError:
            requested = cores
        env[var] = str(max(1, min(requested, cores)))
    return env


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def result_line(correct: bool, attempted: int, failed: int, metrics: dict,
                units: dict[str, str]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")

    if not (ROOT / "src" / "jumpqec" / "__init__.py").is_file():
        print(f"error: no jumpqec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    cores = usable_cores()
    env = child_env(cores)
    load_before = os.getloadavg()
    worker = [sys.executable, str(Path(__file__).with_name("worker.py")),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--workdir", str(WORKDIR)]
    try:
        done = subprocess.run(worker, env=env, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=RUN_DEADLINE - (time.monotonic() - started))
    except subprocess.TimeoutExpired as exc:
        print(f"error: worker timed out after {exc.timeout:.0f} s", file=sys.stderr)
        return 3
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
        print(f"error: worker exited with {done.returncode}", file=sys.stderr)
        return 3
    result = json.loads(done.stdout.strip().splitlines()[-1])
    for failure in result["failures"]:
        print(f"failed invocation: {failure}", file=sys.stderr)

    record = dict(result["record"])
    record.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        nproc=cores,
        loadavg_before=load_before,
        loadavg_after=os.getloadavg(),
        machine=platform.machine(),
        git_commit=git_commit(),
        source_sha256=source_digest(),
        samples=result["samples"],
    )
    if args.trace:
        record["absent_hooks"] = result["absent_hooks"]
    print("run record: " + json.dumps(record, sort_keys=True))

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics, units = result["metrics"], PER_LAYER_UNITS
    else:
        metrics = {key: result[key] for key in ("wall_s", "setup_s", "peak_rss_mib")}
        metrics["ok_frac"] = (attempted - failed) / attempted
        units = END_TO_END_UNITS
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
