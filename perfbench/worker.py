"""Run one workload in this process and print the result as a JSON line.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH`` and
the BLAS thread count capped.  Untraced (``--trace 0``), it repeats the
workload's CLI invocation for ``--seconds`` and, beside the repeats,
times ``jumpqec.prepare`` on the parsed config.  Traced (``--trace 1``),
it alternates untraced and traced invocations; the traced ones run with
the layer hooks below installed and give the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import spans
from workloads import WORKLOADS, cli_args, config_doc

ROOT = Path(__file__).resolve().parent.parent

#: Time spent timing ``prepare`` in one probe (at least one call).
SETUP_PROBE_SECONDS = 0.25
#: A repeat probes ``prepare`` only while the probes so far took less than
#: this share of the invocations' time, so that a slow ``prepare`` (n=8)
#: leaves most of the run to the invocations that ``wall_s`` samples.
SETUP_PROBE_SHARE = 0.35


def kernel_counts(args, kwargs, result):
    uniforms = args[3] if len(args) > 3 else kwargs["uniforms"]
    return {"kernel.steps": len(uniforms), "kernel.jumps": max(int(result[0]), 0)}


def density_counts(args, kwargs, result):
    density = getattr(result, "mean_density", None)
    return {"ensemble.density_bytes": 0 if density is None else density.nbytes}


def oracle_counts(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    return {"oracle.grid_steps": cfg.steps}


#: Public entry points of each layer, in the namespace of their callers.
LAYER_HOOKS = [
    spans.Hook("jumpqec.cli", "execute", "cli"),
    spans.Hook("jumpqec.cli", "parse_config", "cli.parse"),
    spans.Hook("jumpqec.cli", "run_ensemble", "ensemble", density_counts),
    spans.Hook("jumpqec.cli", "master_equation_oracle", "oracle", oracle_counts),
    spans.Hook("jumpqec.cli", "trace_distance", "cli.trace_distance"),
    spans.Hook("jumpqec.cli", "simulation_code", "synthesis.code"),
    spans.Hook("jumpqec.trajectory", "simulation_code", "synthesis.code"),
    spans.Hook("jumpqec.codes", "codespace_basis", "synthesis.codespace_basis"),
    spans.Hook("jumpqec.trajectory", "codespace_basis", "synthesis.codespace_basis"),
    spans.Hook("jumpqec.trajectory", "prepare", "trajectory.prepare"),
    spans.Hook("jumpqec.trajectory", "build_control_plan", "controls.plan"),
    spans.Hook("jumpqec.control", "unitary_completion", "controls.unitary_completion"),
    spans.Hook("jumpqec.trajectory", "kraus_set", "channels.kraus_set"),
    spans.Hook("jumpqec._kernels", "run_steps", "kernel", kernel_counts),
]


def layer_metrics(recorder: spans.Recorder, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced invocation that took ``wall`` seconds."""
    busy = spans.busy_times(recorder.spans)
    own = spans.self_times(recorder.spans)
    counts = recorder.counts
    kernel_busy = busy.get("kernel", 0.0)
    return {
        "synthesis.code_s": busy.get("synthesis.code", 0.0),
        "synthesis.codespace_basis_s": busy.get("synthesis.codespace_basis", 0.0),
        "controls.plan_s": busy.get("controls.plan", 0.0),
        "controls.unitary_completion_s": busy.get("controls.unitary_completion", 0.0),
        "controls.unitary_completion_calls": counts["controls.unitary_completion.calls"],
        "channels.kraus_set_s": busy.get("channels.kraus_set", 0.0),
        "trajectory.prepare_s": busy.get("trajectory.prepare", 0.0),
        "trajectory.prepare_self_s": own.get("trajectory.prepare", 0.0),
        "kernel.busy_s": kernel_busy,
        "kernel.calls": counts["kernel.calls"],
        "kernel.steps": counts["kernel.steps"],
        "kernel.jumps": counts["kernel.jumps"],
        "kernel.steps_per_s": counts["kernel.steps"] / kernel_busy if kernel_busy else 0.0,
        "ensemble.self_s": own.get("ensemble", 0.0),
        "ensemble.density_bytes": counts["ensemble.density_bytes"],
        "oracle.busy_s": busy.get("oracle", 0.0),
        "oracle.grid_steps": counts["oracle.grid_steps"],
        "cli.parse_s": busy.get("cli.parse", 0.0),
        "cli.trace_distance_s": busy.get("cli.trace_distance", 0.0),
        "cli.self_s": own.get("cli", 0.0),
        "trace.wall_s": wall,
        "trace.remainder_s": wall - sum(own.values()),
    }


class Runner:
    """One workload's config, invocation and output checks."""

    def __init__(self, jq, name: str, seed: int, workdir: Path):
        self.jq = jq
        self.workload = WORKLOADS[name]
        self.config_path = workdir / f"{name}.json"
        self.output_path = workdir / f"{name}.csv"
        self.config_path.write_text(json.dumps(config_doc(self.workload, seed)))
        self.argv = cli_args(self.workload, str(self.config_path), str(self.output_path))
        self.cfg = jq.cli.parse_config(self.config_path.read_text())
        self.expected = self._expected()
        self.reference: str | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def _expected(self) -> checks.Expected:
        jq, cfg, workload = self.jq, self.cfg, self.workload
        steps = cfg.steps
        if workload.command == "oracle-compare":
            return checks.Expected(
                header=checks.ORACLE_HEADER,
                rows=len(jq.trajectory.density_sample_indices(steps)),
                end_time=steps * cfg.dt,
                trajectories=cfg.trajectories,
            )
        jump_mean = None
        if workload.protected:
            # Under the closed loop the state stays on the initial ray, so
            # each channel clicks as a Poisson process of rate |A_k psi0|^2.
            psi0 = jq.prepare(cfg).initial
            rate = sum(
                np.linalg.norm(jq.tensor_embed(jq.effective_jump_operator(ch),
                                               ch.qubit, cfg.n) @ psi0) ** 2
                for ch in cfg.channels
            )
            jump_mean = float(rate) * steps * cfg.dt * cfg.trajectories
        return checks.Expected(
            header=checks.SIMULATE_HEADER,
            rows=steps + 1,
            end_time=steps * cfg.dt,
            jump_mean=jump_mean,
        )

    def invoke(self) -> float:
        """One checked CLI invocation; returns its wall time in seconds."""
        self.attempted += 1
        self.output_path.unlink(missing_ok=True)
        started = time.perf_counter()
        try:
            code, _manifest = self.jq.cli.execute(self.argv)
        except Exception:  # an invocation that raises counts as failed
            wall = time.perf_counter() - started
            self.failures.append(traceback.format_exc())
            return wall
        wall = time.perf_counter() - started
        text = self.output_path.read_text() if self.output_path.exists() else None
        failed = checks.check_output(code, text, self.expected, self.reference)
        if failed:
            self.failures.append("; ".join(failed))
        elif self.reference is None:
            self.reference = text
        return wall

    def time_prepare(self) -> list[float]:
        times: list[float] = []
        while not times or sum(times) < SETUP_PROBE_SECONDS:
            started = time.perf_counter()
            self.jq.prepare(self.cfg)
            times.append(time.perf_counter() - started)
        return times

    def warm_up(self, workdir: Path) -> None:
        """A two-trajectory, ten-step run at n=2 that loads every code path."""
        small = config_doc(self.workload, 0, n=2, duration=10 * self.cfg.dt,
                           trajectories=2)
        path = workdir / "warmup.json"
        path.write_text(json.dumps(small))
        code, _ = self.jq.cli.execute(
            cli_args(self.workload, str(path), str(workdir / "warmup.csv")))
        if code != 0:
            raise RuntimeError(f"warm-up invocation exited with {code}")


def repeat_for(seconds: float, body, clock=time.perf_counter) -> None:
    """Call ``body`` until ``seconds`` have passed, rounded to whole calls.

    Another call starts only while, at the length of the last one, it
    would end less than half a call past ``seconds``.
    """
    started = clock()
    while True:
        begun = clock()
        body()
        now = clock()
        if now - started + (now - begun) / 2 > seconds:
            return


def run_untraced(runner: Runner, seconds: float) -> dict:
    walls, setups = [], []

    def repeat():
        walls.append(runner.invoke())
        if sum(setups) < SETUP_PROBE_SHARE * sum(walls):
            setups.extend(runner.time_prepare())

    repeat_for(seconds, repeat)
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "samples": {"wall_s": walls, "setup_s": len(setups)},
    }


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced invocations, swapping the order each pair."""
    untraced, traced, per_layer = [], [], []
    recorders: list[spans.Recorder] = []

    def traced_invoke():
        with spans.Recorder() as recorder:
            recorder.install(LAYER_HOOKS)
            wall = runner.invoke()
        recorders[:] = [recorder]
        traced.append(wall)
        per_layer.append(layer_metrics(recorder, wall))

    def pair():
        if len(traced) % 2:
            traced_invoke()
            untraced.append(runner.invoke())
        else:
            untraced.append(runner.invoke())
            traced_invoke()

    repeat_for(seconds, pair)
    last = recorders[0]
    spans_path.write_text(json.dumps(
        [[s.name, s.start, s.end, s.parent] for s in last.spans]))
    # Counts repeat exactly for a seed; keep them whole numbers.
    metrics = {
        key: (statistics.median_low if isinstance(value, int) else statistics.median)(
            [m[key] for m in per_layer])
        for key, value in per_layer[0].items()
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )
    return {"metrics": metrics, "absent_hooks": last.absent,
            "samples": {"traced_s": traced, "untraced_s": untraced}}


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    import jumpqec
    import jumpqec.cli

    source = Path(jumpqec.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"error: imported jumpqec from {source}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    runner = Runner(jumpqec, args.workload, args.seed, args.workdir)
    runner.warm_up(args.workdir)
    if args.trace:
        spans_path = args.workdir / f"spans-{args.workload}.json"
        result = run_traced(runner, args.seconds, spans_path)
    else:
        result = run_untraced(runner, args.seconds)
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        from jumpqec import _kernels
    except ImportError:
        _kernels = None
    resolve = getattr(_kernels, "resolve_backend", None)
    result.update(
        attempted=runner.attempted,
        failed=len(runner.failures),
        failures=runner.failures,
        record={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas_version(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numba_available": getattr(_kernels, "NUMBA_AVAILABLE", "absent"),
            "backend": resolve() if callable(resolve) else "absent",
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
