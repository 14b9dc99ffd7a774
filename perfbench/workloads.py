"""The benchmark's workloads and the config documents they feed the CLI.

Each workload is one ``jumpqec`` subcommand on one config, run closed
loop: a single caller issues the next invocation only after the previous
one has returned.  Configs are generated from the workload seed; the
program sees only the JSON file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DT = 1e-3

#: Relaxation sigma_minus = |0><1| as the CLI's [re, im] pairs.
_SIGMA_MINUS = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


@dataclass(frozen=True)
class Workload:
    command: str
    channels: str
    n: int
    duration: float
    trajectories: int
    protected: bool
    why: str


#: ``readme-simulate`` runs by hand but is left out of BENCHMARK.json: on a
#: 2-vCPU VM its run medians spread 25-29 % (quartile distance over median,
#: ten seeds), above the largest bound the benchmark may set, while the
#: other two spread 13-23 %.  Its layers stay measured: the kernel on both
#: remaining workloads, the CLI on both.
WORKLOADS = {
    "readme-simulate": Workload(
        "simulate", "relaxation", 2, 3.0, 200, True,
        "README config: the step kernel is nearly all of the wall time",
    ),
    "n8-simulate": Workload(
        "simulate", "relaxation", 8, 1.0, 4, True,
        "n=8: synthesis and controls in prepare() dominate; wide kernel, few trajectories",
    ),
    "rank3-oracle": Workload(
        "oracle-compare", "rank3", 4, 1.0, 100, False,
        "12 rank-3 channels, unprotected: RK4 oracle and density accumulation",
    ),
}


def relaxation_channels(n: int) -> list[dict]:
    return [{"qubit": q, "E": _SIGMA_MINUS, "gamma": 0.5} for q in range(n)]


def rank3_channels(n: int) -> list[dict]:
    """Mirror of ``tests/helpers.rank3_channels`` in config form.

    Per qubit, three channels ``sqrt(2/3) |0><k|`` with ``|k>`` the +1
    eigenvector of X, Y and the -1 eigenvector of Z.
    """
    scale = math.sqrt(2.0 / 3.0)
    h = scale / math.sqrt(2.0)
    # Rows are scale * conj(<k|) in [re, im] pairs; the second row is zero.
    bras = {
        "x": [[h, 0.0], [h, 0.0]],
        "y": [[h, 0.0], [0.0, -h]],
        "z": [[0.0, 0.0], [scale, 0.0]],
    }
    zero_row = [[0.0, 0.0], [0.0, 0.0]]
    return [
        {"qubit": q, "label": f"{axis}{q}", "E": [bra, zero_row], "gamma": 0.0}
        for q in range(n)
        for axis, bra in bras.items()
    ]


def config_doc(workload: Workload, seed: int, *, n: int | None = None,
               duration: float | None = None,
               trajectories: int | None = None) -> dict:
    """Config for ``workload``; the keyword overrides shrink it for warm-up."""
    n = workload.n if n is None else n
    build = relaxation_channels if workload.channels == "relaxation" else rank3_channels
    return {
        "n": n,
        "dt": DT,
        "duration": workload.duration if duration is None else duration,
        "trajectories": workload.trajectories if trajectories is None else trajectories,
        "seed": seed,
        "feedback": workload.protected,
        "driving": workload.protected,
        "channels": build(n),
    }


def cli_args(workload: Workload, config_path: str, output_path: str) -> list[str]:
    argv = [workload.command, "--config", config_path, "--output", output_path,
            "--force"]
    if not workload.protected:
        argv += ["--no-feedback", "--no-driving"]
    return argv
