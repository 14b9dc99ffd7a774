"""Output checks for one benchmark invocation.

Every threshold here is fixed in advance and independent of the seed:

* the exit code is 0;
* the CSV has the expected header and one row per grid point, ending at
  the configured duration;
* protected runs keep the final mean fidelity at 1 within 1e-9;
* protected runs see a total jump count within 5 sigma of the Poisson
  mean ``sum_k rate_k * duration * trajectories``;
* oracle runs keep the maximum trace distance below
  ``TRACE_DISTANCE_C / sqrt(trajectories)``;
* a repeat of the same invocation reproduces the first output byte for
  byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

FIDELITY_FLOOR = 1.0 - 1e-9
JUMP_SIGMAS = 5.0

#: Sampling-noise constant of the oracle check.  For the rank-3, n=4,
#: 100-trajectory workload the maximum trace distance over the sampled
#: grid measured 0.120-0.184 over seeds 0-15 (c = 1.20-1.84, mean 1.41,
#: standard deviation 0.15-0.16), alike at durations 1 and 3.  2.5 sits seven standard deviations above
#: the mean and still fails any run whose mean density is off by more
#: than 0.25 in trace distance.
TRACE_DISTANCE_C = 2.5

SIMULATE_HEADER = ("time", "mean_fidelity", "std_fidelity", "cumulative_jumps")
ORACLE_HEADER = ("time", "trace_distance")


@dataclass(frozen=True)
class Expected:
    header: tuple[str, ...]
    rows: int
    end_time: float
    jump_mean: float | None = None
    trajectories: int | None = None


def parse_csv(text: str) -> tuple[tuple[str, ...], list[list[float]]]:
    lines = text.splitlines()
    if not lines:
        return (), []
    header = tuple(lines[0].split(","))
    return header, [[float(v) for v in line.split(",")] for line in lines[1:]]


def check_output(exit_code: int, text: str | None, expected: Expected,
                 reference: str | None = None) -> list[str]:
    """Return the failed checks of one invocation; empty when it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if text is None:
        return ["no output file"]
    try:
        header, rows = parse_csv(text)
    except ValueError as exc:
        return [f"unparsable CSV: {exc}"]
    failures = []
    if header != expected.header:
        return [f"header {header!r}, expected {expected.header!r}"]
    if len(rows) != expected.rows:
        failures.append(f"{len(rows)} rows, expected {expected.rows}")
    if not rows:
        return failures + ["empty CSV"]
    if rows[0][0] != 0.0 or not math.isclose(rows[-1][0], expected.end_time,
                                             rel_tol=1e-9):
        failures.append(
            f"time runs {rows[0][0]}..{rows[-1][0]}, expected 0..{expected.end_time}"
        )
    if header == SIMULATE_HEADER and expected.jump_mean is not None:
        final_fidelity = rows[-1][1]
        if not final_fidelity >= FIDELITY_FLOOR:
            failures.append(f"final mean fidelity {final_fidelity!r} < {FIDELITY_FLOOR!r}")
        jumps = rows[-1][3]
        band = JUMP_SIGMAS * math.sqrt(expected.jump_mean)
        if abs(jumps - expected.jump_mean) > band:
            failures.append(
                f"{jumps:.0f} jumps, expected {expected.jump_mean:.1f} +- {band:.1f}"
            )
    if header == ORACLE_HEADER and expected.trajectories is not None:
        worst = max(row[1] for row in rows)
        limit = TRACE_DISTANCE_C / math.sqrt(expected.trajectories)
        if not worst <= limit:
            failures.append(f"max trace distance {worst:.4f} > {limit:.4f}")
    if reference is not None and text != reference:
        failures.append("output differs from the first repeat with the same seed")
    return failures
