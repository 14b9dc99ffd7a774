"""Command-line frontend: JSON config in, reports and CSV out.

Subcommands:

* ``synthesize`` - build the code and driving Hamiltonian, print them,
  and write a JSON report.  The Hamiltonian is reported as the control
  plan's own terms: each term's Hermitian 2x2 factor on its qubit, which
  the term's generator (if any) completes on the other qubits.
* ``verify``     - check correctability and no-jump codespace invariance;
  nonzero exit on any breach.
* ``simulate``   - run the trajectory ensemble and write the fidelity CSV.
* ``oracle-compare`` - trace distance between the ensemble mean and the
  master-equation integration, as CSV, computed batch by batch with no
  density series held.  The oracle has no feedback, so runs with feedback
  on are refused (exit 2), and so, before any synthesis, is a comparison
  over its time or memory budget, and a driven oracle over its RK4 work
  budget before any trajectory runs.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import time as _time
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channels import ErrorChannel, kraus_set
from .codes import (
    CORRECTABILITY_ATOL,
    PAIR_SECTORS,
    CodeSynthesisError,
    verify_correctability,
)
from .control import (
    CorrectabilityError,
    _driving_terms,
    build_control_plan,
    nojump_invariance_check,
)
from .linalg import IDENTITY, PAULIS, bloch_matrix
from .trajectory import (
    SimConfig,
    StepSizeError,
    oracle_distances,
    run_ensemble,
    simulation_code,
)

__all__ = [
    "ConfigError",
    "RunManifest",
    "parse_config",
    "canonical_config",
    "config_digest",
    "execute",
    "main",
]

#: Residual above which the no-jump operator fails to act as a scalar.
NOJUMP_ATOL = 1e-12

#: The config document's top-level keys in read order, each with the
#: :class:`SimConfig` field it fills and its JSON kinds.  A key is required
#: exactly when its field has no default; a missing optional key leaves the
#: field at that default.
_FIELDS = {
    "n": ("n", int),
    "dt": ("dt", (int, float)),
    "duration": ("duration", (int, float)),
    "channels": ("channels", list),
    "seed": ("seed", int),
    "trajectories": ("trajectories", int),
    "feedback": ("feedback_enabled", bool),
    "driving": ("driving_enabled", bool),
    "initial_state": ("initial_state", (int, list)),
    "code_override": ("code_override", list),
}
_REQUIRED = {
    f.name for f in dataclasses.fields(SimConfig) if f.default is dataclasses.MISSING
}
_CHANNEL_KEYS = {"qubit", "label", "E", "gamma", "phi"}

_DEFAULT_OUTPUT = {
    "synthesize": "synthesize.json",
    "verify": "verify.json",
    "simulate": "fidelity.csv",
    "oracle-compare": "oracle_compare.csv",
}


class ConfigError(Exception):
    """The configuration document is malformed or violates the schema."""


@dataclass(frozen=True)
class RunManifest:
    """What a CLI invocation consumed and produced."""

    config_digest: str
    artifact_version: str
    outputs: tuple[str, ...]
    wall_time: float


def _require(doc: dict, key: str, kinds, where: str):
    if key not in doc:
        raise ConfigError(f"{where}: missing required field {key!r}")
    value = doc[key]
    if isinstance(value, bool) and kinds is not bool:
        raise ConfigError(f"{where}: field {key!r} must not be a boolean")
    if not isinstance(value, kinds):
        raise ConfigError(f"{where}: field {key!r} has the wrong type")
    return value


def _optional(doc: dict, key: str, kinds, where: str, default):
    if key not in doc:
        return default
    return _require(doc, key, kinds, where)


def _numbers(value, count: int, message: str) -> list:
    """``value`` if it is a list of ``count`` numbers, else ``ConfigError(message)``."""
    if (
        not isinstance(value, list)
        or len(value) != count
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise ConfigError(message)
    return value


def _complex_pair(value, where: str) -> complex:
    return complex(*_numbers(value, 2, f"{where}: complex numbers are [re, im] pairs"))


def _generator(value, index: int, n: int) -> list:
    where = f"code_override[{index}]"
    if not isinstance(value, list) or len(value) != n:
        raise ConfigError(f"{where}: needs one [x, y, z] triple per qubit")
    return [
        _numbers(row, 3, f"{where}[{q}]: needs an [x, y, z] triple")
        for q, row in enumerate(value)
    ]


def _matrix_2x2(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{where}: must be a 2x2 array of [re, im] pairs")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != 2:
            raise ConfigError(f"{where}: must be a 2x2 array of [re, im] pairs")
        rows.append([_complex_pair(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows, dtype=np.complex128)


def _parse_channel(doc, index: int, n: int) -> ErrorChannel:
    where = f"channels[{index}]"
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: must be an object")
    unknown = set(doc) - _CHANNEL_KEYS
    if unknown:
        raise ConfigError(f"{where}: unknown field {sorted(unknown)[0]!r}")
    qubit = _require(doc, "qubit", int, where)
    if not 0 <= qubit < n:
        raise ConfigError(f"{where}.qubit: index {qubit} out of range for n={n}")
    operator = _matrix_2x2(_require(doc, "E", list, where), f"{where}.E")
    gamma = float(_optional(doc, "gamma", (int, float), where, 0.0))
    if gamma < 0:
        raise ConfigError(f"{where}.gamma: must be nonnegative")
    phi = float(_optional(doc, "phi", (int, float), where, 0.0))
    label = _optional(doc, "label", (str, int), where, index)
    try:
        return ErrorChannel(
            qubit=qubit, operator=operator, gamma=gamma, phi=phi, label=label
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _finite_number(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"config: non-finite number {token} is not allowed")
    return value


def _float_sized_int(token: str) -> int:
    if math.isinf(float(token)):
        digits = len(token.lstrip("-"))
        raise ConfigError(
            f"config: integer {token[:16]}... of {digits} digits overflows a float"
        )
    return int(token)


def parse_config(text: str) -> SimConfig:
    """Parse and validate a JSON configuration document of finite numbers.

    The top-level keys are ``_FIELDS``'s, read in its order: first every
    key's JSON kind, then the channels, the ``initial_state`` pairs and the
    ``code_override`` rows.  A missing optional key is not passed, so
    :class:`SimConfig`'s default applies.
    """
    try:
        doc = json.loads(
            text, parse_float=_finite_number, parse_int=_float_sized_int,
            parse_constant=_finite_number,
        )
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be an object")
    unknown = set(doc) - _FIELDS.keys()
    if unknown:
        raise ConfigError(f"config: unknown field {sorted(unknown)[0]!r}")

    values = {
        field: _require(doc, key, kinds, "config")
        for key, (field, kinds) in _FIELDS.items()
        if key in doc or field in _REQUIRED
    }
    n = values["n"]
    values["dt"], values["duration"] = float(values["dt"]), float(values["duration"])
    values["channels"] = tuple(
        _parse_channel(ch, i, n) for i, ch in enumerate(values["channels"])
    )
    if isinstance(values.get("initial_state"), list):
        values["initial_state"] = tuple(
            _complex_pair(v, f"initial_state[{i}]")
            for i, v in enumerate(values["initial_state"])
        )
    if "code_override" in values:
        values["code_override"] = tuple(
            _generator(gen, i, n) for i, gen in enumerate(values["code_override"])
        )
    try:
        return SimConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc


def canonical_config(cfg: SimConfig) -> dict:
    """Config as a JSON-ready dict that parses back to the same SimConfig.

    Every ``_FIELDS`` key is written, except ``code_override`` when it is
    ``None``; the channels, coefficient pairs and override rows are
    converted to their JSON forms.
    """
    doc = {key: getattr(cfg, field) for key, (field, _) in _FIELDS.items()}
    doc["channels"] = [
        {
            "qubit": ch.qubit,
            "label": ch.label,
            "E": _pairs(ch.operator),
            "gamma": ch.gamma,
            "phi": ch.phi,
        }
        for ch in cfg.channels
    ]
    if not isinstance(cfg.initial_state, int):
        doc["initial_state"] = [[c.real, c.imag] for c in cfg.initial_state]
    if cfg.code_override is None:
        del doc["code_override"]
    else:
        doc["code_override"] = [
            [[float(v) for v in row] for row in gen] for gen in cfg.code_override
        ]
    return doc


def _pairs(matrix: np.ndarray) -> list:
    """A complex matrix as rows of ``[re, im]`` pairs, the config's format."""
    return [[[val.real, val.imag] for val in row] for row in matrix]


def config_digest(cfg: SimConfig) -> str:
    payload = json.dumps(canonical_config(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _driving_factors(code, terms) -> Iterable[tuple[int, int | None, np.ndarray]]:
    """``(qubit, generator, F)`` for each driving term whose factor is nonzero.

    ``F`` is the term's Hermitian 2x2 factor on ``qubit``, computational
    basis: ``H`` is the sum over terms of ``F`` times generator
    ``generator``'s factors ``s_j`` on the other qubits (the identity for
    ``None``).  It is ``(-i V_q d V_q^dag) s_q`` for the frame datum ``d``,
    without the ``s_q`` for an offset term.
    """
    for qubit, datum, generator in terms:
        factor = -1j * code.local_from_frame(datum, qubit)  # the terms sum to i H
        if generator is not None:
            factor = factor @ bloch_matrix(code.generators[generator][qubit])
        if factor.any():
            yield qubit, generator, factor


def _cmd_synthesize(cfg: SimConfig) -> tuple[int, Iterable[str]]:
    code = simulation_code(cfg)
    plan = build_control_plan(cfg.channels, code)
    print(f"qubits: {cfg.n}")
    print(f"logical qubits: {code.logical_count}")
    for gi, gen in enumerate(code.generators):
        rows = "  ".join(
            f"q{q}:({row[0]:+.6g},{row[1]:+.6g},{row[2]:+.6g})"
            for q, row in enumerate(gen)
        )
        print(f"generator {gi}: {rows}")
    terms = list(_driving_factors(code, plan.driving_terms))
    heading = " (Pauli coefficients of each term's factor):" if terms else ": 0"
    print("driving Hamiltonian" + heading)
    for q, g, factor in terms:
        coeffs = [np.trace(p @ factor).real / 2 for p in (IDENTITY, *PAULIS)]
        listed = "  ".join(f"{label} {c:+.6g}" for label, c in zip("IXYZ", coeffs))
        where = "alone" if g is None else f"with generator {g} elsewhere"
        print(f"  qubit {q} {where}: {listed}")
    report = {
        "n": cfg.n,
        "logical_count": code.logical_count,
        "generators": [np.asarray(g).tolist() for g in code.generators],
        "hamiltonian": [
            {"qubit": q, "generator": g, "factor": _pairs(factor)}
            for q, g, factor in terms
        ],
        "sector_map": PAIR_SECTORS if len(code.generators) == 2 else None,
        "config_digest": config_digest(cfg),
        "artifact_version": __version__,
    }
    return 0, [json.dumps(report, indent=2, sort_keys=True) + "\n"]


def _print_verdict(name: str, passed: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")


def _cmd_verify(cfg: SimConfig) -> tuple[int, Iterable[str]]:
    code = simulation_code(cfg)
    print(f"logical qubits: {code.logical_count}")
    correct = verify_correctability(code, cfg.channels)
    _print_verdict(
        "correctability", correct.passed,
        f"max residual {correct.max_residual:.3e} vs {CORRECTABILITY_ATOL:.0e}",
    )
    checks = {
        "correctability": {
            "max_residual": correct.max_residual,
            "threshold": CORRECTABILITY_ATOL,
            "per_channel": [
                {"label": label, "residual": residual}
                for label, residual in zip(correct.labels, correct.residuals)
            ],
            "passed": correct.passed,
        }
    }
    if correct.passed:
        # The report above has passed: take the driving terms without rechecking.
        driving = _driving_terms(cfg.channels, code) if cfg.driving_enabled else ()
        ks = kraus_set(cfg.channels, code, cfg.dt, driving)
        nojump = nojump_invariance_check(ks)
        invariant = nojump.residual <= NOJUMP_ATOL
        _print_verdict(
            "nojump_invariance", invariant,
            f"a={nojump.a:.12g}, residual {nojump.residual:.3e} vs {NOJUMP_ATOL:.0e}",
        )
        checks["nojump_invariance"] = {
            "a": nojump.a,
            "residual": nojump.residual,
            "threshold": NOJUMP_ATOL,
            "passed": invariant,
        }
    else:
        skipped = "correctability failed; controls not synthesized"
        _print_verdict("nojump_invariance", False, skipped)
        checks["nojump_invariance"] = {"skipped": skipped, "passed": False}
    passed = all(entry["passed"] for entry in checks.values())
    report = {
        "passed": passed,
        "logical_count": code.logical_count,
        "checks": checks,
        "config_digest": config_digest(cfg),
        "artifact_version": __version__,
    }
    return (0 if passed else 1), [json.dumps(report, indent=2, sort_keys=True) + "\n"]


def _cmd_simulate(cfg: SimConfig) -> tuple[int, Iterable[str]]:
    result = run_ensemble(cfg, collect_density=False)
    record = result.record
    rows = (
        "%.17g,%.17g,%.17g,%d\n" % row
        for row in zip(
            record.times, record.mean_fidelity, record.std_fidelity, record.jump_counts
        )
    )
    header = "time,mean_fidelity,std_fidelity,cumulative_jumps\n"
    print(
        f"{cfg.trajectories} trajectories, {cfg.steps} steps: "
        f"final mean fidelity {record.mean_fidelity[-1]:.6f}, "
        f"{int(record.jump_counts[-1])} jumps total"
    )
    return 0, itertools.chain([header], rows)


def _cmd_oracle_compare(cfg: SimConfig) -> tuple[int, Iterable[str]]:
    if cfg.feedback_enabled:
        raise ConfigError(
            "oracle-compare needs feedback off (--no-feedback or "
            '"feedback": false): the master-equation oracle has no jump '
            "corrections, so the distance would mean nothing"
        )
    times, distances = oracle_distances(cfg)
    rows = ("%.17g,%.17g\n" % row for row in zip(times, distances))
    print(
        f"max trace distance {distances.max():.6f} over {len(distances)} sampled times"
    )
    return 0, itertools.chain(["time,trace_distance\n"], rows)


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpqec",
        description="Stabilizer-code synthesis and jump-trajectory simulation "
        "for continuously detected error channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("synthesize", "build the code and driving Hamiltonian"),
        ("verify", "check correctability and codespace invariance"),
        ("simulate", "run the trajectory ensemble, write fidelity CSV"),
        ("oracle-compare", "trace distance of ensemble mean vs. master equation"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--output", help="output file path")
        # Each override flag's dest is the SimConfig field it sets.
        cmd.add_argument("--trajectories", type=int, help="override trajectory count")
        cmd.add_argument("--seed", type=int, help="override RNG seed")
        cmd.add_argument("--dt", type=float, help="override time step")
        cmd.add_argument(
            "--no-feedback", dest="feedback_enabled", action="store_false",
            default=None, help="disable jump corrections",
        )
        cmd.add_argument(
            "--no-driving", dest="driving_enabled", action="store_false",
            default=None, help="disable the driving Hamiltonian",
        )
        cmd.add_argument(
            "--force", action="store_true", help="overwrite existing output files"
        )
    return parser


_COMMANDS = {
    "synthesize": _cmd_synthesize,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "oracle-compare": _cmd_oracle_compare,
}


def execute(argv: list[str]) -> tuple[int, RunManifest | None]:
    """Run one CLI invocation; returns (exit code, manifest or None).

    The output file is refused before the command runs and written after it.
    """
    started = _time.monotonic()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), None

    try:
        with open(args.config) as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2, None

    try:
        flags = vars(args)
        overrides = {f: flags[f] for f, _ in _FIELDS.values() if flags.get(f) is not None}
        cfg = dataclasses.replace(parse_config(text), **overrides)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None

    output = args.output or _DEFAULT_OUTPUT[args.command]
    if os.path.isdir(output):
        print(f"error: output path {output!r} is a directory", file=sys.stderr)
        return 2, None
    if os.path.exists(output) and not args.force:
        print(f"error: output file {output!r} exists; pass --force to overwrite",
              file=sys.stderr)
        return 2, None
    if not os.path.isdir(os.path.dirname(output) or "."):
        print(f"error: output directory of {output!r} does not exist", file=sys.stderr)
        return 2, None
    try:
        exit_code, chunks = _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    except CorrectabilityError as exc:
        print(f"error: CorrectabilityError: {exc}", file=sys.stderr)
        return 1, None
    except (CodeSynthesisError, StepSizeError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2, None
    try:
        with open(output, "w") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2, None

    manifest = RunManifest(
        config_digest=config_digest(cfg),
        artifact_version=__version__,
        outputs=(output,),
        wall_time=_time.monotonic() - started,
    )
    return exit_code, manifest


def main() -> None:
    sys.exit(execute(sys.argv[1:])[0])


if __name__ == "__main__":
    main()
