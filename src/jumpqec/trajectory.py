"""Stochastic jump-trajectory simulation with feedback, plus a
deterministic master-equation oracle.

A trajectory evolves a pure state on a fixed time grid.  Each step either
fires one detected jump (probability = squared norm of the jump operator
applied to the state) followed, when feedback is enabled, by that
channel's correction unitary, or applies the no-jump operator.  The
driving Hamiltonian enters through the no-jump operator of the Kraus set.

Trajectories run together in blocks on the one step engine of
:mod:`jumpqec._kernels`, which follows :func:`step`, the per-trajectory
reference.  Randomness: every trajectory owns a counter-based generator
keyed by ``(seed, trajectory_index)`` and pre-draws one uniform per step,
so jump selections do not depend on execution order or on how
trajectories are grouped into blocks, and a run repeats bit for bit.
The engine reduces each block as it steps (fidelity sums, jump totals,
density sums); no per-trajectory series is stored.  A density series
larger than ``DENSITY_BUDGET_BYTES`` is refused before any setup.

The oracle integrates the unconditioned master equation (independent of
the unraveling offset) with classical fixed-step RK4 and is used to
cross-validate ensemble means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels
from .channels import ErrorChannel, KrausSet, jump_backaction, kraus_set
from .codes import StabilizerCode, build_code, codespace_basis
from .control import ControlPlan, build_control_plan, driving_hamiltonian
from .linalg import MAX_QUBITS, max_abs, tensor_embed

__all__ = [
    "StepSizeError",
    "TrajectoryState",
    "SimConfig",
    "FidelityRecord",
    "EnsembleResult",
    "SimulationSetup",
    "simulation_code",
    "prepare",
    "step",
    "run_trajectory",
    "run_ensemble",
    "master_equation_oracle",
    "fidelity",
    "trace_distance",
    "density_sample_indices",
]

#: Density matrices are sampled on at most this many grid points.
MAX_DENSITY_SAMPLES = 1000

#: Largest density series (ensemble mean or oracle) allocated, in bytes.
DENSITY_BUDGET_BYTES = 2 * 2**30

#: Bytes each of a block's ``(m, dim, B)`` branches and ``(steps, B)``
#: uniforms may take; this sets the block width ``B``.
_BLOCK_BYTES = 8 * 2**20


class StepSizeError(Exception):
    """The time step is too large for the requested evolution."""


@dataclass
class TrajectoryState:
    """Mutable per-trajectory state: vector, clock, and jump history."""

    state: np.ndarray
    time: float = 0.0
    jump_log: list[tuple[float, ErrorChannel]] = field(default_factory=list)


@dataclass(frozen=True)
class SimConfig:
    """Immutable description of one simulation run."""

    n: int
    channels: tuple[ErrorChannel, ...]
    dt: float
    duration: float
    seed: int = 0
    feedback_enabled: bool = True
    driving_enabled: bool = True
    trajectories: int = 1
    initial_state: int | tuple[complex, ...] = 0
    code_override: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"n must be an integer in [1, {MAX_QUBITS}]")
        object.__setattr__(self, "channels", tuple(self.channels))
        for ch in self.channels:
            if not 0 <= ch.qubit < self.n:
                raise ValueError(
                    f"channel qubit {ch.qubit} out of range for n={self.n}"
                )
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.duration < self.dt:
            raise ValueError("duration must be at least one step")
        if not isinstance(self.trajectories, int) or self.trajectories < 1:
            raise ValueError("trajectories must be a positive integer")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not isinstance(self.initial_state, int):
            object.__setattr__(
                self,
                "initial_state",
                tuple(complex(c) for c in self.initial_state),
            )
        if self.code_override is not None:
            frozen = []
            for g in self.code_override:
                g = np.array(g, dtype=float)
                if g.shape != (self.n, 3):
                    raise ValueError(
                        f"code override generators must have shape ({self.n}, 3)"
                    )
                g.flags.writeable = False
                frozen.append(g)
            object.__setattr__(self, "code_override", tuple(frozen))

    @property
    def steps(self) -> int:
        return max(1, int(round(self.duration / self.dt)))


@dataclass(frozen=True)
class FidelityRecord:
    """Per-step fidelity statistics on the simulation time grid.

    ``jump_counts`` is cumulative and, for ensembles, summed over all
    trajectories (kept integer-valued).
    """

    times: np.ndarray
    mean_fidelity: np.ndarray
    std_fidelity: np.ndarray
    jump_counts: np.ndarray

    def __post_init__(self):
        lengths = {
            len(self.times),
            len(self.mean_fidelity),
            len(self.std_fidelity),
            len(self.jump_counts),
        }
        if len(lengths) != 1:
            raise ValueError("record columns must all have the same length")
        if np.any(self.mean_fidelity < 0) or np.any(self.mean_fidelity > 1):
            raise ValueError("mean fidelities must lie in [0, 1]")
        if np.any(self.std_fidelity < 0):
            raise ValueError("fidelity spreads must be nonnegative")


class EnsembleResult(NamedTuple):
    record: FidelityRecord
    density_times: np.ndarray | None
    mean_density: np.ndarray | None


@dataclass(frozen=True, eq=False)
class SimulationSetup:
    """Synthesis products shared by all trajectories of one config."""

    code: StabilizerCode
    plan: ControlPlan | None
    kraus: KrausSet
    applied_jumps: np.ndarray
    initial: np.ndarray
    times: np.ndarray
    sample_indices: np.ndarray


def density_sample_indices(steps: int) -> np.ndarray:
    """Grid indices (including 0 and the final step) where densities are kept."""
    stride = max(1, math.ceil(steps / MAX_DENSITY_SAMPLES))
    idx = np.arange(0, steps + 1, stride, dtype=np.int64)
    if idx[-1] != steps:
        idx = np.append(idx, np.int64(steps))
    return idx


def simulation_code(cfg: SimConfig) -> StabilizerCode:
    """The code a run protects with: synthesized, or taken from the override."""
    if cfg.code_override is None:
        return build_code(cfg.channels, cfg.n)
    basis = codespace_basis(cfg.code_override, cfg.n)
    logical = int(round(math.log2(basis.shape[0])))
    if 2**logical != basis.shape[0]:
        raise ValueError("override generators fix a non-power-of-two codespace")
    basis.flags.writeable = False
    return StabilizerCode(
        n=cfg.n,
        generators=cfg.code_override,
        codespace=basis,
        logical_count=logical,
    )


def _initial_vector(cfg: SimConfig, code: StabilizerCode) -> np.ndarray:
    basis = code.codespace
    if isinstance(cfg.initial_state, int):
        if not 0 <= cfg.initial_state < basis.shape[0]:
            raise ValueError(
                f"initial_state index {cfg.initial_state} outside the "
                f"{basis.shape[0]}-dimensional codespace"
            )
        psi = basis[cfg.initial_state].copy()
    else:
        coeffs = np.asarray(cfg.initial_state, dtype=np.complex128)
        if coeffs.shape != (basis.shape[0],):
            raise ValueError(
                f"initial_state needs {basis.shape[0]} codespace coefficients, "
                f"got {coeffs.shape[0]}"
            )
        psi = coeffs @ basis
        nrm = np.linalg.norm(psi)
        if nrm < 1e-12:
            raise ValueError("initial_state coefficients have zero norm")
        psi = psi / nrm
    return np.ascontiguousarray(psi, dtype=np.complex128)


def prepare(cfg: SimConfig) -> SimulationSetup:
    """Synthesize everything trajectories need: code, controls, Kraus set.

    The control plan is only built when feedback or driving is enabled, so
    fully unprotected runs do not require correctability.
    """
    code = simulation_code(cfg)
    plan = None
    if cfg.feedback_enabled or cfg.driving_enabled:
        plan = build_control_plan(cfg.channels, code)
    hamiltonian = plan.driving if (plan is not None and cfg.driving_enabled) else None
    ks = kraus_set(cfg.channels, hamiltonian, cfg.n, cfg.dt)
    dim = 2**cfg.n
    mats = []
    for ch, omega in ks.jumps:
        if cfg.feedback_enabled and plan is not None:
            mats.append(plan.corrections[ch].matrix @ omega)
        else:
            mats.append(omega)
    applied = (
        np.stack(mats) if mats else np.zeros((0, dim, dim), dtype=np.complex128)
    )
    steps = cfg.steps
    return SimulationSetup(
        code=code,
        plan=plan,
        kraus=ks,
        applied_jumps=applied,
        initial=_initial_vector(cfg, code),
        times=np.arange(steps + 1) * cfg.dt,
        sample_indices=density_sample_indices(steps),
    )


def step(
    ts: TrajectoryState,
    ks: KrausSet,
    plan: ControlPlan | None,
    rng,
) -> tuple[TrajectoryState, ErrorChannel | None]:
    """Advance one time step in place; reference implementation.

    Draws a single uniform from ``rng``; a jump of channel ``k`` fires
    when the uniform falls below the cumulative probability through ``k``.
    Passing ``plan=None`` disables the feedback correction.  Returns the
    fired channel, or ``None`` for the no-jump branch.
    """
    psi = ts.state
    branches = []
    probs = []
    for ch, omega in ks.jumps:
        phi = omega @ psi
        branches.append((ch, phi))
        probs.append(float(np.vdot(phi, phi).real))
    total = sum(probs)
    if 1.0 - total < -_kernels.PROBABILITY_SLACK:
        raise StepSizeError(
            f"total jump probability {total:.3e} exceeds 1 at t={ts.time:.6g}; "
            f"decrease dt"
        )
    u = float(rng.random())
    event = None
    acc = 0.0
    for (ch, phi), p in zip(branches, probs):
        acc += p
        if u < acc:
            event = ch
            psi = phi
            if plan is not None:
                psi = plan.corrections[ch].matrix @ psi
            break
    if event is None:
        psi = ks.no_jump @ psi
    nrm = float(np.sqrt(np.vdot(psi, psi).real))
    if nrm <= 0.0:
        raise StepSizeError(f"state norm collapsed at t={ts.time:.6g}")
    ts.state = psi / nrm
    ts.time += ks.dt
    if event is not None:
        ts.jump_log.append((ts.time, event))
    return ts, event


def _trajectory_uniforms(cfg: SimConfig, trajectory_index: int) -> np.ndarray:
    bits = np.random.Philox(key=[cfg.seed, trajectory_index])
    return np.random.Generator(bits).random(cfg.steps)


def _block_width(cfg: SimConfig, setup: SimulationSetup) -> int:
    """Trajectories per block: the branch and uniform buffers stay bounded."""
    m, dim = setup.applied_jumps.shape[:2]
    column_bytes = max(16 * m * dim, 8 * cfg.steps)
    return max(1, _BLOCK_BYTES // column_bytes)


def _run_block(
    cfg: SimConfig,
    setup: SimulationSetup,
    indices: range,
    rho_sum: np.ndarray | None = None,
) -> _kernels.BlockResult:
    uniforms = np.stack([_trajectory_uniforms(cfg, i) for i in indices], axis=1)
    result = _kernels.run_steps(
        setup.initial,
        setup.applied_jumps,
        setup.kraus.no_jump,
        uniforms,
        setup.sample_indices,
        rho_sum,
    )
    if result.status < 0:
        bad = -result.status - 1
        raise StepSizeError(
            f"total jump probability exceeded 1 at step {bad} "
            f"(t={bad * cfg.dt:.6g}) in trajectory "
            f"{indices[result.failed_column]}; decrease dt"
        )
    return result


def _require_density_budget(cfg: SimConfig, samples: int) -> None:
    """Refuse a density series above ``DENSITY_BUDGET_BYTES`` before allocating it."""
    dim = 2**cfg.n
    need = samples * dim * dim * 16
    if need > DENSITY_BUDGET_BYTES:
        raise ValueError(
            f"the density series needs {need / 2**30:.1f} GiB ({samples} samples "
            f"of {dim}x{dim} complex matrices), over the "
            f"{DENSITY_BUDGET_BYTES / 2**30:g} GiB budget; run the ensemble with "
            f"collect_density=False, or use fewer qubits"
        )


def run_trajectory(
    cfg: SimConfig,
    trajectory_index: int,
    setup: SimulationSetup | None = None,
) -> tuple[FidelityRecord, list[tuple[float, ErrorChannel]]]:
    """Simulate one trajectory, deterministic in ``(seed, trajectory_index)``.

    Fidelity is the squared overlap with the initial state at every grid
    time.  Pass a shared ``setup`` to amortize synthesis across
    trajectories of the same config.
    """
    if setup is None:
        setup = prepare(cfg)
    result = _run_block(cfg, setup, range(trajectory_index, trajectory_index + 1))
    order = [ch for ch, _ in setup.kraus.jumps]
    log = [
        (float((s + 1) * cfg.dt), order[k])
        for s, k in zip(result.jump_steps, result.jump_channels)
    ]
    record = FidelityRecord(
        times=setup.times,
        mean_fidelity=result.fid_sum,
        std_fidelity=np.zeros_like(result.fid_sum),
        jump_counts=result.jump_counts,
    )
    return record, log


def run_ensemble(cfg: SimConfig, collect_density: bool = True) -> EnsembleResult:
    """Average ``cfg.trajectories`` independent trajectories.

    Trajectories run in blocks (see :mod:`jumpqec._kernels`); jump
    selections do not depend on how they are grouped.  The mean density
    matrix series (outer products averaged over trajectories) is kept on
    the subsampled grid of :func:`density_sample_indices`; pass
    ``collect_density=False`` to skip it for large registers.  A series
    over ``DENSITY_BUDGET_BYTES`` raises ``ValueError`` before any setup.
    """
    steps = cfg.steps
    if collect_density:
        _require_density_budget(cfg, len(density_sample_indices(steps)))
    setup = prepare(cfg)
    dim = setup.initial.shape[0]
    fid_sum = np.zeros(steps + 1)
    fid_sq_sum = np.zeros(steps + 1)
    jump_sum = np.zeros(steps + 1, dtype=np.int64)
    rho_sum = None
    if collect_density:
        rho_sum = np.zeros(
            (setup.sample_indices.shape[0], dim, dim), dtype=np.complex128
        )
    n_traj = cfg.trajectories
    width = _block_width(cfg, setup)
    for start in range(0, n_traj, width):
        block = _run_block(
            cfg, setup, range(start, min(start + width, n_traj)), rho_sum
        )
        fid_sum += block.fid_sum
        fid_sq_sum += block.fid_sq_sum
        jump_sum += block.jump_counts
    mean = fid_sum / n_traj
    variance = np.maximum(fid_sq_sum / n_traj - mean * mean, 0.0)
    record = FidelityRecord(
        times=setup.times,
        mean_fidelity=np.clip(mean, 0.0, 1.0),
        std_fidelity=np.sqrt(variance),
        jump_counts=jump_sum,
    )
    if rho_sum is None:
        return EnsembleResult(record, None, None)
    return EnsembleResult(
        record,
        setup.times[setup.sample_indices],
        rho_sum / n_traj,
    )


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Squared overlap of two unit vectors, insensitive to global phase."""
    for v in (a, b):
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError("fidelity arguments must be unit vectors")
    return min(1.0, float(abs(np.vdot(a, b)) ** 2))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference of two density matrices."""
    diff = a - b
    diff = (diff + diff.conj().T) / 2.0
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def master_equation_oracle(
    cfg: SimConfig, sample_indices: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the unconditioned master equation on the simulation grid.

    Classical fixed-step RK4 with internal substeps no longer than
    1e-3 of the characteristic evolution time; the density matrix is
    re-symmetrized every grid step and a trace drift beyond 1e-6 aborts.
    Feedback plays no role here; driving is included when enabled.
    Returns ``(sampled times, density matrices)``; a series over
    ``DENSITY_BUDGET_BYTES`` raises ``ValueError`` before any setup.
    """
    steps = cfg.steps
    if sample_indices is None:
        sample_indices = density_sample_indices(steps)
    sample_indices = np.asarray(sample_indices, dtype=np.int64)
    _require_density_budget(cfg, sample_indices.shape[0])
    code = simulation_code(cfg)
    psi0 = _initial_vector(cfg, code)
    n = cfg.n
    dim = 2**n
    if cfg.driving_enabled:
        hamiltonian = driving_hamiltonian(cfg.channels, code)
    else:
        hamiltonian = np.zeros((dim, dim), dtype=np.complex128)
    lindblad_ops = [
        tensor_embed(ch.operator, ch.qubit, n) for ch in cfg.channels
    ]
    anticomm_half = np.zeros((dim, dim), dtype=np.complex128)
    for op in lindblad_ops:
        anticomm_half += 0.5 * op.conj().T @ op

    def rhs(rho: np.ndarray) -> np.ndarray:
        out = -1j * (hamiltonian @ rho - rho @ hamiltonian)
        out -= anticomm_half @ rho + rho @ anticomm_half
        for op in lindblad_ops:
            out += op @ rho @ op.conj().T
        return out

    rate_scale = sum(
        float(np.trace(ch.operator.conj().T @ ch.operator).real) / 2.0
        for ch in cfg.channels
    ) + max_abs(hamiltonian)
    h_target = cfg.dt
    if rate_scale > 0:
        h_target = min(cfg.dt, 1e-3 / rate_scale)
    substeps = max(1, int(math.ceil(cfg.dt / h_target - 1e-12)))
    h = cfg.dt / substeps

    rho = np.outer(psi0, psi0.conj())
    out = np.empty((sample_indices.shape[0], dim, dim), dtype=np.complex128)
    pointer = 0
    if sample_indices.size and sample_indices[0] == 0:
        out[0] = rho
        pointer = 1
    for s in range(steps):
        for _ in range(substeps):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * h * k1)
            k3 = rhs(rho + 0.5 * h * k2)
            k4 = rhs(rho + h * k3)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = (rho + rho.conj().T) / 2.0
        drift = abs(float(np.trace(rho).real) - 1.0)
        if drift > 1e-6:
            raise StepSizeError(
                f"oracle trace drifted by {drift:.3e} at t={(s + 1) * cfg.dt:.6g}; "
                f"use a smaller dt"
            )
        if pointer < sample_indices.shape[0] and sample_indices[pointer] == s + 1:
            out[pointer] = rho
            pointer += 1
    times = np.arange(steps + 1) * cfg.dt
    return times[sample_indices], out
