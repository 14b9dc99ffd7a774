"""Stochastic jump-trajectory simulation with feedback, plus a
deterministic master-equation oracle.

A trajectory evolves a pure state on a fixed time grid.  Each step either
fires one detected jump (probability = squared norm of the jump operator
applied to the state) followed, when feedback is enabled, by that
channel's correction unitary, or applies the no-jump operator.  The
driving Hamiltonian enters through the no-jump operator of the Kraus set.

Trajectories run together in blocks on the one step engine of
:mod:`jumpqec._kernels`.  Randomness: every trajectory owns a
counter-based generator keyed by ``(seed, trajectory_index)`` and
pre-draws one uniform per step, so jump selections do not depend on
execution order or on how trajectories are grouped into blocks, and a
run repeats bit for bit.
The engine keeps one overlap per step and trajectory, a ``(steps + 1, B)``
array as large as the block's uniforms, and reduces it once per block to
infidelity sums and spreads; it adds density sums once per chunk of
steps.  The run lives in the code's eigenframe
(:class:`.codes.StabilizerCode`), where the codespace is a parity mask:
jumps and corrections stay one-qubit data rotated into it, and the no-jump
operator is the one dense matrix, built there once.  It and the block are
real (float64) exactly when every rotated 2x2 datum and the initial
coefficients are real, as for relaxation channels on the synthesized
code.  Mean densities are rotated back to the computational basis.  A
density series or a run's per-step series larger than
``DENSITY_BUDGET_BYTES`` is refused before any setup.

The oracle evolves the unconditioned master equation on the ensemble's
density grid, from the same Kraus set's no-jump generator and jumps, by
exact per-qubit propagation when undriven and by fixed-step RK4 when
driven, and is used to cross-validate ensemble means.  Like the ensemble
it evolves in the frame, and its series is rotated back on return.
Undriven, the series is evolved 16 samples per product from each chunk's
settled first sample; every sample is still settled and checked.
:func:`oracle_distances` compares the two holding one series: the blocks
add their density sums straight into ``-N`` times the oracle's frame series.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._kernels import CHUNK
from .channels import ErrorChannel, KrausSet, kraus_set
from .codes import StabilizerCode, build_code
from .control import Correction, build_control_plan
from .linalg import MAX_QUBITS, expm1, max_abs

__all__ = [
    "StepSizeError",
    "SimConfig",
    "FidelityRecord",
    "EnsembleResult",
    "SimulationSetup",
    "simulation_code",
    "prepare",
    "run_ensemble",
    "master_equation_oracle",
    "oracle_distances",
    "trace_distance",
    "density_sample_indices",
]

#: Density matrices are sampled on at most this many grid points.
MAX_DENSITY_SAMPLES = 1000

#: Largest density series (ensemble mean or oracle) or per-step series
#: allocated, in bytes.
DENSITY_BUDGET_BYTES = 2 * 2**30

#: Largest driven-oracle RK4 work, grid steps x substeps x (m + 2) x dim^3
#: for m channels: about ten seconds at the 0.9-1.6e9 per second measured at
#: n = 6 and 8 (2 vCPUs, OpenBLAS).
RK4_WORK_BUDGET = 1e10

#: Bytes a run holds per time step: the grid times, the engine's and the
#: ensemble's infidelity and jump sums and record columns, and a block's
#: uniforms and overlaps.  CSV lines are written as formatted, no longer held
#: twice: peak RSS grew by 90 B per step (208 B when held) from 10k to 200k
#: steps of the README config with one trajectory.  320 is kept as it is.
_STEP_BYTES = 320


class StepSizeError(Exception):
    """The time step is too large for the requested evolution."""


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
        # Integral values of any type (numpy's too) are stored as int.
        for name in ("n", "seed", "trajectories", "initial_state"):
            value = getattr(self, name)
            if isinstance(value, numbers.Integral) and not isinstance(value, bool):
                object.__setattr__(self, name, int(value))
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"n must be an integer in [1, {MAX_QUBITS}]")
        object.__setattr__(self, "channels", tuple(self.channels))
        for ch in self.channels:
            if not 0 <= ch.qubit < self.n:
                raise ValueError(
                    f"channel qubit {ch.qubit} out of range for n={self.n}"
                )
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not self.dt <= self.duration < math.inf:
            raise ValueError(
                f"duration must be finite and at least one step, got {self.duration}"
            )
        if not math.isfinite(self.duration / self.dt):
            raise ValueError(
                f"duration / dt = {self.duration} / {self.dt} is not a finite "
                "step count"
            )
        if not isinstance(self.trajectories, int) or self.trajectories < 1:
            raise ValueError("trajectories must be a positive integer")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if isinstance(self.initial_state, bool):
            raise ValueError("initial_state must be a codespace index or coefficients")
        if not isinstance(self.initial_state, int):
            coeffs = tuple(complex(c) for c in self.initial_state)
            if not all(math.isfinite(abs(c)) for c in coeffs):
                raise ValueError("initial_state coefficients must be finite")
            object.__setattr__(self, "initial_state", coeffs)
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
    """Synthesis products shared by all trajectories of one config.

    The time grid is not one of them: it is the config's (``cfg.steps``
    steps of ``cfg.dt``).  Every array the engine reads is in the eigenframe of ``code``:
    ``kraus.no_jump`` and ``kraus.factors``, ``psi0``, and each correction's
    ``u_dag`` and ``axis``.  ``kraus.no_jump`` has the result type of the
    Kraus set's own 2x2 data; the engine evolves in the result type of all
    of them, float64 exactly when every one is real.
    """

    kraus: KrausSet
    #: One correction per channel of ``kraus``; ``None`` exactly when feedback is off.
    corrections: tuple[Correction, ...] | None
    #: The initial vector in the frame.
    psi0: np.ndarray

    @property
    def code(self) -> StabilizerCode:
        """The code the run protects with, the one ``kraus`` was built for."""
        return self.kraus.code

    @property
    def initial(self) -> np.ndarray:
        """The initial vector in the computational basis."""
        return self.code.from_frame(self.psi0)


def _require_budget(need: int, claim: str, remedy: str) -> None:
    """Refuse ``need`` bytes above ``DENSITY_BUDGET_BYTES``; ``claim`` names them."""
    if need > DENSITY_BUDGET_BYTES:
        budget = DENSITY_BUDGET_BYTES / 2**30
        raise ValueError(f"{claim}, over the {budget:g} GiB budget; {remedy}")


def density_sample_indices(steps: int) -> np.ndarray:
    """Grid indices (including 0 and the final step) where densities are kept."""
    stride = max(1, math.ceil(steps / MAX_DENSITY_SAMPLES))
    idx = np.arange(0, steps + 1, stride, dtype=np.int64)
    if idx[-1] != steps:
        idx = np.append(idx, np.int64(steps))
    return idx


def simulation_code(cfg: SimConfig) -> StabilizerCode:
    """The code a run protects with: synthesized, or taken from the override.

    Overrides must be a code family that :func:`codespace_basis` builds.
    """
    if cfg.code_override is None:
        return build_code(cfg.channels, cfg.n)
    return StabilizerCode(cfg.n, cfg.code_override)


def _initial_vector(cfg: SimConfig, code: StabilizerCode) -> np.ndarray:
    """The unit initial vector in the frame, scattered from its coefficients."""
    size = 2**code.logical_count
    if isinstance(cfg.initial_state, int):
        if not 0 <= cfg.initial_state < size:
            raise ValueError(
                f"initial_state index {cfg.initial_state} outside the "
                f"{size}-dimensional codespace"
            )
        unit = np.zeros(size)
        unit[cfg.initial_state] = 1.0
        return code.encode(unit)
    coeffs = np.array(cfg.initial_state)
    if coeffs.shape != (size,):
        raise ValueError(
            f"initial_state needs {size} codespace coefficients, got {coeffs.shape[0]}"
        )
    psi = code.encode(coeffs.real if not coeffs.imag.any() else coeffs)
    nrm = np.linalg.norm(psi)
    if nrm < 1e-12:
        raise ValueError("initial_state coefficients have zero norm")
    return psi / nrm


def _require_step_budget(cfg: SimConfig) -> None:
    """Refuse a run whose per-step series exceed ``DENSITY_BUDGET_BYTES``."""
    steps = cfg.steps
    need = steps * _STEP_BYTES
    claim = f"{steps} time steps would take {need / 2**30:.1f} GiB"
    _require_budget(need, claim, "use a larger dt or a shorter duration")


def prepare(cfg: SimConfig) -> SimulationSetup:
    """Synthesize everything trajectories need: code, controls, Kraus set.

    A run too long for ``DENSITY_BUDGET_BYTES`` raises ``ValueError`` first.
    The control plan is only built when feedback or driving is enabled, so
    fully unprotected runs do not require correctability.  Everything is
    built in the code's eigenframe from one-qubit data: the initial vector
    is a scatter of its coefficients, jumps and corrections stay 2x2 data,
    and the no-jump operator is the one dense array, built once (see
    :class:`SimulationSetup`).  The time grid stays with ``cfg``.
    """
    _require_step_budget(cfg)
    code = simulation_code(cfg)
    plan = None
    if cfg.feedback_enabled or cfg.driving_enabled:
        plan = build_control_plan(cfg.channels, code)
    corrections = plan.corrections if cfg.feedback_enabled else None
    psi0 = _initial_vector(cfg, code)
    driving = plan.driving_terms if cfg.driving_enabled else ()
    ks = kraus_set(cfg.channels, code, cfg.dt, driving)
    return SimulationSetup(kraus=ks, corrections=corrections, psi0=psi0)


def _trajectory_uniforms(cfg: SimConfig, trajectory_index: int) -> np.ndarray:
    bits = np.random.Philox(key=[cfg.seed, trajectory_index])
    return np.random.Generator(bits).random(cfg.steps)


def _run_block(
    cfg: SimConfig,
    setup: SimulationSetup,
    indices: range,
    sample_indices: np.ndarray,
    rho_sum: np.ndarray | None = None,
) -> _kernels.BlockResult:
    """Run trajectories ``indices`` as one block; a failed step raises
    :class:`StepSizeError`, naming its trajectory."""
    uniforms = np.empty((cfg.steps, len(indices)))
    for column, i in enumerate(indices):
        uniforms[:, column] = _trajectory_uniforms(cfg, i)
    try:
        return _kernels.run_steps(
            setup.psi0, setup.kraus, setup.corrections, uniforms, sample_indices,
            rho_sum,
        )
    except _kernels.StepFailure as failure:
        what = {
            "overflow": "total jump probability exceeded 1",
            "collapse": "the no-jump step annihilated the state",
        }[failure.kind]
        step = failure.step
        raise StepSizeError(
            f"{what} at step {step} (t={step * cfg.dt:.6g}) in trajectory "
            f"{indices[failure.column]}; decrease dt"
        ) from None


def _require_density_budget(cfg: SimConfig, samples: int) -> None:
    """Refuse a density series above ``DENSITY_BUDGET_BYTES`` before allocating it."""
    dim = 2**cfg.n
    need = samples * dim * dim * 16
    series = f"{samples} samples of {dim}x{dim} complex matrices"
    claim = f"the density series needs {need / 2**30:.1f} GiB ({series})"
    remedy = "run the ensemble with collect_density=False, or use fewer qubits"
    _require_budget(need, claim, remedy)


def run_ensemble(cfg: SimConfig, collect_density: bool = True) -> EnsembleResult:
    """Average ``cfg.trajectories`` independent trajectories.

    Trajectories run in blocks (see :mod:`jumpqec._kernels`); jump
    selections do not depend on how they are grouped.  The mean density
    matrix series (outer products averaged over trajectories) is kept on
    the subsampled grid of :func:`density_sample_indices`; pass
    ``collect_density=False`` to skip it for large registers.  The engine
    sums it in the code's eigenframe, and each sample is rotated back to
    the computational basis, ``2n`` one-qubit products per sample (none for
    the pair).  The record's times are ``arange(steps + 1) * dt`` and the
    density times ``sample_indices * dt``, the oracle's grid.  A series
    over ``DENSITY_BUDGET_BYTES`` raises ``ValueError`` before any setup; a
    step too large for its trajectory raises :class:`StepSizeError`.
    """
    sample_indices = density_sample_indices(cfg.steps)
    if collect_density:
        _require_density_budget(cfg, sample_indices.shape[0])
    setup = prepare(cfg)
    rho_sum = None
    if collect_density:
        dim = setup.psi0.shape[0]
        rho_sum = np.zeros((sample_indices.shape[0], dim, dim), dtype=np.complex128)
    record = _run_blocks(cfg, setup, sample_indices, rho_sum)
    if rho_sum is None:
        return EnsembleResult(record, None, None)
    rho_sum /= cfg.trajectories  # in place, so the mean is not a second series
    _rotate_back(setup.code, rho_sum)
    return EnsembleResult(record, sample_indices * cfg.dt, rho_sum)


def _run_blocks(
    cfg: SimConfig,
    setup: SimulationSetup,
    sample_indices: np.ndarray,
    rho_sum: np.ndarray | None,
) -> FidelityRecord:
    """Run every trajectory of ``cfg`` block by block and pool their statistics.

    Each block adds its frame density sums ``psi psi^dag`` into ``rho_sum``
    at ``sample_indices`` when it is given, whatever it holds already.
    """
    steps, n_traj = cfg.steps, cfg.trajectories
    infid_sum = np.zeros(steps + 1)
    infid_m2 = np.zeros(steps + 1)
    jump_sum = np.zeros(steps + 1, dtype=np.int64)
    width = _kernels.block_width(setup.kraus, steps)
    for start in range(0, n_traj, width):
        indices = range(start, min(start + width, n_traj))
        block = _run_block(cfg, setup, indices, sample_indices, rho_sum)
        if start:  # pool the blocks' squared deviations (Chan et al.)
            gap = block.infid_sum / len(indices) - infid_sum / start
            infid_m2 += gap * gap * (start * len(indices) / indices.stop)
        infid_sum += block.infid_sum
        infid_m2 += block.infid_m2
        jump_sum += block.jump_counts
    return FidelityRecord(
        times=np.arange(steps + 1) * cfg.dt,
        mean_fidelity=np.clip(1.0 - infid_sum / n_traj, 0.0, 1.0),
        std_fidelity=np.sqrt(infid_m2 / n_traj),
        jump_counts=jump_sum,
    )


def _rotate_back(code: StabilizerCode, series: np.ndarray) -> None:
    """Rotate a frame density series to the computational basis in place.

    ``CHUNK`` samples at a time keep the temporaries small.
    """
    for i in range(0, series.shape[0], CHUNK):
        series[i : i + CHUNK] = code.operator_from_frame(series[i : i + CHUNK])


def trace_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Half the trace norm of ``a - b``, per pair if both are ``(..., d, d)`` stacks.

    ``CHUNK`` pairs per eigensolve keep its three temporary stacks small next
    to the series: one over a whole series raised an n=4 peak RSS by 26 %.
    """
    a, b = np.broadcast_arrays(a, b)
    if a.ndim == 2:
        return trace_distance(a[None], b[None])[0]
    distances = []
    for i in range(0, a.shape[0], CHUNK):
        diff = a[i : i + CHUNK] - b[i : i + CHUNK]
        diff = (diff + diff.conj().swapaxes(-1, -2)) / 2.0
        distances.append(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1))
    return np.concatenate(distances)


def master_equation_oracle(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Evolve the unconditioned master equation on the ensemble's grid.

    ``rho' = K rho + rho K^dag + sum_k A_k rho A_k^dag``, with the no-jump
    generator ``K`` (minus the sum of the terms) and the jumps
    ``A_k = E_k + mu_k`` of the Kraus set :func:`prepare` builds with
    feedback off; the offsets cancel, and feedback plays no role.  When
    every term is local, as without driving, the samples are the exact
    product ``exp(L t) = (x)_q exp(L_q t)`` of per-qubit 4x4 propagators,
    16 samples per product from each chunk's settled first sample;
    otherwise the density moves by classical fixed-step RK4 with internal
    substeps no longer than 1e-3 of the characteristic evolution time.  The
    density evolves in the code's eigenframe from ``psi0 psi0^dag``, and the
    series is rotated back to the computational basis on return; every
    sample (every grid step under RK4) is re-symmetrized, and a trace drift
    beyond 1e-6 aborts.  Returns ``(sampled times, density matrices)``; a
    series over ``DENSITY_BUDGET_BYTES`` raises ``ValueError`` before any
    setup, and RK4 work over ``RK4_WORK_BUDGET`` before the first substep.
    """
    sample_indices = density_sample_indices(cfg.steps)
    _require_density_budget(cfg, sample_indices.shape[0])
    setup = prepare(replace(cfg, feedback_enabled=False))
    series = _frame_oracle(setup, sample_indices)
    _rotate_back(setup.code, series)
    return sample_indices * cfg.dt, series


def oracle_distances(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Trace distance of the ensemble's mean density to the oracle's per sample.

    Equal to ``trace_distance(run_ensemble(cfg).mean_density,
    master_equation_oracle(cfg)[1])``, but one density series is held: the
    oracle's frame series, scaled in place by ``-N`` for ``N`` trajectories,
    gains each block's density sums and is divided by ``N``.  The trace norm
    does not see the frame, so nothing is rotated.  The config is prepared
    once; the oracle evolves first, so RK4 work over ``RK4_WORK_BUDGET`` is
    refused before any trajectory runs.  Returns ``(sampled times,
    distances)``.  Feedback on raises ``ValueError``, and so does a series
    over ``DENSITY_BUDGET_BYTES``, before any setup.
    """
    if cfg.feedback_enabled:
        raise ValueError(
            "oracle_distances needs feedback off: the master-equation oracle has "
            "no jump corrections, so the distance would mean nothing"
        )
    sample_indices = density_sample_indices(cfg.steps)
    _require_density_budget(cfg, sample_indices.shape[0])
    setup = prepare(cfg)
    diff = _frame_oracle(setup, sample_indices)
    diff *= -cfg.trajectories
    _run_blocks(cfg, setup, sample_indices, diff)
    diff /= cfg.trajectories
    return sample_indices * cfg.dt, trace_distance(diff, 0.0)


def _frame_oracle(setup: SimulationSetup, sample_indices: np.ndarray) -> np.ndarray:
    """The oracle's density series in the frame, from ``setup.psi0``."""
    rho0 = np.outer(setup.psi0, setup.psi0.conj())
    if any(generator is not None for _, _, generator in setup.kraus.terms):
        return _rk4_series(setup.kraus, sample_indices, rho0)
    return _product_series(setup.kraus, sample_indices, rho0)


def _settle(rhos: np.ndarray, times: np.ndarray, remedy: str) -> None:
    """Re-symmetrize the ``(k, d, d)`` stack ``rhos`` in place.

    The first sample whose trace drifts beyond 1e-6 aborts, named by its
    time ``times[i]``.
    """
    rhos += rhos.conj().swapaxes(1, 2)
    rhos /= 2.0
    drift = np.abs(np.trace(rhos, axis1=1, axis2=2).real - 1.0)
    if (drift > 1e-6).any():
        i = int(np.argmax(drift > 1e-6))
        raise StepSizeError(
            f"oracle trace drifted by {drift[i]:.3e} at t={times[i]:.6g}; {remedy}"
        )


def _rk4_series(
    ks: KrausSet, sample_indices: np.ndarray, rho0: np.ndarray
) -> np.ndarray:
    """RK4 over the grid from the frame density ``rho0``, settling every grid step.

    ``K`` and the jumps are densified once in the frame by
    :meth:`.codes.StabilizerCode.dense`, where the density evolves and the
    substep rule reads ``K``'s anti-Hermitian part.  Work over
    ``RK4_WORK_BUDGET`` raises ``ValueError`` before the first substep.
    """
    code, dim = ks.code, 2**ks.n
    ops = np.stack([
        -code.dense(ks.terms),
        *(code.dense([(ch.qubit, factor / math.sqrt(ks.dt), None)])
          for ch, factor in zip(ks.channels, ks.factors)),
    ])
    rate_scale = sum(
        float(np.trace(ch.operator.conj().T @ ch.operator).real) / 2.0
        for ch in ks.channels
    ) + max_abs(ops[0] - ops[0].conj().T) / 2.0
    h_target = ks.dt
    if rate_scale > 0:
        h_target = min(ks.dt, 1e-3 / rate_scale)
    substeps = max(1, int(math.ceil(ks.dt / h_target - 1e-12)))
    h = ks.dt / substeps
    steps = int(sample_indices[-1])
    work = steps * substeps * (len(ks.channels) + 2) * dim**3
    if work > RK4_WORK_BUDGET:
        raise ValueError(
            f"the driven oracle's RK4 work is {work:.2g} ({steps} steps x "
            f"{substeps} substeps x {len(ks.channels) + 2} x {dim}^3), over its "
            f"budget of {RK4_WORK_BUDGET:.0e}; run it undriven, or on fewer "
            "qubits or a shorter duration"
        )

    k, jumps = ops[0], ops[1:]
    k_dag = k.conj().T
    wide = jumps.transpose(1, 0, 2).reshape(dim, -1)  # columns A_1 | ... | A_m
    jumps_dag = jumps.conj().transpose(0, 2, 1)

    def rhs(rho: np.ndarray) -> np.ndarray:
        # wide times the rows rho A_1^dag, ..., rho A_m^dag sums the jumps.
        return k @ rho + rho @ k_dag + wide @ (rho @ jumps_dag).reshape(-1, dim)

    out = np.empty((sample_indices.shape[0], dim, dim), dtype=np.complex128)
    out[0] = rho = rho0
    for i in range(1, sample_indices.shape[0]):
        for s in range(sample_indices[i - 1], sample_indices[i]):
            for _ in range(substeps):
                k1 = rhs(rho)
                k2 = rhs(rho + 0.5 * h * k1)
                k3 = rhs(rho + 0.5 * h * k2)
                k4 = rhs(rho + h * k3)
                rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            _settle(rho[None], [(s + 1) * ks.dt], "use a smaller dt")
        out[i] = rho
    return out


def _propagator_increments(
    ks: KrausSet, tau: float
) -> tuple[list[int], np.ndarray]:
    """The qubits that carry a channel, and their ``exp(L_q tau) - 1`` stacked.

    ``L_q = K_q (x) 1 + 1 (x) conj(K_q) + sum_k A_k (x) conj(A_k)`` is the
    4x4 matrix, on the row-major ``vec`` of a one-qubit density, of the
    Lindblad generator of qubit ``q``: ``K_q`` is minus the sum of the
    Kraus set's terms on ``q``, which must all be local, and the ``A_k`` are
    the factors of its channels over ``sqrt(dt)``, all frame data.
    """
    eye = np.eye(2)
    local = {ch.qubit: np.zeros((4, 4), dtype=np.complex128) for ch in ks.channels}
    for qubit, datum, _ in ks.terms:
        local[qubit] -= np.kron(datum, eye) + np.kron(eye, datum.conj())
    for ch, factor in zip(ks.channels, ks.factors):
        a = factor / math.sqrt(ks.dt)
        local[ch.qubit] += np.kron(a, a.conj())
    qubits = sorted(local)
    increments = np.empty((len(qubits), 4, 4), dtype=np.complex128)
    for row, q in enumerate(qubits):
        increments[row] = expm1(local[q] * tau)
    return qubits, increments


def _product_series(
    ks: KrausSet, sample_indices: np.ndarray, rho0: np.ndarray
) -> np.ndarray:
    """Exact per-qubit propagation of frame density ``rho0`` over ``sample_indices``.

    Every gap but the last is the stride; the last may be shorter.  The samples
    go in chunks of 16: sample ``j`` of a chunk is its settled first
    sample moved by the increments ``exp(L_q j stride dt) - 1``, from one
    table for ``j = 1..16``, one batched product per charged qubit.
    """
    n, dt = ks.n, ks.dt
    gaps = np.diff(sample_indices)
    qubits, step = _propagator_increments(ks, gaps[0] * dt)
    rows = {q: row for row, q in enumerate(qubits)}
    table = [step]  # the maps commute: (1 + a)(1 + b) - 1 = a + b + a b
    for _ in range(CHUNK - 1):
        table.append(table[-1] + step + table[-1] @ step)
    table = np.stack(table, axis=1)  # (charged qubits, 16, 4, 4)
    final = None
    if gaps[-1] != gaps[0]:
        _, final = _propagator_increments(ks, gaps[-1] * dt)

    out = np.empty((sample_indices.shape[0], 2**n, 2**n), dtype=np.complex128)
    out[0] = rho0
    # Each density with axes (row_0, col_0, row_1, col_1, ...): qubit q's
    # (row, col) pair is the q-th base-4 digit of the flattened index.
    woven = out.reshape(-1, *(2,) * 2 * n).transpose(
        0, *[1 + axis for q in range(n) for axis in (q, n + q)]
    )
    remedy = (
        "the exact propagation lost trace, which no choice of dt changes; "
        "check the channel operators"
    )
    last = sample_indices.shape[0] - 1
    for start in range(0, last, CHUNK):
        stop = min(start + CHUNK, last)
        maps = table[:, : stop - start]
        if stop == last and final is not None:  # the shorter last gap
            maps = maps.copy()
            maps[:, -1] = final
            if stop - start > 1:
                before = table[:, stop - start - 2]
                maps[:, -1] += before + before @ final
        vec = woven[start].reshape(1, 4, -1)
        for q in range(n):
            # The product acts on the leading pair and moves it to the end,
            # so qubit q + 1's pair leads next.
            vec = vec.swapaxes(1, 2)
            if q in rows:
                moved = vec @ maps[rows[q]].swapaxes(1, 2)
                moved += vec
                vec = moved
            vec = vec.reshape(vec.shape[0], 4, -1)
        chunk = slice(start + 1, stop + 1)
        woven[chunk] = vec.reshape(-1, *(2,) * 2 * n)
        _settle(out[chunk], sample_indices[chunk] * dt, remedy)
    return out

