"""Detected error channels and their first-order Kraus unraveling.

A monitored decoherence channel acting on qubit ``j`` is described by a
2x2 operator ``E`` plus a complex detection offset ``mu = gamma * e^{i phi}``
that selects the unraveling (``gamma = 0`` is plain photon counting).  When
the detector fires, the register is hit by the jump operator
``(E + mu) sqrt(dt)`` embedded at the channel's qubit; between detections
the no-jump operator

    Omega_0 = 1 - dt * (i H + sum_ch (E^dag E / 2 + mu* E + |mu|^2 / 2))

applies.  This no-jump form is the unique first-order choice for which the
Kraus set is trace preserving up to O(dt^2).  Its generator
``K = (Omega_0 - 1) / dt`` satisfies ``K + K^dag = -sum_k A_k^dag A_k``
with the jumps ``A_k = E_k + mu_k``, so without feedback the ensemble
average follows the Lindblad equation
``rho' = K rho + rho K^dag + sum_k A_k rho A_k^dag``, whose offsets
cancel.  The Kraus set keeps the local terms it sums into ``K``
(:attr:`KrausSet.terms`), the one source of these dynamics.

Everything the construction reads of a channel is one split,
``(E + mu)^dag (E + mu) = c 1 + d . sigma``: each channel derives it once,
when it is built (:attr:`ErrorChannel.backaction`), and code synthesis,
the controls and the Kraus set read it there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .linalg import IDENTITY, PAULIS

if TYPE_CHECKING:
    from .codes import StabilizerCode

__all__ = [
    "ErrorChannel",
    "Backaction",
    "KrausSet",
    "effective_jump_operator",
    "kraus_set",
]

#: Largest total per-step jump probability before a KrausSet is flagged.
WEAK_COUPLING_BUDGET = 0.1


def _frozen_array(value, dtype=np.complex128, shape=None) -> np.ndarray:
    arr = np.array(value, dtype=dtype)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ErrorChannel:
    """One continuously detected decoherence channel on a single qubit.

    Attributes:
        qubit: register slot the 2x2 ``operator`` acts on.
        operator: arbitrary complex 2x2 jump operator, units sqrt(rate).
        gamma: amplitude of the unraveling offset, ``gamma >= 0``.
        phi: phase of the offset, stored in [0, 2 pi).
        label: opaque identifier used in logs and reports.
        backaction: the channel's :class:`Backaction`, derived once here.
            Its ``bloch`` and ``rate`` read only the Hermitian part of
            ``(E + mu)^dag (E + mu)``, so the product's rounding refuses no
            channel; a product that overflows raises ``ValueError``.
    """

    qubit: int
    operator: np.ndarray
    gamma: float = 0.0
    phi: float = 0.0
    label: str | int | None = None
    backaction: Backaction = field(init=False, repr=False)

    def __post_init__(self) -> None:
        qubit = self.qubit
        if isinstance(qubit, bool) or not isinstance(qubit, (int, np.integer)):
            raise ValueError(f"qubit index must be an integer, got {qubit!r}")
        if qubit < 0:
            raise ValueError(f"qubit index must be non-negative, got {qubit}")
        gamma, phi = float(self.gamma), float(self.phi)
        if not (math.isfinite(gamma) and math.isfinite(phi)):
            raise ValueError(f"gamma and phi must be finite, got {gamma} and {phi}")
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        operator = _frozen_array(self.operator, shape=(2, 2))
        if not np.isfinite(operator).all():
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "qubit", int(qubit))
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "phi", phi % (2.0 * math.pi))
        with np.errstate(over="ignore", invalid="ignore"):
            a = effective_jump_operator(self)
            gram = a.conj().T @ a
            rate = float(np.trace(gram).real) / 2.0
            matrix = gram - rate * IDENTITY
            bloch = [float(np.trace(p @ matrix).real) / 2.0 for p in PAULIS]
        if not (np.isfinite(matrix).all() and np.isfinite(bloch).all()):
            raise ValueError(
                "(E + mu)^dag (E + mu) overflows a float; rescale E and gamma"
            )
        object.__setattr__(self, "backaction", Backaction(matrix, bloch, rate))

    @property
    def offset(self) -> complex:
        """Complex unraveling offset ``mu = gamma * e^{i phi}``."""
        return self.gamma * cmath.exp(1j * self.phi)


@dataclass(frozen=True, eq=False)
class Backaction:
    """Traceless part of ``(E + mu)^dag (E + mu)``: :attr:`ErrorChannel.backaction`.

    ``matrix = bloch . sigma`` is the piece whose codespace matrix elements
    must vanish for the jump to be exactly reversible; ``rate`` is the
    scalar remainder ``tr[(E + mu)^dag (E + mu)] / 2``, which equals the
    channel's jump rate on any correctable codespace.
    """

    matrix: np.ndarray
    bloch: np.ndarray
    rate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _frozen_array(self.matrix, shape=(2, 2)))
        object.__setattr__(
            self, "bloch", _frozen_array(self.bloch, dtype=float, shape=(3,))
        )


@dataclass(frozen=True, eq=False)
class KrausSet:
    """First-order Kraus decomposition of one time step of length ``dt``.

    Both operators are in the eigenframe of ``code``, the code they were
    built for (:class:`.codes.StabilizerCode`), whose register size is
    ``n``.  ``factors`` stacks the ``(m, 2, 2)`` one-qubit jump factors
    ``sqrt(dt) (E + mu)`` of ``channels`` in input order, each acting on
    its channel's qubit; ``no_jump`` is the dense between-detections
    operator on the full register, ``1 + dt K``.  ``terms`` holds the
    ``(qubit, 2x2 frame datum, generator or None)`` triples whose embedded
    products sum to ``-K`` (:meth:`.codes.StabilizerCode.dense`).
    ``warnings`` is non-empty when the requested step violates the
    weak-coupling budget (the set is still usable).
    """

    dt: float
    no_jump: np.ndarray
    factors: np.ndarray
    channels: tuple[ErrorChannel, ...]
    code: StabilizerCode
    terms: tuple[tuple[int, np.ndarray, int | None], ...]
    warnings: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        """Register size, the code's."""
        return self.code.n


def effective_jump_operator(channel: ErrorChannel) -> np.ndarray:
    """Single-qubit factor ``E + mu * 1`` of the channel's jump operator."""
    return channel.operator + channel.offset * IDENTITY


def kraus_set(channels, code, dt: float, driving=()) -> KrausSet:
    """Build the jump and no-jump operators for one step of length ``dt``.

    Everything is built in ``code``'s eigenframe, from 2x2 data that
    :meth:`.codes.StabilizerCode.to_frame` rotates: the factors, and the
    no-jump operator ``1 - dt [sum_q M_q + sum_g (sum_q i L_q^g) S_g]``.
    ``M_q`` sums qubit ``q``'s channel terms ``E^dag E / 2 + mu* E +
    |mu|^2 / 2`` and ``i`` times the local offset terms of ``driving``;
    each generator term of ``driving`` is ``i L_q^g S_g``, with ``S_g`` the
    generator in the frame.  ``driving`` holds the driving Hamiltonian's
    frame terms (:attr:`.control.ControlPlan.driving_terms`), appended
    after the channel terms; empty means undriven.

    ``no_jump`` is one dense array (:meth:`.codes.StabilizerCode.dense`),
    built once in the result type of the rotated data: float64 exactly when
    all of them are real.  A step whose worst-case total jump probability
    exceeds ``WEAK_COUPLING_BUDGET`` is flagged in ``warnings`` rather than
    rejected, since stressing the first-order scheme can be deliberate.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = code.n
    sqrt_dt = math.sqrt(dt)
    factors, terms = [], []  # terms: (qubit, 2x2 frame datum, generator or None)
    probability_budget = 0.0
    for ch in channels:
        if not 0 <= ch.qubit < n:
            raise ValueError(f"channel qubit {ch.qubit} out of range for n={n}")
        factors.append(code.to_frame(effective_jump_operator(ch) * sqrt_dt, ch.qubit))
        mu, e = ch.offset, ch.operator
        local = 0.5 * (e.conj().T @ e) + np.conj(mu) * e + 0.5 * abs(mu) ** 2 * IDENTITY
        terms.append((ch.qubit, code.to_frame(local, ch.qubit), None))
        ba = ch.backaction
        probability_budget += (ba.rate + float(np.abs(ba.bloch).sum())) * dt
    terms += driving
    factors = np.array(factors).reshape(-1, 2, 2)
    for frozen in (factors, *(datum for _, datum, _ in terms)):
        frozen.flags.writeable = False

    dim = 2**n
    dtype = np.result_type(np.float64, factors, *(datum for _, datum, _ in terms))
    no_jump = code.dense(terms, dtype)
    no_jump *= -dt
    no_jump.reshape(-1)[:: dim + 1] += 1.0
    no_jump.flags.writeable = False
    warnings = ()
    if probability_budget > WEAK_COUPLING_BUDGET:
        warnings = (
            f"step size dt={dt} gives total jump probability bound "
            f"{probability_budget:.3g} > {WEAK_COUPLING_BUDGET}; "
            "first-order errors may be large",
        )
    return KrausSet(
        dt=float(dt),
        no_jump=no_jump,
        factors=factors,
        channels=tuple(channels),
        code=code,
        terms=tuple(terms),
        warnings=warnings,
    )

