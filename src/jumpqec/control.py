"""Driving Hamiltonian and jump-correction synthesis.

No-jump evolution drags codespace states via the traceless backaction of
each channel; the driving Hamiltonian built here adds the matching
coherent term so the two cancel on the codespace, leaving pure amplitude
decay (``nojump_invariance_check`` measures the residual, which is
machine-precision rather than O(dt^2)).  Detected jumps are undone by a
per-channel correction unitary that maps the jumped codespace isometrically
back onto itself, built in closed form (see :func:`_correction`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import (
    ErrorChannel,
    KrausSet,
    effective_jump_operator,
    jump_backaction,
)
from .codes import (
    CorrectabilityReport,
    StabilizerCode,
    anticommuting_terms,
    sector_assignment,
    verify_correctability,
)
from .linalg import IDENTITY, bloch_matrix, on_qubit

__all__ = [
    "CorrectabilityError",
    "Correction",
    "ControlPlan",
    "NoJumpInvariance",
    "driving_hamiltonian",
    "build_control_plan",
    "nojump_invariance_check",
]

#: Effective rate below which a channel never fires and has no correction.
NULL_CHANNEL_ATOL = 1e-12


class CorrectabilityError(Exception):
    """The code does not satisfy the codespace backaction condition."""

    def __init__(self, message: str, report: CorrectabilityReport):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True, eq=False)
class Correction:
    """Recovery unitary for one channel, kept as its one-qubit data.

    ``R = (1 + (cos theta - 1)(P + DPD) - sin theta (DP - PD)) U^dag`` with
    ``U^dag`` and the unit backaction axis ``D`` acting on ``qubit``, and
    ``P`` the projector onto the rows of ``codespace`` (see
    :func:`_correction`).  ``null_channel`` marks channels with
    vanishing effective rate: no jump can ever fire, and ``R`` is the
    identity.
    """

    u_dag: np.ndarray
    axis: np.ndarray
    theta: float
    qubit: int
    codespace: np.ndarray
    null_channel: bool = False

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``R v`` for a vector or the columns of a ``(dim, k)`` matrix."""
        w = on_qubit(self.u_dag, self.qubit, v)
        if not self.theta:
            return w
        c, d, q = self.codespace, self.axis, self.qubit
        # Codespace coefficients a = C* w and b = C* D w, so that P w = C^T a,
        # P D w = C^T b, D P w = D C^T a and D P D w = D C^T b.
        a = (c @ w.conj()).conj()
        b = (c @ on_qubit(d, q, w).conj()).conj()
        cos, sin = math.cos(self.theta) - 1.0, math.sin(self.theta)
        w += c.T @ (cos * a + sin * b)
        w += on_qubit(d, q, c.T @ (cos * b - sin * a))
        return w


@dataclass(frozen=True, eq=False)
class ControlPlan:
    """Synthesized feedback controls for a channel set on a code.

    Attributes:
        driving: Hermitian driving Hamiltonian (units of rate).
        corrections: map from each channel object to its :class:`Correction`.
        sector_map: axis letter -> generator index used to cancel that
            Pauli axis; the assignment is the same for every channel.
            ``None`` on the single-generator branch.
    """

    driving: np.ndarray
    corrections: dict[ErrorChannel, Correction]
    sector_map: dict[str, int] | None


class NoJumpInvariance(NamedTuple):
    a: float
    residual: float


def _driving(
    channels: tuple[ErrorChannel, ...] | list[ErrorChannel], code: StabilizerCode
) -> np.ndarray:
    """Sum of Kronecker products of 2x2 factors, one product per term."""
    gens = [[bloch_matrix(axis) for axis in g] for g in code.generators]
    h = np.zeros((2**code.n,) * 2, dtype=np.complex128)
    for ch in channels:
        q, mu, e = ch.qubit, ch.offset, ch.operator
        # (i/4)[T, s_q] is Hermitian whatever T and s_q; where they
        # anticommute, as correctability requires, it is (i/2) T s_q.
        terms = [
            (gens[g], 0.25j * (t @ gens[g][q] - gens[g][q] @ t))
            for t, g in anticommuting_terms(ch, code)
        ]
        terms.append(([IDENTITY] * code.n, 0.5j * (np.conj(mu) * e - mu * e.conj().T)))
        for factors, local in terms:
            # Folded from the last factor, each kron broadcasts over the long
            # trailing axis: 2.5x faster than from the first at n=8.
            slots = reversed([*factors[:q], local, *factors[q + 1 :]])
            h += functools.reduce(lambda acc, f: np.kron(f, acc), slots)
    return h


def _require_correctable(
    code: StabilizerCode,
    channels: tuple[ErrorChannel, ...] | list[ErrorChannel],
) -> None:
    """Raise :class:`CorrectabilityError` unless ``code`` protects every channel.

    The message names the channel with the largest residual in
    :func:`verify_correctability`'s report, which is attached to the error.
    """
    report = verify_correctability(code, channels)
    if not report.passed:
        worst = report.residuals.index(report.max_residual)
        raise CorrectabilityError(
            f"channel {report.labels[worst]!r} is not correctable on this code "
            f"(residual {report.max_residual:.3e})",
            report,
        )


def driving_hamiltonian(
    channels: tuple[ErrorChannel, ...] | list[ErrorChannel], code: StabilizerCode
) -> np.ndarray:
    """Hermitian Hamiltonian cancelling the no-jump backaction on the codespace.

    Each channel contributes ``(i/4)[T_q, S]`` for its embedded traceless
    backaction ``T_q`` and the generator ``S`` that anticommutes with it
    (axis by axis on the two-generator branch), plus an unraveling-offset
    term ``(i/2)(mu* E - mu E^dag)`` local to its qubit.  The commutator
    makes every term Hermitian by construction; on a correctable code,
    where ``T_q`` and ``S`` anticommute, it equals ``(i/2) T_q S``.

    Raises :class:`CorrectabilityError` when the code does not protect
    against the channels (the construction has no meaning then).
    """
    _require_correctable(code, channels)
    return _driving(channels, code)


def _correction(ch: ErrorChannel, code: StabilizerCode) -> Correction:
    """Unitary undoing a detected jump of ``ch`` on the codespace.

    With ``A`` the embedded effective jump operator and ``c'`` the
    channel's rate, ``R A v = sqrt(c') v`` for every codespace vector ``v``.

    The 2x2 factor's polar decomposition (one 2x2 SVD) is ``U |A|`` with
    ``|A| = alpha + beta d_hat.sigma``, ``d.sigma`` the backaction.  With
    ``P`` the codespace projector, ``D`` the embedded ``d_hat.sigma`` and
    ``theta = atan2(beta, alpha)``,
    ``R = (1 + (cos theta - 1)(P + DPD) - sin theta (DP - PD)) U^dag``:
    since ``PDP = 0``, the bracket rotates ``alpha v + beta D v`` back to
    ``sqrt(c') v`` and ``R U`` is the identity off ``span(P, DP)``, so only
    the 2x2 SVD depends on the LAPACK build.  ``d = 0`` gives ``U^dag``.

    Channels with ``c' = 0`` never fire; the result is the identity with
    ``null_channel`` set.  The code must protect ``ch``, as
    :func:`build_control_plan` checks.
    """
    ba = jump_backaction(ch)
    if ba.rate <= NULL_CHANNEL_ATOL:
        zero = np.zeros((2, 2), dtype=np.complex128)
        return Correction(IDENTITY, zero, 0.0, ch.qubit, code.codespace, True)
    w, s, vh = np.linalg.svd(effective_jump_operator(ch))
    # With d = 0 the axis is zero, so is theta, and R is U^dag.
    axis = ba.matrix / (float(np.linalg.norm(ba.bloch)) or 1.0)
    modulus = (vh.conj().T * s) @ vh
    theta = math.atan2(np.trace(axis @ modulus).real, np.trace(modulus).real)
    return Correction((w @ vh).conj().T, axis, theta, ch.qubit, code.codespace)


def build_control_plan(
    channels: tuple[ErrorChannel, ...] | list[ErrorChannel], code: StabilizerCode
) -> ControlPlan:
    """Assemble driving Hamiltonian, corrections, and sector map in one pass.

    Correctability is verified once for the whole channel set.
    """
    _require_correctable(code, channels)
    driving = _driving(channels, code)
    driving.flags.writeable = False
    corrections = {ch: _correction(ch, code) for ch in channels}
    if len(code.generators) == 2:
        sector_map = {ax: sector_assignment(ax, code.generators) for ax in "xyz"}
    else:
        sector_map = None
    return ControlPlan(driving=driving, corrections=corrections, sector_map=sector_map)


def nojump_invariance_check(ks: KrausSet, code: StabilizerCode) -> NoJumpInvariance:
    """Measure how far no-jump evolution is from a scalar on the codespace.

    Returns ``a = 1 - (sum of channel rates) * dt / 2`` and the maximum
    over codespace basis vectors ``v`` of ``||Omega_0 v - a v||_2``.  When
    the Kraus set was built with the matching driving Hamiltonian the
    no-jump operator equals ``a`` plus terms annihilating the codespace,
    so the residual sits at machine precision.
    """
    total_rate = sum(jump_backaction(ch).rate for ch in ks.channels)
    a = 1.0 - total_rate * ks.dt / 2.0
    basis = code.codespace
    if basis.shape[1] != ks.no_jump.shape[0]:
        raise ValueError("code and Kraus set act on different register sizes")
    deviation = basis @ ks.no_jump.T - a * basis
    residual = float(np.max(np.linalg.norm(deviation, axis=1))) if basis.size else 0.0
    return NoJumpInvariance(a=a, residual=residual)
