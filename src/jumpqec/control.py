"""Driving Hamiltonian and jump-correction synthesis.

No-jump evolution drags codespace states via the traceless backaction of
each channel; the driving Hamiltonian built here adds the matching
coherent term so the two cancel on the codespace, leaving pure amplitude
decay (``nojump_invariance_check`` measures the residual, which is
machine-precision rather than O(dt^2)).  Detected jumps are undone by a
per-channel correction unitary that maps the jumped codespace isometrically
back onto itself, built in closed form (see :func:`_correction`).

The controls are one-qubit data in the code's eigenframe, the frame the
trajectory engine runs in.  The driving Hamiltonian is kept as the
``(qubit, 2x2 datum, generator)`` terms of :attr:`.channels.KrausSet.terms`,
which :meth:`.codes.StabilizerCode.dense` sums; each :class:`Correction`
holds its 2x2 data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import ErrorChannel, KrausSet, effective_jump_operator
from .codes import (
    CorrectabilityReport,
    StabilizerCode,
    anticommuting_terms,
    verify_correctability,
)
from .linalg import bloch_matrix, on_qubit

__all__ = [
    "CorrectabilityError",
    "Correction",
    "ControlPlan",
    "NoJumpInvariance",
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
    ``P`` the codespace projector (see :func:`_correction`).  ``u_dag`` and
    ``axis`` are in the eigenframe of ``code``, and so is :meth:`apply`,
    which projects through ``code``.
    """

    u_dag: np.ndarray
    axis: np.ndarray
    theta: float
    qubit: int
    code: StabilizerCode

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``R v`` for a frame vector or the columns of a ``(dim, k)`` matrix."""
        w = on_qubit(self.u_dag, self.qubit, v)
        if not self.theta:
            return w
        d, q = self.axis, self.qubit
        a = self.code.project(w)
        b = self.code.project(on_qubit(d, q, w))  # P w and P D w
        cos, sin = math.cos(self.theta) - 1.0, math.sin(self.theta)
        w += cos * a + sin * b
        w += on_qubit(d, q, cos * b - sin * a)
        return w


@dataclass(frozen=True, eq=False)
class ControlPlan:
    """Synthesized feedback controls for a channel set on a code.

    Attributes:
        driving_terms: the driving Hamiltonian as the frame terms that
            :func:`.kraus_set` appends to its own and ``synthesize`` reports,
            one 2x2 factor per term (see :func:`_driving_terms`).
        corrections: one :class:`Correction` per channel, in the order the
            channels were given.
    """

    driving_terms: tuple[tuple[int, np.ndarray, int | None], ...]
    corrections: tuple[Correction, ...]


class NoJumpInvariance(NamedTuple):
    a: float
    residual: float


def _driving_terms(
    channels: tuple[ErrorChannel, ...] | list[ErrorChannel], code: StabilizerCode
) -> tuple[tuple[int, np.ndarray, int | None], ...]:
    """The driving Hamiltonian ``H`` as frame terms, channel by channel.

    A term of ``H`` is a Hermitian 2x2 factor ``F`` on qubit ``q`` times
    generator ``g``'s factors ``s_j`` on the other qubits.  It is kept as
    ``(q, V_q^dag (i F s_q) V_q, g)``, or ``(q, V_q^dag (i F) V_q, None)``
    for an offset term, which acts on ``q`` alone, so that ``code.dense`` of
    the terms is ``i H`` in the frame.  ``synthesize`` reports each ``F``.
    """
    gens = [[bloch_matrix(axis) for axis in g] for g in code.generators]
    terms = []
    for ch in channels:
        q, mu, e = ch.qubit, ch.offset, ch.operator
        for t, g in anticommuting_terms(ch, code):
            # (i/4)[T, s_q] is Hermitian whatever T and s_q; where they
            # anticommute, as correctability requires, it is (i/2) T s_q.
            local = 0.25j * (t @ gens[g][q] - gens[g][q] @ t) @ gens[g][q]
            terms.append((q, code.to_frame(1j * local, q), g))
        local = 0.5j * (np.conj(mu) * e - mu * e.conj().T)
        terms.append((q, code.to_frame(1j * local, q), None))
    return tuple(terms)


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

    Channels with ``c' = 0`` never fire; the result is the identity.  The
    code must protect ``ch``, as :func:`build_control_plan` checks.
    """
    ba = ch.backaction
    if ba.rate <= NULL_CHANNEL_ATOL:
        return Correction(np.eye(2), np.zeros((2, 2)), 0.0, ch.qubit, code)
    w, s, vh = np.linalg.svd(effective_jump_operator(ch))
    # With d = 0 the axis is zero, so is theta, and R is U^dag.
    axis = ba.matrix / (float(np.linalg.norm(ba.bloch)) or 1.0)
    modulus = (vh.conj().T * s) @ vh
    theta = math.atan2(np.trace(axis @ modulus).real, np.trace(modulus).real)
    # One rotation, so U^dag and D share a dtype.
    u_dag, axis = code.to_frame(np.stack([(w @ vh).conj().T, axis]), ch.qubit)
    return Correction(u_dag, axis, theta, ch.qubit, code)


def build_control_plan(
    channels: tuple[ErrorChannel, ...] | list[ErrorChannel], code: StabilizerCode
) -> ControlPlan:
    """Assemble the driving Hamiltonian and the corrections in one pass.

    Correctability is verified once for the whole channel set.  The driving
    terms pair each backaction term with its generator by
    :func:`.codes.anticommuting_terms`.
    """
    _require_correctable(code, channels)
    corrections = tuple(_correction(ch, code) for ch in channels)
    return ControlPlan(_driving_terms(channels, code), corrections)


def nojump_invariance_check(ks: KrausSet) -> NoJumpInvariance:
    """Measure how far no-jump evolution is from a scalar on the codespace.

    Returns ``a = 1 - (sum of channel rates) * dt / 2`` and the maximum
    over codespace basis vectors ``v`` of ``||Omega_0 v - a v||_2``, taken
    in the eigenframe of the code ``ks`` was built for, where the basis
    vectors are a scatter (:meth:`.codes.StabilizerCode.encode`).  When the
    Kraus set was built with the matching driving terms the no-jump
    operator equals ``a`` plus terms annihilating the codespace, so the
    residual sits at machine precision.
    """
    code = ks.code
    total_rate = sum(ch.backaction.rate for ch in ks.channels)
    a = 1.0 - total_rate * ks.dt / 2.0
    basis = code.encode(np.eye(2**code.logical_count))
    deviation = ks.no_jump @ basis - a * basis
    residual = float(np.max(np.linalg.norm(deviation, axis=0)))
    return NoJumpInvariance(a=a, residual=residual)
