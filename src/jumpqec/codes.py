"""Stabilizer-code synthesis for sets of detected error channels.

Two constructions cover every channel set, and :func:`codespace_basis`
builds their codespaces, and only theirs, in closed form:

* If, on each qubit, the backaction Bloch vectors of that qubit's channels
  span at most a plane, there is a single-qubit Hermitian involution
  anticommuting with all of them.  The tensor product of those involutions
  is one stabilizer generator whose +1 eigenspace encodes ``n - 1``
  logical qubits: the even-parity states rotated by each qubit's eigenframe.
* Otherwise (some qubit carries a full rank-3 constraint set) the
  generalized erasure pair ``X^n, Z^n`` is used: each Pauli axis
  anticommutes with one of the two generators (``PAIR_SECTORS``) no
  matter what the backaction is.  This requires an even register and
  encodes ``n - 2`` logical qubits in GHZ-type states
  ``(|j> + |jbar>) / sqrt(2)``.

Correctability of a code against a channel is the vanishing, on the
codespace, of every matrix element of the channel's traceless backaction
(a Knill-Laflamme-type condition for errors whose time and location are
known).  In closed form the largest element is ``|d . n_q|`` on one
generator and 0 on the pair (see :func:`verify_correctability`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .channels import ErrorChannel
from .linalg import IDENTITY, PAULIS, bloch_matrix, max_abs, on_qubit

__all__ = [
    "RankThreeError",
    "EvenQubitCountRequired",
    "StabilizerCode",
    "CorrectabilityReport",
    "null_space_involution",
    "codespace_basis",
    "build_code",
    "anticommuting_terms",
    "verify_correctability",
]

#: Relative singular-value threshold for the rank of a constraint set.
RANK_RTOL = 1e-9

#: Residual above which a codespace matrix element counts as nonzero.
CORRECTABILITY_ATOL = 1e-10

_AXIS_PAULI = dict(zip("xyz", PAULIS))

#: The generator of ``(X^n, Z^n)`` that anticommutes with ``sigma_axis`` on
#: every qubit: ``Z^n`` for x, ``X^n`` for z, and ``X^n`` for y, which
#: anticommutes with both.
PAIR_SECTORS = {"x": 1, "y": 0, "z": 0}


class CodeSynthesisError(Exception):
    """Base class for failures while constructing a stabilizer code."""


class RankThreeError(CodeSynthesisError):
    """Constraint Bloch vectors span all of R^3; no single involution exists."""


class EvenQubitCountRequired(CodeSynthesisError):
    """The X^n / Z^n construction only stabilizes even registers."""


@dataclass(frozen=True, eq=False)
class StabilizerCode:
    """A stabilizer codespace over ``n`` qubits, and the frame a run lives in.

    The frame is ``V = (x)_q V_q``, where the columns of ``V_q`` are the +1
    and -1 eigenvectors of the generator's axis on qubit ``q``; for the pair
    ``(X^n, Z^n)`` it is the identity.  In the frame the single generator is
    ``Z^n``, the parity signs, and its codespace is spanned by the basis
    states of even parity; of the pair, ``Z^n`` is the parity signs and
    ``X^n`` reverses the index, so ``P psi`` is the even-parity part of
    ``(psi + psi[::-1]) / 2``.  The code is the one place that moves data
    between frames: :meth:`to_frame` rotates 2x2 data, :meth:`from_frame`
    and :meth:`operator_from_frame` rotate vectors and operators back.

    Attributes:
        n: physical qubit count.
        generators: tuple of generators; each is an ``(n, 3)`` array of
            unit Bloch vectors, one per qubit, and the generator matrix is
            the tensor product of the corresponding ``n_hat . sigma``
            involutions.  They must be a family :func:`codespace_basis`
            builds (``ValueError`` otherwise), and are stored read-only.
        frames: ``(n, 2, 2)`` read-only stack of the ``V_q``, or ``None``
            for the pair, whose frame is the computational basis.
    """

    n: int
    generators: tuple[np.ndarray, ...]
    frames: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        generators = tuple(np.array(g, dtype=float) for g in self.generators)
        frames = _frames(generators, self.n)
        for frozen in (*generators, *([] if frames is None else [frames])):
            frozen.flags.writeable = False
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "frames", frames)

    @property
    def logical_count(self) -> int:
        """Number of encoded qubits, ``n - len(generators)``."""
        return self.n - len(self.generators)

    @functools.cached_property
    def codespace(self) -> np.ndarray:
        """``(2**logical_count, 2**n)`` orthonormal rows spanning the joint +1
        eigenspace in the computational basis: the frame basis of
        :meth:`encode`, rotated back.  Read-only, built on first access.
        """
        frame_basis = self.encode(np.eye(2**self.logical_count))
        basis = np.ascontiguousarray(self.from_frame(frame_basis).T, np.complex128)
        basis.flags.writeable = False
        return basis

    @functools.cached_property
    def signs(self) -> np.ndarray:
        """``(2**n,)`` parity signs ``(-1)^popcount(j)``, ``Z^n`` in any frame."""
        signs = functools.reduce(np.kron, [(1.0, -1.0)] * self.n, np.ones(1))
        signs.flags.writeable = False
        return signs

    def to_frame(self, op: np.ndarray, qubit: int) -> np.ndarray:
        """``V_q^dag op V_q`` for 2x2 data (or a stack of it) on ``qubit``.

        The result is float64 when it is exactly real, else complex128.
        """
        op = np.asarray(op, dtype=np.complex128)
        if self.frames is not None:
            frame = self.frames[qubit]
            op = frame.conj().T @ op @ frame
        return op.real.copy() if not op.imag.any() else op

    def from_frame(self, m: np.ndarray) -> np.ndarray:
        """``V m`` for a frame vector ``(2**n,)`` or columns ``(2**n, k)``."""
        if self.frames is None:
            return m
        for q, frame in enumerate(self.frames):
            m = on_qubit(frame, q, m)
        return m

    def operator_from_frame(self, m: np.ndarray) -> np.ndarray:
        """``V m V^dag`` for frame operators ``(..., 2**n, 2**n)``.

        Costs ``2n`` one-qubit products for the whole stack, and nothing for
        the pair.
        """
        if self.frames is None:
            return m
        shape = m.shape
        # Axes (stack, row_0, ..., row_n-1, col_0, ..., col_n-1): each product
        # acts on the last axis and moves it to the front, so after all 2n
        # the stack axis is last.
        for frame in [*self.frames.conj()[::-1], *self.frames[::-1]]:
            m = frame @ m.reshape(-1, 2).T
        return np.ascontiguousarray(m.reshape(-1, m.size // 4**self.n).T).reshape(shape)

    def encode(self, coeffs: np.ndarray) -> np.ndarray:
        """Frame vector(s) with codespace coefficients ``(L,)`` or ``(L, k)``.

        A scatter: row ``k`` of :attr:`codespace` is, in the frame, the
        ``k``-th even-parity basis state, or for the pair
        ``(e_j + e_jbar) / sqrt(2)`` with ``j`` the ``k``-th even-parity
        index below ``2**(n-1)``.  Real coefficients give a float64 vector.
        """
        coeffs = np.asarray(coeffs)
        dim = 2**self.n
        even = np.flatnonzero(self.signs > 0)[: 2**self.logical_count]
        psi = np.zeros((dim, *coeffs.shape[1:]), dtype=np.result_type(coeffs, float))
        if self.frames is None:
            psi[even] = psi[dim - 1 - even] = coeffs * (1.0 / np.sqrt(2.0))
        else:
            psi[even] = coeffs
        return psi

    def project(self, m: np.ndarray) -> np.ndarray:
        """``P m`` in the frame, for a vector or the columns of a matrix."""
        if self.frames is None:
            m = (m + m[::-1]) / 2.0
        return m * (self.signs > 0).reshape(-1, *[1] * (m.ndim - 1))

    def dense(self, terms, dtype=np.complex128) -> np.ndarray:
        """``sum embed(datum, qubit) S_g`` over ``(qubit, datum, generator)`` terms.

        Each ``datum`` is 2x2 frame data on ``qubit``; ``S_g`` is generator
        ``generator`` in the frame (the identity for ``None``).  Returns the
        dense ``(2**n, 2**n)`` frame operator of ``dtype``; an embedded
        ``datum`` holds two entries per row, so each term costs ``O(2**n)``.
        """
        dim = 2**self.n
        out = np.zeros((dim, dim), dtype)
        rows = np.arange(dim)
        for qubit, datum, generator in terms:
            shift = self.n - 1 - qubit
            bit = (rows >> shift) & 1
            cols = np.stack([rows, rows ^ (1 << shift)])
            vals = np.stack([datum[bit, bit], datum[bit, 1 - bit]])
            if generator is not None:
                # S_g e_j is sign_j e_{pi(j)} with pi an involution: entry (i, c)
                # of embed(datum) moves to column pi(c) with that column's sign.
                if self.frames is None and generator == 0:  # X^n reverses the index
                    cols = dim - 1 - cols
                else:
                    vals = vals * self.signs[cols]
            out[rows, cols] += vals
        return out


def null_space_involution(constraints: list[np.ndarray]) -> np.ndarray:
    """Unit Bloch vector orthogonal to every constraint vector.

    The corresponding involution ``n_hat . sigma`` then anticommutes with
    every constraint's ``d . sigma``.  Selection is deterministic: among
    the null directions, take the normalized projection of the earliest
    coordinate axis with a nonzero projection.  Its first component above
    1e-9 is its own axis's, which is positive.

    Raises :class:`RankThreeError` when the constraints have numerical
    rank 3 (singular values below ``RANK_RTOL`` times the largest count
    as zero), in which case no such vector exists.
    """
    rows = np.array([np.asarray(c, dtype=float) for c in constraints], dtype=float)
    if rows.size == 0:
        rows = np.zeros((0, 3))
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError("constraints must be 3-component Bloch vectors")

    if rows.shape[0] == 0:
        null_basis = np.eye(3)
    else:
        _, svals, vt = np.linalg.svd(rows)
        rank = int(np.sum(svals > RANK_RTOL * svals[0]))
        if rank >= 3:
            raise RankThreeError(
                "constraint Bloch vectors span rank 3; no single-qubit "
                "involution anticommutes with all of them"
            )
        null_basis = vt[rank:].T  # columns: orthonormal basis of the null space

    # Projections of the axis unit vectors onto the null space: the axis
    # component of one is its squared norm, and no earlier component exceeds
    # the earlier projections' norms.  Those squared norms sum to the null
    # space's dimension, at least 1, so one norm is at least 3**-0.5.
    projections = (null_basis @ row for row in null_basis)
    proj = next(p for p in projections if np.linalg.norm(p) > 1e-9)
    return proj / np.linalg.norm(proj)


def codespace_basis(
    generators: tuple[np.ndarray, ...] | list[np.ndarray], n: int
) -> np.ndarray:
    """Orthonormal basis (rows) of the joint +1 eigenspace, in closed form.

    Row ``k`` belongs to the ``k``-th even-parity index ``j``, ascending.
    For one generator of unit axes ``n_q`` it is ``(x)_q V_q|j_q>``; the
    columns of ``V_q`` are the +1 and -1 eigenvectors of ``n_q . sigma``,
    each the normalized larger column of ``(1 +- n_q . sigma) / 2`` (the
    first on a tie).  For ``(X^n, Z^n)``, ``n`` even, it is
    ``(e_j + e_jbar) / sqrt(2)`` with ``j < 2**(n-1)`` and ``jbar`` the
    bitwise complement.  Other generator sets raise ``ValueError``.  These
    are the code's frame basis vectors rotated back
    (:attr:`StabilizerCode.codespace`).
    """
    return np.array(StabilizerCode(n, generators).codespace)


def _frames(
    generators: tuple[np.ndarray, ...] | list[np.ndarray], n: int
) -> np.ndarray | None:
    """The ``(n, 2, 2)`` eigenframes of one generator, or ``None`` for the pair.

    Raises ``ValueError`` for any generator set :func:`codespace_basis`
    does not build.
    """
    if _is_erasure_pair(generators) and len(generators[0]) == n and n % 2 == 0:
        return None
    if len(generators) != 1 or np.shape(generators[0]) != (n, 3) or not np.allclose(
        np.linalg.norm(generators[0], axis=1), 1.0, rtol=0.0, atol=1e-12
    ):
        raise ValueError(
            "a codespace is built for one generator of unit [x, y, z] axes, one "
            "per qubit, or for the (X^n, Z^n) pair in that order with n even"
        )
    return np.array([_eigenframe(axis) for axis in generators[0]])


def _eigenframe(axis: np.ndarray) -> np.ndarray:
    """Columns: the +1 and -1 eigenvectors of ``axis . sigma``."""
    frame = []
    for projector in ((IDENTITY + s * bloch_matrix(axis)) / 2 for s in (1, -1)):
        norms = np.linalg.norm(projector, axis=0)
        frame.append(projector[:, np.argmax(norms)] / norms.max())
    return np.stack(frame, axis=1)


def _erasure_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.tile((1.0, 0.0, 0.0), (n, 1)), np.tile((0.0, 0.0, 1.0), (n, 1))


def _is_erasure_pair(generators: tuple[np.ndarray, ...] | list[np.ndarray]) -> bool:
    """Whether the generators are ``(X^n, Z^n)``, in that order."""
    return len(generators) == 2 and all(
        np.array_equal(g, pair)
        for g, pair in zip(generators, _erasure_pair(len(generators[0])))
    )


def build_code(
    channels: list[ErrorChannel] | tuple[ErrorChannel, ...], n: int
) -> StabilizerCode:
    """Synthesize a stabilizer code protecting against the given channels.

    Prefers the rate ``n - 1`` single-generator construction whenever every
    qubit's constraints fit in a plane; one rank-3 qubit forces the
    ``X^n, Z^n`` erasure pair for the whole register (rate ``n - 2``,
    raising :class:`EvenQubitCountRequired` for odd ``n``).

    Qubits with no channels contribute the z-axis involution; channels with
    vanishing traceless backaction impose no constraint.
    """
    per_qubit: dict[int, list[np.ndarray]] = {}
    for ch in channels:
        if not 0 <= ch.qubit < n:
            raise ValueError(f"channel qubit {ch.qubit} out of range for n={n}")
        bloch = ch.backaction.bloch
        constraints = per_qubit.setdefault(ch.qubit, [])
        if max_abs(bloch) > 1e-12:
            constraints.append(bloch)

    axes = np.tile((0.0, 0.0, 1.0), (n, 1))
    try:
        for q, constraints in per_qubit.items():
            axes[q] = null_space_involution(constraints)
        generators: tuple[np.ndarray, ...] = (axes,)
    except RankThreeError:
        if n % 2 != 0:
            raise EvenQubitCountRequired(
                f"rank-3 channel constraints need the X^n/Z^n construction, "
                f"which requires an even qubit count (got n={n})"
            ) from None
        generators = _erasure_pair(n)

    return StabilizerCode(n, generators)


def anticommuting_terms(
    ch: ErrorChannel, code: StabilizerCode
) -> list[tuple[np.ndarray, int]]:
    """Backaction terms of ``ch``, each with the generator that anticommutes with it.

    Terms are 2x2 factors at the channel's qubit, paired with an index into
    ``code.generators``.  With one generator the whole traceless backaction
    pairs with generator 0.  On ``(X^n, Z^n)``, the only pair a code holds,
    each nonzero Bloch component gives one term ``d_l sigma_l``, paired by
    ``PAIR_SECTORS``.
    """
    ba = ch.backaction
    if len(code.generators) == 1:
        return [(ba.matrix, 0)]
    return [
        (component * _AXIS_PAULI[axis], PAIR_SECTORS[axis])
        for component, axis in zip(ba.bloch, "xyz")
        if component != 0.0
    ]


@dataclass(frozen=True, eq=False)
class CorrectabilityReport:
    """Per-channel maxima of codespace backaction matrix elements, each over
    ``max(1, |d|)`` (:func:`verify_correctability`)."""

    residuals: tuple[float, ...]
    labels: tuple[str | int | None, ...]

    @property
    def max_residual(self) -> float:
        return max(self.residuals, default=0.0)

    @property
    def passed(self) -> bool:
        return all(r <= CORRECTABILITY_ATOL for r in self.residuals)


def verify_correctability(
    code: StabilizerCode,
    channels: list[ErrorChannel] | tuple[ErrorChannel, ...],
) -> CorrectabilityReport:
    """Largest ``|<psi_i| D |psi_k>|`` on the codespace, for every channel,
    over ``max(1, |d|)``.

    ``D = d . sigma`` is the backaction at the channel's qubit ``q``.  On one
    generator it is ``|d . n_q|``: ``d``'s part across ``n_q`` anticommutes
    with the generator, and ``s_q = n_q . sigma`` is +-1 on each codespace
    basis state.  Its rounding grows with ``|d|``, so a backaction longer
    than 1 is judged relative to its length; a shorter one, as is.  On
    ``(X^n, Z^n)`` every single-qubit Pauli maps the codespace to its
    orthogonal complement, so it is 0.
    """
    single = len(code.generators) == 1
    residuals = []
    for ch in channels:
        if not 0 <= ch.qubit < code.n:
            raise ValueError(f"channel qubit {ch.qubit} out of range for n={code.n}")
        bloch = ch.backaction.bloch
        scale = max(1.0, float(np.linalg.norm(bloch)))
        axis = code.generators[0][ch.qubit]
        residuals.append(abs(float(bloch @ axis)) / scale if single else 0.0)
    labels = tuple(ch.label for ch in channels)
    return CorrectabilityReport(residuals=tuple(residuals), labels=labels)
