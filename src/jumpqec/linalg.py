"""Pauli algebra and dense operators for small qubit registers.

Operators are plain ``numpy.ndarray`` matrices of dtype complex128.  All
routines here are pure functions; nothing is cached or mutated, so values
can be shared freely between threads.  The register size is capped at
``MAX_QUBITS`` qubits (dimension 2048).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "IDENTITY",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULIS",
    "max_abs",
    "tensor_embed",
    "on_qubit",
    "bloch_matrix",
    "expm1",
]

#: Largest supported register, the widest measured to run: with eleven
#: relaxation channels, ``simulate`` of 4 trajectories x 1000 steps took
#: 2.9 s and 3.3 s (two single runs, 2 vCPUs) at 78 MiB peak RSS.
MAX_QUBITS = 11

IDENTITY = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

#: Pauli triple in (x, y, z) order, indexed by Bloch-vector component.
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

for _m in (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.flags.writeable = False
del _m


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-norm ``max |m_ij|`` (0.0 for empty input)."""
    m = np.asarray(m)
    return float(np.abs(m).max()) if m.size else 0.0


def tensor_embed(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Embed a single-qubit operator into an ``n``-qubit register.

    Returns ``1 x ... x op x ... x 1`` with ``op`` in tensor slot ``qubit``.
    Slot 0 is the leftmost factor, i.e. the most significant bit of the
    computational-basis index.
    """
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"register size must be in [1, {MAX_QUBITS}], got {n}")
    if not 0 <= qubit < n:
        raise ValueError(f"qubit index {qubit} out of range for {n} qubits")
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {op.shape}")
    left = np.eye(2**qubit, dtype=np.complex128)
    right = np.eye(2 ** (n - 1 - qubit), dtype=np.complex128)
    return np.kron(left, np.kron(op, right))


def on_qubit(op, qubit: int, m: np.ndarray) -> np.ndarray:
    """``tensor_embed(op, qubit, n) @ m``, with ``n`` read off ``m``'s rows.

    ``m`` is a vector or matrix; the embedding is never formed.
    """
    return np.matmul(op, m.reshape(2**qubit, 2, -1)).reshape(m.shape)


def bloch_matrix(bloch: np.ndarray) -> np.ndarray:
    """``d . sigma`` for a coefficient triple ``d`` (Bloch vector)."""
    bx, by, bz = np.asarray(bloch, dtype=float)
    return bx * SIGMA_X + by * SIGMA_Y + bz * SIGMA_Z


#: Coefficients b_0..b_13 of the degree-13 Pade approximant of exp, and
#: the largest 1-norm it meets to unit roundoff in double precision
#: (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970, 2009, Table 3.1).
_PADE13 = (
    64764752532480000, 32382376266240000, 7771770303897600,
    1187353796428800, 129060195264000, 10559470521600, 670442572800,
    33522128640, 1323241920, 40840800, 960960, 16380, 182, 1,
)
_THETA13 = 5.371920351148152


def expm1(a: np.ndarray) -> np.ndarray:
    """``exp(a) - 1`` for a square matrix, by Pade scaling and squaring.

    Scaling and squaring as in Al-Mohy & Higham (2009), at its top degree
    13 only and with the powers formed directly: for the small blocks it
    serves, one-qubit superoperators, the lower degrees and the flop-saving
    evaluation would save next to nothing.  The increment is computed
    without forming ``exp(a)``, so it keeps full relative accuracy when
    ``exp(a)`` is close to the identity: a propagator applied as
    ``x + expm1(a) @ x`` many times over does not accumulate the rounding
    of its diagonal.  The zero matrix gives zero exactly.
    """
    a = np.asarray(a, dtype=np.complex128)
    norm = float(np.abs(a).sum(axis=0).max()) if a.size else 0.0
    if not math.isfinite(norm):
        raise ValueError("cannot exponentiate a matrix with non-finite entries")
    squarings = max(0, math.ceil(math.log2(norm / _THETA13))) if norm else 0
    a = a / 2.0**squarings
    square = a @ a
    power = np.eye(a.shape[0], dtype=np.complex128)
    odd = _PADE13[1] * power
    even = _PADE13[0] * power
    for j in range(1, 7):
        power = power @ square
        odd = odd + _PADE13[2 * j + 1] * power
        even = even + _PADE13[2 * j] * power
    odd = a @ odd
    # exp(a) ~ (even - odd)^-1 (even + odd), so exp(a) - 1 = (even - odd)^-1 2 odd.
    increment = np.linalg.solve(even - odd, 2.0 * odd)
    for _ in range(squarings):
        increment = increment @ increment + 2.0 * increment
    return increment
