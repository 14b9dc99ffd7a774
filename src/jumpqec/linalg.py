"""Pauli algebra and dense operators for small qubit registers.

Operators are plain ``numpy.ndarray`` matrices of dtype complex128.  All
routines here are pure functions; nothing is cached or mutated, so values
can be shared freely between threads.  The register size is capped at
``MAX_QUBITS`` qubits (dimension 4096); runs whose dense operators would
not fit in memory are refused by ``trajectory.simulation_code``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "IDENTITY",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_MINUS",
    "SIGMA_PLUS",
    "PAULIS",
    "max_abs",
    "is_hermitian",
    "is_unitary",
    "tensor_embed",
    "traceless_decompose",
    "bloch_decompose",
    "bloch_matrix",
]

#: Largest supported register; 2**12 = 4096 keeps dense algebra cheap.
MAX_QUBITS = 12

#: Max-norm tolerance for input predicates (Hermiticity, trace checks).
HERMITIAN_ATOL = 1e-12

#: Max-norm tolerance for constructed outputs (orthonormality, unitarity).
ORTHO_ATOL = 1e-10

IDENTITY = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
#: Lowering operator |0><1| (maps the excited state to the ground state).
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=np.complex128)
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=np.complex128)

#: Pauli triple in (x, y, z) order, indexed by Bloch-vector component.
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

for _m in (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, SIGMA_MINUS, SIGMA_PLUS):
    _m.flags.writeable = False
del _m


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-norm ``max |m_ij|`` (0.0 for empty input)."""
    m = np.asarray(m)
    return float(np.abs(m).max()) if m.size else 0.0


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_ATOL) -> bool:
    m = np.asarray(m, dtype=np.complex128)
    return max_abs(m - m.conj().T) <= tol


def is_unitary(m: np.ndarray, tol: float = ORTHO_ATOL) -> bool:
    m = np.asarray(m, dtype=np.complex128)
    return max_abs(m.conj().T @ m - np.eye(m.shape[0])) <= tol


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


def traceless_decompose(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Split a Hermitian 2x2 matrix as ``m = d + c * 1`` with tr(d) = 0.

    Returns ``(d, c)`` where ``c = tr(m) / 2``.  Raises ``ValueError`` if
    ``m`` is not Hermitian within ``HERMITIAN_ATOL``.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    c = float(np.trace(m).real) / 2.0
    return m - c * IDENTITY, c


def bloch_decompose(m: np.ndarray) -> np.ndarray:
    """Coefficients ``(dx, dy, dz)`` of a traceless Hermitian 2x2 matrix.

    ``m = dx X + dy Y + dz Z`` with ``d_l = tr(sigma_l m) / 2``.  Raises
    ``ValueError`` if the trace exceeds ``HERMITIAN_ATOL``.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if abs(np.trace(m)) > HERMITIAN_ATOL:
        raise ValueError("matrix has nonzero trace")
    return np.array([float(np.trace(p @ m).real) / 2.0 for p in PAULIS])


def bloch_matrix(bloch: np.ndarray) -> np.ndarray:
    """Inverse of :func:`bloch_decompose`: ``d . sigma`` for a coefficient triple."""
    bx, by, bz = np.asarray(bloch, dtype=float)
    return bx * SIGMA_X + by * SIGMA_Y + bz * SIGMA_Z
