"""Channel-set builders shared across the test modules."""

import numpy as np

from jumpqec import ErrorChannel, jump_backaction
from jumpqec.linalg import PAULIS, max_abs, on_qubit

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def relaxation_channels(n, gamma=0.0, phi=0.0, kappa=1.0):
    """One lowering channel of strength kappa per qubit."""
    op = np.sqrt(kappa) * SIGMA_MINUS
    return tuple(
        ErrorChannel(qubit=q, operator=op, gamma=gamma, phi=phi, label=f"relax{q}")
        for q in range(n)
    )


def rank3_channels(n):
    """Three channels per qubit whose backaction axes span all of R^3.

    Each channel projects onto |0> from one Pauli eigenbasis, scaled so the
    total rate per qubit is 1 (each channel contributes 1/3).
    """
    scale = np.sqrt(2.0 / 3.0)
    zero = np.array([1.0, 0.0], dtype=complex)
    kets = {
        "x": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
        "y": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
        "z": np.array([0.0, 1.0], dtype=complex),
    }
    channels = []
    for q in range(n):
        for axis, ket in kets.items():
            channels.append(
                ErrorChannel(
                    qubit=q,
                    operator=scale * np.outer(zero, ket.conj()),
                    gamma=0.0,
                    phi=0.0,
                    label=f"{axis}{q}",
                )
            )
    return tuple(channels)


def _disk_entry(rng):
    radius = np.sqrt(rng.uniform())
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return radius * np.exp(1j * angle)


def _random_channel(rng, qubit, index):
    operator = np.array([[_disk_entry(rng) for _ in range(2)] for _ in range(2)])
    return ErrorChannel(
        qubit=qubit,
        operator=operator,
        gamma=float(rng.uniform()),
        phi=float(rng.uniform(0.0, 2.0 * np.pi)),
        label=f"q{qubit}c{index}",
    )


def random_channel_set(rng, n):
    """Random channels with entries in the unit disk, gamma in [0, 1].

    Odd registers get at most two channels per qubit so a single-generator
    code always exists; even registers may go up to three and land on the
    two-generator construction.
    """
    limit = 2 if n % 2 else 3
    return tuple(
        _random_channel(rng, q, c)
        for q in range(n)
        for c in range(rng.integers(1, limit + 1))
    )


def family_channel_set(rng, pair):
    """Random ``(n, channels)`` at n <= 6 for one code family.

    With ``pair`` the register is even and qubit 0 carries three channels,
    so the code is the ``(X^n, Z^n)`` pair; otherwise every qubit carries
    one or two channels and the code is a single generator.
    """
    if pair:
        n = int(rng.choice([2, 4, 6]))
        counts = [3, *rng.integers(1, 4, size=n - 1)]
    else:
        n = int(rng.integers(1, 7))
        counts = rng.integers(1, 3, size=n)
    channels = tuple(
        _random_channel(rng, q, c) for q, count in enumerate(counts) for c in range(count)
    )
    return n, channels


def random_suite(seed, count):
    """Deterministic list of (n, channels) pairs cycling small registers."""
    rng = np.random.default_rng(seed)
    sizes = [2, 3, 4, 6]
    return [
        (sizes[i % len(sizes)], random_channel_set(rng, sizes[i % len(sizes)]))
        for i in range(count)
    ]


def dense_correctability_residuals(code, channels):
    """Largest ``|<psi_i| T |psi_k>|`` per channel, from the codespace rows.

    The reference for :func:`jumpqec.verify_correctability`: ``T`` is the
    channel's traceless backaction at its qubit and, on the ``(X^n, Z^n)``
    pair, also each of its Pauli-axis terms on its own.
    """
    bra, ket = code.codespace.conj(), np.ascontiguousarray(code.codespace.T)
    residuals = []
    for ch in channels:
        ba = jump_backaction(ch)
        terms = [ba.matrix]
        if len(code.generators) == 2:
            terms += [d * pauli for d, pauli in zip(ba.bloch, PAULIS)]
        residuals.append(max(max_abs(bra @ on_qubit(t, ch.qubit, ket)) for t in terms))
    return residuals
