"""Channel-set builders and the dense references the engine is tested against.

A dense reference lives here, not in ``jumpqec``, when nothing in the
package, its CLI, the README's library example or the benchmark calls
it: the per-trajectory :func:`step` and :func:`run_trajectory`, the
Kraus set in the computational basis, the embedded jump operators, the
Kraus completeness defect, generator matrices, the codespace
matrix-element scan, the textbook driving Hamiltonian and the textbook
Lindblad generator.  Each builds what the package keeps as one-qubit
data into full register matrices with ``tensor_embed`` and Kronecker
products, never with the package's own densifier
(``StabilizerCode.dense``), so the tests can check the engine, the oracle
and the ``synthesize`` report against plain products.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from jumpqec import (
    ErrorChannel,
    FidelityRecord,
    StepSizeError,
    effective_jump_operator,
    prepare,
)
from jumpqec._kernels import PROBABILITY_SLACK
from jumpqec.codes import anticommuting_terms
from jumpqec.linalg import (
    IDENTITY, PAULIS, bloch_matrix, max_abs, on_qubit, tensor_embed,
)
from jumpqec.trajectory import _run_block, density_sample_indices

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
    """Largest ``|<psi_i| T |psi_k>|`` per channel over ``max(1, |d|)``,
    from the codespace rows.

    The reference for :func:`jumpqec.verify_correctability`: ``T`` is the
    channel's traceless backaction ``d . sigma`` at its qubit and, on the
    ``(X^n, Z^n)`` pair, also each of its Pauli-axis terms on its own.
    """
    bra, ket = code.codespace.conj(), np.ascontiguousarray(code.codespace.T)
    residuals = []
    for ch in channels:
        ba = ch.backaction
        terms = [ba.matrix]
        if len(code.generators) == 2:
            terms += [d * pauli for d, pauli in zip(ba.bloch, PAULIS)]
        largest = max(max_abs(bra @ on_qubit(t, ch.qubit, ket)) for t in terms)
        residuals.append(largest / max(1.0, np.linalg.norm(ba.bloch)))
    return residuals


def generator_matrix(generator):
    """Tensor product ``(n_1 . sigma) x ... x (n_n . sigma)`` of a generator row set."""
    generator = np.asarray(generator, dtype=float)
    out = np.array([[1.0 + 0j]])
    for row in generator:
        out = np.kron(out, bloch_matrix(row))
    return out


def dense_driving_hamiltonian(channels, code):
    """The textbook driving Hamiltonian in the computational basis.

    ``sum (i/2) T_q G_g`` over each channel's backaction terms ``T`` on its
    qubit, paired with the generators ``G_g`` they anticommute with
    (:func:`jumpqec.codes.anticommuting_terms`), plus each channel's offset
    term ``(i/2)(mu* E - mu E^dag)`` on its qubit: the reference for the
    control plan's frame terms, which the package sums with
    ``StabilizerCode.dense``.  It is Hermitian only when ``code`` protects
    the channels.
    """
    n = code.n
    gens = [generator_matrix(g) for g in code.generators]
    dense = np.zeros((2**n, 2**n), dtype=complex)
    for ch in channels:
        for term, index in anticommuting_terms(ch, code):
            dense += 0.5j * tensor_embed(term, ch.qubit, n) @ gens[index]
        mu, e = ch.offset, ch.operator
        dense += tensor_embed(0.5j * (np.conj(mu) * e - mu * e.conj().T), ch.qubit, n)
    return dense


def lindblad_generator(channels, hamiltonian, n):
    """The map ``rho -> drho/dt`` of the register's Lindblad master equation.

    The textbook form ``K rho + rho K^dag + sum_k E_k rho E_k^dag``, with
    the embedded channel operators ``E_k`` and ``K = -i H - sum_k E_k^dag
    E_k / 2`` (``hamiltonian`` ``None`` means zero): the reference for
    :func:`jumpqec.master_equation_oracle`, which evolves the Kraus set's
    own generator.  The detection offsets do not appear.
    """
    dim = 2**n
    ops = np.array(
        [tensor_embed(ch.operator, ch.qubit, n) for ch in channels],
        dtype=np.complex128,
    ).reshape(-1, dim, dim)
    tall = ops.reshape(-1, dim)  # rows stack E_1, ..., E_m
    k = -0.5 * (tall.conj().T @ tall)
    if hamiltonian is not None:
        k -= 1j * np.asarray(hamiltonian, dtype=np.complex128)
    k_dag = k.conj().T
    wide = ops.transpose(1, 0, 2).reshape(dim, -1)  # columns E_1 | ... | E_m
    ops_dag = ops.conj().transpose(0, 2, 1)

    def generator(rho):
        # wide times the rows rho E_1^dag, ..., rho E_m^dag sums the jumps.
        return k @ rho + rho @ k_dag + wide @ (rho @ ops_dag).reshape(-1, dim)

    return generator


@dataclass(frozen=True)
class DenseKrausSet:
    """A Kraus set's operators in the computational basis, without its terms.

    ``factors`` are the channels' one-qubit jump factors in input order,
    as in :class:`jumpqec.KrausSet`, and ``no_jump`` is the dense
    between-detections operator on ``n`` qubits.
    """

    no_jump: np.ndarray
    factors: np.ndarray
    channels: tuple
    n: int


def dense_kraus_set(channels, hamiltonian, n, dt):
    """The Kraus set of one step in the computational basis, from dense operators.

    The reference for :func:`jumpqec.kraus_set`, which builds the same set
    in a code's eigenframe: ``no_jump = 1 - dt (i H + sum_ch local_ch)``
    with each channel's ``E^dag E / 2 + mu* E + |mu|^2 / 2`` embedded at
    its qubit.  ``hamiltonian`` (``None`` means zero) must be Hermitian
    within 1e-12.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    dim = 2**n
    if hamiltonian is None:
        hamiltonian = np.zeros((dim, dim), dtype=np.complex128)
    hamiltonian = np.asarray(hamiltonian, dtype=np.complex128)
    if hamiltonian.shape != (dim, dim):
        raise ValueError(
            f"hamiltonian shape {hamiltonian.shape} does not match dimension {dim}"
        )
    if max_abs(hamiltonian - hamiltonian.conj().T) > 1e-12:
        raise ValueError("hamiltonian is not Hermitian within tolerance")
    factors = np.empty((len(channels), 2, 2), dtype=np.complex128)
    backaction_sum = np.zeros((dim, dim), dtype=np.complex128)
    for k, ch in enumerate(channels):
        if ch.qubit >= n:
            raise ValueError(f"channel qubit {ch.qubit} out of range for n={n}")
        factors[k] = effective_jump_operator(ch) * math.sqrt(dt)
        mu, e = ch.offset, ch.operator
        local = 0.5 * (e.conj().T @ e) + np.conj(mu) * e + 0.5 * abs(mu) ** 2 * IDENTITY
        backaction_sum += tensor_embed(local, ch.qubit, n)
    no_jump = np.eye(dim, dtype=complex) - dt * (1j * hamiltonian + backaction_sum)
    return DenseKrausSet(no_jump, factors, tuple(channels), n)


def dense_correction(corr):
    """The dense correction ``R`` in the computational basis.

    ``apply`` on the identity gives ``R`` in the code's eigenframe, which
    the code rotates back.
    """
    code = corr.code
    return code.operator_from_frame(corr.apply(np.eye(2**code.n, dtype=complex)))


def dense_jumps(ks):
    """``(channel, dense jump operator)`` pairs of a Kraus set, in its order."""
    return tuple(
        (ch, tensor_embed(f, ch.qubit, ks.n)) for ch, f in zip(ks.channels, ks.factors)
    )


def cptp_defect(ks):
    """Max-norm deviation of ``sum_k Omega_k^dag Omega_k`` from the identity.

    For the construction in :func:`jumpqec.kraus_set` the first-order terms
    cancel exactly, so the defect is quadratic in ``dt``.  It does not
    depend on the frame the set is written in.
    """
    dim = ks.no_jump.shape[0]
    total = ks.no_jump.conj().T @ ks.no_jump
    for _, op in dense_jumps(ks):
        total = total + op.conj().T @ op
    return max_abs(total - np.eye(dim))


@dataclass
class TrajectoryState:
    """Mutable per-trajectory state: vector, clock, and jump history."""

    state: np.ndarray
    time: float = 0.0
    jump_log: list = field(default_factory=list)


def step(ts, ks, corrections, rng):
    """Advance one time step in place: the engine's per-trajectory reference.

    Draws a single uniform from ``rng``; a jump of channel ``k`` fires
    when the uniform falls below the cumulative probability through ``k``,
    followed by ``corrections[k]`` unless ``corrections`` is ``None``.
    Returns ``(ts, fired channel)``, with ``None`` for the no-jump branch.
    Jumps and corrections act as dense matrices here, in the frame of
    ``ks`` (a setup's ``psi0`` shares it).
    """
    branches = [omega @ ts.state for _, omega in dense_jumps(ks)]
    probs = [float(np.vdot(phi, phi).real) for phi in branches]
    total = sum(probs)
    if 1.0 - total < -PROBABILITY_SLACK:
        raise StepSizeError(
            f"total jump probability {total:.3e} exceeds 1 at t={ts.time:.6g}; "
            f"decrease dt"
        )
    u = float(rng.random())
    event = None
    acc = 0.0
    for k, p in enumerate(probs):
        acc += p
        if u < acc:
            event = ks.channels[k]
            psi = branches[k]
            if corrections is not None:
                dim = ts.state.shape[0]
                psi = corrections[k].apply(np.eye(dim, dtype=complex)) @ psi
            break
    if event is None:
        psi = ks.no_jump @ ts.state
    nrm = float(np.sqrt(np.vdot(psi, psi).real))
    if nrm <= 0.0:
        raise StepSizeError(f"state norm collapsed at t={ts.time:.6g}")
    ts.state = psi / nrm
    ts.time += ks.dt
    if event is not None:
        ts.jump_log.append((ts.time, event))
    return ts, event


def run_trajectory(cfg, trajectory_index, setup=None):
    """One trajectory as a block of one: ``(FidelityRecord, jump log)``.

    Fidelity is the squared overlap with the initial state at every grid
    time; the log lists ``(time, channel)`` for each jump.
    """
    if setup is None:
        setup = prepare(cfg)
    result = _run_block(
        cfg, setup, range(trajectory_index, trajectory_index + 1),
        density_sample_indices(cfg.steps),
    )
    log = [
        (float((s + 1) * cfg.dt), setup.kraus.channels[k])
        for s, k in zip(result.jump_steps, result.jump_channels)
    ]
    record = FidelityRecord(
        times=np.arange(cfg.steps + 1) * cfg.dt,
        mean_fidelity=1.0 - result.infid_sum,
        std_fidelity=np.zeros_like(result.infid_sum),
        jump_counts=result.jump_counts,
    )
    return record, log
