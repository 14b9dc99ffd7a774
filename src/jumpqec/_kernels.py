"""The trajectory-block step engine of the stochastic jump simulation.

One engine evolves a block of ``B`` trajectories together as the columns
of a ``(dim, B)`` state matrix.  Per step, a column's jump probabilities
come from its reduced 2x2 density on each qubit that carries a channel
(:func:`jump_probabilities`); no jump operator is applied to find them.
Each column's own uniform selects a jump by cumulative comparison,
falling through to the dense no-jump operator (one product for the whole
block).  Only a column that jumped gets a branch, its channel's 2x2
factor applied on one qubit, followed by the channel's correction, if
any; every column is renormalized.  A total jump probability above
``1 + PROBABILITY_SLACK``, or a collapsed norm, aborts the block with a
negative status (the step size is too large).

Column ``b`` reads only column ``b`` of the pre-drawn uniforms, so jump
selections do not depend on the block size or on which trajectories
share a block.  A block is bit-reproducible run to run; across block
sizes the matrix products may round differently in the last bits.  The
engine reduces as it steps (infidelity sums and spreads, cumulative jump
totals, the jump log and, on request, density sums) and keeps no
per-trajectory series.  ``trajectory.step``, on dense jump and correction
matrices, is the per-trajectory reference for these semantics.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import on_qubit

#: Total jump probability may exceed 1 by at most this before aborting.
PROBABILITY_SLACK = 1e-9


class BlockResult(NamedTuple):
    """What :func:`run_steps` reduces from one block of trajectories.

    ``status`` is the block's jump total, or ``-(step + 1)`` when step
    ``step`` aborted; ``failed_column`` is then the lowest column that
    failed, and -1 otherwise.  At every grid point, ``infid_sum`` sums the
    columns' infidelities ``1 - F`` and ``infid_m2`` their squared
    deviations from the block's mean, so that small spreads keep their
    digits; ``jump_counts`` is the block's cumulative jump total.  The jump
    log lists each jump's step, column and channel, ordered by step, then
    column.
    """

    status: int
    failed_column: int
    infid_sum: np.ndarray
    infid_m2: np.ndarray
    jump_counts: np.ndarray
    jump_steps: np.ndarray
    jump_columns: np.ndarray
    jump_channels: np.ndarray


def jump_probabilities(factors, qubits, n):
    """The map from a ``(2**n, B)`` block to its ``(m, B)`` jump probabilities.

    Channel ``k`` fires from column ``b`` with probability
    ``|F_k psi_b|^2 = tr(G_k rho_b)``, with ``G_k = F_k^dag F_k`` for
    ``F_k = factors[k]`` on ``qubits[k]`` and ``rho_b`` the column's reduced
    2x2 density there.  The amplitudes of every charged qubit, and their
    squared moduli, are gathered in pairs once per call, so channels on one
    qubit share its reduced density.
    """
    dim = 2**n
    charged = sorted(set(qubits))
    # index[c, i, r]: the basis index with bit i on qubit charged[c] and the
    # other bits r.
    index = np.array(
        [np.arange(dim).reshape(2**q, 2, -1).swapaxes(0, 1).reshape(2, -1)
         for q in charged],
        dtype=np.intp,
    ).reshape(-1, 2, dim // 2)
    ones = np.ones(dim // 2)
    grams = factors.conj().swapaxes(1, 2) @ factors
    # tr(G rho) = G_00 rho_00 + G_11 rho_11 + 2 Re(G_01 rho_10).
    w_diag = np.zeros((len(qubits), len(charged), 2))
    w_off = np.zeros((len(qubits), len(charged)), dtype=np.complex128)
    for k, q in enumerate(qubits):
        w_diag[k, charged.index(q)] = grams[k].diagonal().real
        w_off[k, charged.index(q)] = 2.0 * grams[k, 0, 1]
    w_diag = w_diag.reshape(len(qubits), 2 * len(charged))

    def probabilities(psi):
        # Sums over the other bits, as products with ones (fastest here).
        diag = ones @ (psi.real**2 + psi.imag**2).take(index, axis=0)
        pairs = psi.take(index, axis=0)
        coherence = ones @ (pairs[:, 0].conj() * pairs[:, 1])
        return w_diag @ diag.reshape(-1, psi.shape[1]) + (w_off @ coherence).real

    return probabilities


def run_steps(psi0, kraus, corrections, uniforms, sample_idx, rho_sum=None):
    """Evolve ``uniforms.shape[1]`` trajectories from ``psi0`` as one block.

    ``kraus`` supplies the one-qubit jump ``factors`` of its ``channels``
    and the dense ``no_jump`` operator, and ``uniforms`` one uniform per
    step and trajectory ``(steps, B)``.  When ``rho_sum`` is given,
    ``rho_sum[i]`` gains the block's summed outer products
    ``psi psi^dagger`` at grid index ``sample_idx[i]``.  A jump of channel
    ``k`` is followed by ``corrections[k].apply`` unless ``corrections`` is
    ``None``.
    """
    steps, width = uniforms.shape
    factors = kraus.factors
    qubits = [ch.qubit for ch in kraus.channels]
    m = len(qubits)
    probabilities = jump_probabilities(factors, qubits, kraus.n)
    ref = psi0.conj()
    psi = np.repeat(psi0[:, None], width, axis=1)
    slots = {} if rho_sum is None else {int(s): i for i, s in enumerate(sample_idx)}
    infid_sum = np.zeros(steps + 1)
    infid_m2 = np.zeros(steps + 1)
    counts = np.zeros(steps + 1, dtype=np.int64)
    jump_steps, jump_columns, jump_channels = [], [], []
    jumps = 0
    failed = -1
    if 0 in slots:
        rho_sum[slots[0]] += psi @ psi.conj().T
    for s in range(steps):
        acc = probabilities(psi)
        for k in range(1, m):  # cumsum over this short axis was slower
            acc[k] += acc[k - 1]
        if m and (over := 1.0 - acc[-1] < -PROBABILITY_SLACK).any():
            failed = int(over.argmax())
            break
        chosen = (acc <= uniforms[s]).sum(axis=0)
        nxt = kraus.no_jump @ psi
        clicked = (chosen < m).nonzero()[0]
        if clicked.size:
            picked = chosen[clicked]
            for k in set(picked.tolist()):
                cols = clicked[picked == k]
                branch = on_qubit(factors[k], qubits[k], psi[:, cols])
                if corrections is not None:
                    branch = corrections[k].apply(branch)
                nxt[:, cols] = branch
            jump_steps.append(np.full(clicked.size, s))
            jump_columns.append(clicked)
            jump_channels.append(picked)
            jumps += clicked.size
        nrm = np.sqrt(np.einsum("db,db->b", nxt.conj(), nxt).real)
        if (collapsed := nrm <= 0.0).any():
            failed = int(collapsed.argmax())
            break
        psi = nxt / nrm
        infid = 1.0 - np.minimum(np.abs(ref @ psi) ** 2, 1.0)
        infid_sum[s + 1] = total = infid.sum()
        infid_m2[s + 1] = np.square(infid - total / width).sum()
        counts[s + 1] = jumps
        if s + 1 in slots:
            rho_sum[slots[s + 1]] += psi @ psi.conj().T
    status = jumps if failed < 0 else -(s + 1)
    jump_log = (
        np.concatenate(log) if log else np.zeros(0, dtype=np.int64)
        for log in (jump_steps, jump_columns, jump_channels)
    )
    return BlockResult(status, failed, infid_sum, infid_m2, counts, *jump_log)
