"""The trajectory-block step engine of the stochastic jump simulation.

One engine evolves a block of ``B`` trajectories together as the columns
of a ``(dim, B)`` state matrix.  Per step, one product applies every
jump operator to every column, giving the ``(m, dim, B)`` branches; a
column's jump probabilities are the squared norms of its branches.  Each
column's own uniform selects a jump by cumulative comparison, falling
through to the no-jump operator (one product for the whole block), a
column that jumped gets its channel's correction, if any, and every
column is renormalized.  A total jump probability above
``1 + PROBABILITY_SLACK``, or a collapsed norm, aborts the block with a
negative status (the step size is too large).

Column ``b`` reads only column ``b`` of the pre-drawn uniforms, so jump
selections do not depend on the block size or on which trajectories
share a block.  A block is bit-reproducible run to run; across block
sizes the matrix products may round differently in the last bits.  The
engine reduces as it steps (fidelity sums, cumulative jump totals, the
jump log and, on request, density sums) and keeps no per-trajectory
series.  ``trajectory.step`` is the per-trajectory reference for these
semantics.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: Total jump probability may exceed 1 by at most this before aborting.
PROBABILITY_SLACK = 1e-9


class BlockResult(NamedTuple):
    """What :func:`run_steps` reduces from one block of trajectories.

    ``status`` is the block's jump total, or ``-(step + 1)`` when step
    ``step`` aborted; ``failed_column`` is then the lowest column that
    failed, and -1 otherwise.  ``fid_sum`` and ``fid_sq_sum`` sum the
    columns' fidelities (and their squares) at every grid point, and
    ``jump_counts`` is the block's cumulative jump total.  The jump log
    lists each jump's step, column and channel, ordered by step, then
    column.
    """

    status: int
    failed_column: int
    fid_sum: np.ndarray
    fid_sq_sum: np.ndarray
    jump_counts: np.ndarray
    jump_steps: np.ndarray
    jump_columns: np.ndarray
    jump_channels: np.ndarray


def run_steps(psi0, ops, no_jump, uniforms, sample_idx, rho_sum=None, corrections=None):
    """Evolve ``uniforms.shape[1]`` trajectories from ``psi0`` as one block.

    ``ops`` holds the ``m`` jump operators ``(m, dim, dim)`` and
    ``uniforms`` one uniform per step and trajectory ``(steps, B)``.  When
    ``rho_sum`` is given, ``rho_sum[i]`` gains the block's summed outer
    products ``psi psi^dagger`` at grid index ``sample_idx[i]``.  A jump of
    channel ``k`` is followed by ``corrections[k]`` unless that is ``None``.
    """
    steps, width = uniforms.shape
    m = ops.shape[0]
    ref = psi0.conj()
    psi = np.repeat(psi0[:, None], width, axis=1)
    slots = {} if rho_sum is None else {int(s): i for i, s in enumerate(sample_idx)}
    fid_sum = np.empty(steps + 1)
    fid_sq_sum = np.empty(steps + 1)
    fid_sum[0] = fid_sq_sum[0] = width
    counts = np.zeros(steps + 1, dtype=np.int64)
    jump_steps, jump_columns, jump_channels = [], [], []
    jumps = 0
    failed = -1
    if 0 in slots:
        rho_sum[slots[0]] += psi @ psi.conj().T
    for s in range(steps):
        phis = ops @ psi
        acc = np.einsum("kdb,kdb->kb", phis.conj(), phis).real.cumsum(axis=0)
        if m and (over := 1.0 - acc[-1] < -PROBABILITY_SLACK).any():
            failed = int(over.argmax())
            break
        chosen = (acc <= uniforms[s]).sum(axis=0)
        nxt = no_jump @ psi
        clicked = (chosen < m).nonzero()[0]
        if clicked.size:
            nxt[:, clicked] = phis[chosen[clicked], :, clicked].T
            if corrections is not None:
                for b in clicked:
                    nxt[:, b] = corrections[chosen[b]] @ nxt[:, b]
            jump_steps.append(np.full(clicked.size, s))
            jump_columns.append(clicked)
            jump_channels.append(chosen[clicked])
            jumps += clicked.size
        nrm = np.sqrt(np.einsum("db,db->b", nxt.conj(), nxt).real)
        if (collapsed := nrm <= 0.0).any():
            failed = int(collapsed.argmax())
            break
        psi = nxt / nrm
        fid = np.minimum(np.abs(ref @ psi) ** 2, 1.0)
        fid_sum[s + 1] = fid.sum()
        fid_sq_sum[s + 1] = (fid * fid).sum()
        counts[s + 1] = jumps
        if s + 1 in slots:
            rho_sum[slots[s + 1]] += psi @ psi.conj().T
    status = jumps if failed < 0 else -(s + 1)
    jump_log = (
        np.concatenate(log) if log else np.zeros(0, dtype=np.int64)
        for log in (jump_steps, jump_columns, jump_channels)
    )
    return BlockResult(status, failed, fid_sum, fid_sq_sum, counts, *jump_log)
