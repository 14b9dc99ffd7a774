"""The trajectory-block step engine of the stochastic jump simulation.

One engine evolves a block of ``B`` trajectories together as the columns
of a ``(dim, B)`` state matrix.  Per step, one pass over the block
(:func:`jump_probabilities`) reads each column's cumulative jump weights
off its reduced 2x2 density on each qubit that carries a channel, and
its squared norm; no jump operator is applied to find them.  A column
clicks when its own uniform, scaled by that norm, falls below its total
weight; the dense no-jump operator moves the whole block in one product.
Only a clicked column picks its channel by cumulative comparison and gets
a branch, the channel's 2x2 factor applied on one qubit, followed by the
channel's correction, if any.  A total jump probability above ``1 +
PROBABILITY_SLACK`` (every such column clicks, as uniforms are below 1)
aborts the block: the step size is too large.

A step does only what decides the next one, so the block stays
unnormalized within a chunk of ``CHUNK`` steps: the click test and the
weights scale alike with a column's norm.  Each step writes its state
into one slot of a ``(chunk + 1, dim, B)`` buffer; once per chunk the
engine tests the chunk's norms for a collapsed column, which aborts like
an overflow, renormalizes the buffer in place, takes the chunk's overlaps
``|<psi0|psi>|`` in one product and its density sums in another, and
starts the next chunk from the last state.  A block either finishes or
raises :class:`StepFailure` at the end of the chunk that failed, naming
the earlier step of two failures, an overflow before a collapse at the
same step, and its lowest failing column.  A block too wide for
``CHUNK`` steps within ``BLOCK_BYTES`` takes a shorter chunk, at least
one step (:func:`chunk_length`).

Column ``b`` reads only column ``b`` of the pre-drawn uniforms, so jump
selections do not depend on the block size or on which trajectories
share a block.  A block is bit-reproducible run to run; across block
sizes the matrix products may round differently in the last bits.  The
engine keeps each step's overlaps in a ``(steps + 1, B)`` array, as large
as the uniforms, and reduces them once per block to infidelity sums and
spreads; it also returns cumulative jump totals, the jump log and, on
request, density sums.  The tests hold a per-trajectory reference for
these semantics, on dense jump and correction matrices.

The engine is basis-blind: it runs in whatever frame its inputs share.
``trajectory.prepare`` gives it the code's eigenframe, where the
corrections project through the code without any codespace rows.  One
path serves both dtypes: the block takes the result type of the arrays
the engine reads, float64 exactly when every 2x2 datum and the initial
coefficients are real.  ``kraus_set`` builds the no-jump operator in the
type of its own data, which is the block's type unless a complex initial
vector meets real channels; then the block casts it once, so the dense
product never upcasts per step.
"""

from __future__ import annotations

import bisect
from typing import NamedTuple

import numpy as np

from .linalg import on_qubit

#: Total jump probability may exceed 1 by at most this before aborting.
PROBABILITY_SLACK = 1e-9

#: Steps per chunk: the engine renormalizes, tests for collapse, takes
#: overlaps and sums densities once per chunk.  ``trajectory`` rotates,
#: propagates and compares density samples this many at a time.
CHUNK = 16

#: Bytes each of a block's arrays may take: its gathered amplitudes, its
#: ``(steps, B)`` uniforms and ``(steps + 1, B)`` overlaps, which set the
#: block width ``B`` (:func:`block_width`), and the states of a chunk,
#: which shorten the chunk of a wide block (:func:`chunk_length`).
BLOCK_BYTES = 8 * 2**20


class StepFailure(Exception):
    """Step ``step`` of column ``column`` failed; ``kind`` says how.

    ``"overflow"``: a total jump probability above 1; ``"collapse"``: the
    no-jump step annihilated the column.
    """

    def __init__(self, kind: str, step: int, column: int):
        super().__init__(kind, step, column)
        self.kind, self.step, self.column = kind, step, column


class BlockResult(NamedTuple):
    """What :func:`run_steps` reduces from one finished block of trajectories.

    ``status`` is the block's jump total.  At every grid point,
    ``infid_sum`` sums the columns' infidelities ``1 - F`` and ``infid_m2``
    their squared deviations from the block's mean, so that small spreads
    keep their digits; ``jump_counts`` is the block's cumulative jump
    total.  The jump log lists each jump's step, column and channel,
    ordered by step, then column.
    """

    status: int
    infid_sum: np.ndarray
    infid_m2: np.ndarray
    jump_counts: np.ndarray
    jump_steps: np.ndarray
    jump_columns: np.ndarray
    jump_channels: np.ndarray


def jump_probabilities(factors, qubits, n):
    """The map from a ``(2**n, B)`` block to its cumulative jump weights and norms.

    Channel ``k`` fires from column ``b`` with weight ``|F_k psi_b|^2 =
    tr(G_k rho_b)``, with ``G_k = F_k^dag F_k`` for ``F_k = factors[k]`` on
    ``qubits[k]`` and ``rho_b`` the column's reduced 2x2 density there.  The
    map returns the ``(m, B)`` cumulative weights ``sum_{j<=k} tr(G_j rho_b)``
    and the ``(B,)`` squared column norms ``tr rho_b``; the block need not be
    normalized, and both scale with ``|psi_b|^2``.  Since ``tr(G rho) =
    G_00 tr rho + (G_11 - G_00) rho_11 + 2 Re(G_01 rho_10)``, one real
    product of the squared moduli with a table (a row of ones, then one row
    of bits per charged qubit) gives the norms and every ``rho_11``, and one
    gather of the bit-1 rows with their bit-0 partners gives every
    ``rho_10``; channels on one qubit share them.  The map takes blocks of
    the factors' dtype, which picks the squared moduli's expression once.
    """
    dim = 2**n
    charged = sorted(set(qubits))
    shifts = n - 1 - np.array(charged, dtype=np.intp)  # qubit 0 is the top bit
    basis = np.arange(dim)
    bits = (basis >> shifts[:, None]) & 1
    table = np.vstack([np.ones(dim), bits])
    # partners[:, c, r]: the r-th index with bit 1 on qubit charged[c], then
    # the index that differs from it in that bit only.
    upper = bits.nonzero()[1].reshape(-1, dim // 2)
    partners = np.stack([upper, upper - (1 << shifts)[:, None]])
    half = np.ones(dim // 2)
    grams = factors.conj().swapaxes(1, 2) @ factors
    on = np.equal.outer(qubits, charged)  # on[k, c]: channel k acts on charged[c]
    w_diag = np.hstack(
        [grams[:, 0, :1].real, on * (grams[:, 1, 1] - grams[:, 0, 0]).real[:, None]]
    ).cumsum(axis=0)
    w_off = (on * 2.0 * grams[:, 0, 1, None]).cumsum(axis=0)
    if np.iscomplexobj(factors):
        def moduli(psi):
            return psi.real**2 + psi.imag**2
    else:
        moduli = np.square

    def weights(psi):
        diag = table @ moduli(psi)
        pairs = psi.take(partners, axis=0)
        # Sums over the other bits, as products with ones (fastest here).
        coherence = half @ (pairs[0] * pairs[1].conj())
        return w_diag @ diag + (w_off @ coherence).real, diag[0]

    return weights


def block_width(kraus, steps):
    """Columns per block of ``steps`` steps on ``kraus``, at least one.

    Each of these stays within ``BLOCK_BYTES``: the amplitudes and pair
    products :func:`jump_probabilities` gathers, 24 B per amplitude for
    each qubit that carries a channel; one state at 16 B per amplitude; and
    one uniform and one overlap per step.  The states count at one step a
    chunk: a block too wide for a full chunk takes a shorter one
    (:func:`chunk_length`), not fewer columns.
    """
    dim = 2**kraus.n
    charged = len({ch.qubit for ch in kraus.channels})
    return max(1, BLOCK_BYTES // max(24 * charged * dim, 16 * dim, 8 * steps))


def chunk_length(dim, width):
    """Steps per chunk for a block of ``width`` columns of dimension ``dim``.

    ``CHUNK``, or fewer, so that the chunk's states take at most
    ``BLOCK_BYTES`` at 16 B per amplitude; at least one step.
    """
    return max(1, min(CHUNK, BLOCK_BYTES // (16 * dim * width)))


def run_steps(psi0, kraus, corrections, uniforms, sample_idx, rho_sum=None):
    """Evolve ``uniforms.shape[1]`` trajectories from ``psi0`` as one block.

    ``kraus`` supplies the one-qubit jump ``factors`` of its ``channels``
    and the dense ``no_jump`` operator, in the frame of ``psi0``, and
    ``uniforms`` one uniform per step and trajectory ``(steps, B)``.  When
    ``rho_sum`` is given, ``rho_sum[i]`` gains the block's summed outer
    products ``psi psi^dagger`` at grid index ``sample_idx[i]``, in that
    frame; the indices ascend.  A jump of channel ``k`` is followed by
    ``corrections[k].apply`` unless ``corrections`` is ``None``.  The block
    takes the result type of ``psi0``, the Kraus set's ``no_jump`` and
    ``factors``, and each correction's ``u_dag`` and ``axis``.  A failed
    step raises :class:`StepFailure` (see the module docstring).
    """
    steps, width = uniforms.shape
    arrays = [psi0, kraus.no_jump, kraus.factors]
    for c in corrections or ():
        arrays += [c.u_dag, c.axis]
    dtype = np.result_type(*arrays)
    factors = kraus.factors
    # A no-op unless the Kraus set is real and another input complex.
    no_jump = kraus.no_jump.astype(dtype, copy=False)
    qubits = [ch.qubit for ch in kraus.channels]
    # The weights map takes blocks of its factors' dtype.
    weights = jump_probabilities(factors.astype(dtype, copy=False), qubits, kraus.n)
    psi0 = psi0.astype(dtype, copy=False)
    ref = psi0.conj()
    chunk = chunk_length(psi0.shape[0], width)
    # Slot 0 holds the chunk's normalized first state, slot j + 1 the
    # unnormalized state after the chunk's step j.
    buf = np.empty((chunk + 1, psi0.shape[0], width), dtype=dtype)
    views = list(buf)
    views[0][:] = psi0[:, None]
    samples = [] if rho_sum is None else sample_idx.tolist()
    overlaps = np.ones((steps + 1, width))
    jump_steps, jump_columns, jump_channels = [], [], []
    if samples and samples[0] == 0:
        rho_sum[0] += views[0] @ views[0].conj().T
    acc, norm2 = weights(views[0])
    for start in range(0, steps, chunk):
        norms, overflow = [], None
        for j, s in enumerate(range(start, min(start + chunk, steps))):
            # A column clicks when its uniform falls below its total weight; a
            # column over the probability bound clicks too, since u < 1.  The
            # test does not depend on the column's scale.
            threshold = uniforms[s] * norm2
            clicks = acc[-1:] > threshold  # empty without channels
            psi, nxt = views[j], views[j + 1]
            np.matmul(no_jump, psi, out=nxt)
            if np.count_nonzero(clicks):  # cheaper than nonzero() on no click
                clicked = clicks.nonzero()[1]
                total = acc[-1, clicked] / norm2[clicked]
                if (over := 1.0 - total < -PROBABILITY_SLACK).any():
                    overflow = StepFailure("overflow", s, int(clicked[over.argmax()]))
                    break
                picked = (acc[:, clicked] <= threshold[clicked]).sum(axis=0)
                for k in set(picked.tolist()):
                    cols = clicked[picked == k]
                    branch = on_qubit(factors[k], qubits[k], psi[:, cols])
                    if corrections is not None:
                        branch = corrections[k].apply(branch)
                    nxt[:, cols] = branch
                jump_steps.append(np.full(clicked.size, s))
                jump_columns.append(clicked)
                jump_channels.append(picked)
            acc, norm2 = weights(nxt)
            norms.append(norm2)
        norms = np.array(norms).reshape(-1, width)  # (0, B) on a first-step overflow
        if not norms.all():  # a collapsed column (norms are never negative)
            collapsed = norms == 0.0
            j = int(collapsed.any(axis=1).argmax())
            raise StepFailure("collapse", start + j, int(collapsed[j].argmax()))
        if overflow is not None:
            raise overflow
        done = norms.shape[0]
        states = buf[1 : done + 1]
        states *= (1.0 / np.sqrt(norms))[:, None, :]
        np.abs(ref @ states, out=overlaps[start + 1 : start + done + 1])
        lo = bisect.bisect_left(samples, start + 1)
        hi = bisect.bisect_right(samples, start + done)
        if hi > lo:
            offsets = [i - start for i in samples[lo:hi]]
            if offsets[-1] - offsets[0] == hi - lo - 1:  # a view, not a copy
                sampled = buf[offsets[0] : offsets[-1] + 1]
            else:
                sampled = buf[offsets]
            rho_sum[lo:hi] += sampled @ sampled.conj().swapaxes(1, 2)
        views[0][:] = views[done]
    jump_steps, jump_columns, jump_channels = (
        np.concatenate(log) if log else np.zeros(0, dtype=np.int64)
        for log in (jump_steps, jump_columns, jump_channels)
    )
    counts = np.bincount(jump_steps + 1, minlength=steps + 1).cumsum()
    # In place: the reduction takes no array as large as the overlaps.
    infid = np.square(overlaps, out=overlaps)
    np.subtract(1.0, np.minimum(infid, 1.0, out=infid), out=infid)
    infid_sum = infid.sum(axis=1)
    infid -= infid_sum[:, None] / width
    infid_m2 = np.square(infid, out=infid).sum(axis=1)
    return BlockResult(
        jump_steps.size, infid_sum, infid_m2, counts,
        jump_steps, jump_columns, jump_channels,
    )
