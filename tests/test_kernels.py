import inspect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import jumpqec
import jumpqec.trajectory as trajectory
from jumpqec import ErrorChannel, KrausSet, SimConfig, StabilizerCode, StepSizeError
from jumpqec import build_code, kraus_set, prepare, run_ensemble, tensor_embed
from jumpqec._kernels import (
    CHUNK,
    BlockResult,
    StepFailure,
    jump_probabilities,
    run_steps,
)
from jumpqec.trajectory import _trajectory_uniforms, density_sample_indices

from helpers import (
    SIGMA_MINUS,
    TrajectoryState,
    dense_jumps,
    family_channel_set,
    rank3_channels,
    relaxation_channels,
    step,
)

#: Single generator -Z on one qubit: the codespace is span{|1>}.
EXCITED_OVERRIDE = (np.array([[0.0, 0.0, -1.0]]),)

#: Single generator Z on one qubit, whose frame is the computational basis.
Z_CODE = StabilizerCode(1, [np.array([[0.0, 0.0, 1.0]])])


class _Replay:
    """Generator stub that replays a fixed uniform array."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return float(next(self.values))


def _bare_config(**extra):
    return SimConfig(
        n=2, channels=relaxation_channels(2, gamma=0.3), dt=0.02,
        duration=4.0, seed=13, feedback_enabled=False, driving_enabled=False,
        **extra,
    )


def _uniform_block(cfg, indices):
    return np.stack([_trajectory_uniforms(cfg, i) for i in indices], axis=1)


def _run_block(setup, uniforms, sample_idx):
    dim = setup.psi0.shape[0]
    rho_sum = np.zeros((sample_idx.shape[0], dim, dim), dtype=complex)
    result = run_steps(
        setup.psi0, setup.kraus, setup.corrections, uniforms, sample_idx, rho_sum
    )
    return result, rho_sum


def _reference(setup, uniforms):
    """``step()`` run on one uniform stream, in the setup's frame: events,
    fidelities, states."""
    order = setup.kraus.channels
    ts = TrajectoryState(state=setup.psi0.copy())
    rng = _Replay(uniforms)
    events, fids, states = [], [1.0], [setup.psi0.copy()]
    for s in range(uniforms.shape[0]):
        ts, event = step(ts, setup.kraus, setup.corrections, rng)
        if event is not None:
            events.append((s, order.index(event)))
        fids.append(min(1.0, abs(np.vdot(setup.psi0, ts.state)) ** 2))
        states.append(ts.state)
    return events, np.array(fids), np.array(states)


def _block_matches_reference(cfg, width, sample_idx=None):
    """Run ``width`` trajectories as one block and check them against ``step()``.

    Jump events must agree exactly; infidelity sums, their squared
    deviations and density sums within 1e-12.  Densities are sampled at
    ``sample_idx``, by default at grid points 0, 1, 17, 100 and the last
    that the run reaches.
    """
    setup = prepare(cfg)
    uniforms = _uniform_block(cfg, range(width))
    if sample_idx is None:
        sample_idx = np.unique(np.minimum([0, 1, 17, 100, cfg.steps], cfg.steps))
    result, rho_sum = _run_block(setup, uniforms, sample_idx)
    infids = []
    rho_ref = np.zeros_like(rho_sum)
    total = 0
    for b in range(width):
        events, fids, states = _reference(setup, uniforms[:, b])
        assert _column_log(result, b) == events
        total += len(events)
        infids.append(1.0 - fids)
        snaps = states[sample_idx]
        rho_ref += np.einsum("sd,se->sde", snaps, snaps.conj())
    infids = np.array(infids)
    deviations = infids - infids.mean(axis=0)
    assert total > 0 and result.status == total == result.jump_counts[-1]
    assert_allclose(result.infid_sum, infids.sum(axis=0), atol=1e-12)
    assert_allclose(result.infid_m2, (deviations**2).sum(axis=0), atol=1e-12)
    assert_allclose(rho_sum, rho_ref, atol=1e-12)
    return result


def _column_log(result, column):
    picked = result.jump_columns == column
    return list(zip(result.jump_steps[picked].tolist(),
                    result.jump_channels[picked].tolist()))


def _failure(psi0, kraus, uniforms):
    """The ``(kind, step, column)`` a block of ``uniforms`` fails with."""
    with pytest.raises(StepFailure) as failed:
        run_steps(psi0, kraus, None, uniforms, np.array([0], dtype=np.int64))
    return failed.value.kind, failed.value.step, failed.value.column


class TestKernelMatchesReference:
    def test_states_and_events(self):
        cfg = SimConfig(
            n=2, channels=relaxation_channels(2, gamma=0.3), dt=0.02,
            duration=4.0, seed=13,
        )
        setup = prepare(cfg)
        uniforms = _trajectory_uniforms(cfg, 0)
        sample_idx = np.arange(cfg.steps + 1, dtype=np.int64)
        result, rho_sum = _run_block(setup, uniforms[:, None], sample_idx)
        ref_events, ref_fid, ref_states = _reference(setup, uniforms)
        assert _column_log(result, 0) == ref_events
        assert result.status == len(ref_events) == result.jump_counts[-1]
        assert_allclose(1.0 - result.infid_sum, ref_fid, atol=1e-12)
        assert np.all(result.infid_m2 == 0.0)
        ref_rho = np.einsum("sd,se->sde", ref_states, ref_states.conj())
        assert_allclose(rho_sum, ref_rho, atol=1e-12)

    def test_block_of_six_matches_reference(self):
        _block_matches_reference(_bare_config(), 6)

    def test_protected_six_qubits_match_reference(self):
        cfg = SimConfig(
            n=6, channels=relaxation_channels(6, gamma=0.5), dt=0.01,
            duration=2.0, seed=5,
        )
        assert cfg.steps == 200
        _block_matches_reference(cfg, 4)

    def test_unprotected_rank3_matches_reference(self):
        cfg = SimConfig(
            n=4, channels=rank3_channels(4), dt=0.01, duration=2.0, seed=6,
            feedback_enabled=False, driving_enabled=False,
        )
        assert cfg.steps == 200
        _block_matches_reference(cfg, 4)

    def test_feedback_block_matches_reference(self):
        cfg = SimConfig(
            n=2, channels=relaxation_channels(2, gamma=0.3), dt=0.02,
            duration=4.0, seed=13,
        )
        result = _block_matches_reference(cfg, 12)
        # Steps where two columns click different channels, and the same one.
        clicks = {}
        for s, k in zip(result.jump_steps, result.jump_channels):
            clicks.setdefault(int(s), []).append(int(k))
        assert any(len(set(ks)) > 1 for ks in clicks.values())
        assert any(len(set(ks)) < len(ks) for ks in clicks.values())

    def test_driven_block_without_feedback_matches_reference(self):
        cfg = SimConfig(
            n=2, channels=relaxation_channels(2, gamma=0.3), dt=0.02,
            duration=4.0, seed=13, feedback_enabled=False,
        )
        assert prepare(cfg).corrections is None
        _block_matches_reference(cfg, 6)

    @pytest.mark.parametrize("steps", [1, 15, 16, 17, 37])
    def test_runs_across_chunk_boundaries_match_reference(self, steps):
        # The engine renormalizes and takes overlaps once per chunk of
        # CHUNK = 16 steps: runs shorter than one, of one, and ending one
        # step into a chunk or within one.
        assert CHUNK == 16
        cfg = SimConfig(
            n=2, channels=relaxation_channels(2, gamma=0.3), dt=0.05,
            duration=steps * 0.05, seed=13,
        )
        assert cfg.steps == steps
        _block_matches_reference(cfg, 64)

    def test_sampled_densities_inside_and_across_chunks(self):
        # Stride 3 puts samples at every chunk offset, and the last sample
        # one step after the one before it.
        cfg = SimConfig(
            n=2, channels=relaxation_channels(2, gamma=0.3), dt=0.002,
            duration=5.0, seed=4, feedback_enabled=False, driving_enabled=False,
        )
        sample_idx = density_sample_indices(cfg.steps)
        assert cfg.steps == 2500 and sample_idx[1] == 3 and sample_idx[-2] == 2499
        _block_matches_reference(cfg, 3, sample_idx)

    def test_block_size_independence(self):
        cfg = _bare_config()
        setup = prepare(cfg)
        uniforms = _uniform_block(cfg, range(8))
        sample_idx = density_sample_indices(cfg.steps)
        runs = []
        for width in (8, 4, 1):
            log = []
            sums = [np.zeros(cfg.steps + 1), np.zeros(cfg.steps + 1, dtype=np.int64)]
            rho_total = 0.0
            for start in range(0, 8, width):
                result, rho_sum = _run_block(
                    setup, uniforms[:, start:start + width], sample_idx
                )
                log += [
                    (start + b, event)
                    for b in range(width)
                    for event in _column_log(result, b)
                ]
                sums[0] += result.infid_sum
                sums[1] += result.jump_counts
                rho_total = rho_total + rho_sum
            runs.append((sorted(log), sums, rho_total))
        (log_a, sums_a, rho_a), *others = runs
        assert log_a
        for log_b, sums_b, rho_b in others:
            assert log_b == log_a
            assert np.array_equal(sums_b[1], sums_a[1])
            assert_allclose(sums_b[0], sums_a[0], atol=1e-12)
            assert_allclose(rho_b, rho_a, atol=1e-12)

    def test_no_channels(self):
        dim = 4
        psi0 = np.zeros(dim, dtype=complex)
        psi0[0] = 1.0
        sample_idx = np.array([0, 50], dtype=np.int64)
        rho_sum = np.zeros((2, dim, dim), dtype=complex)
        result = run_steps(
            psi0,
            kraus_set([], StabilizerCode(2, [np.tile([0.0, 0, 1.0], (2, 1))]), 0.01),
            None,
            np.random.default_rng(1).random((50, 3)),
            sample_idx,
            rho_sum,
        )
        assert result.status == 0
        assert np.all(result.infid_sum == 0.0)
        assert np.all(result.jump_counts == 0)
        assert result.jump_steps.size == 0
        assert_allclose(rho_sum[1], 3.0 * np.outer(psi0, psi0.conj()), atol=1e-15)

    def test_overflow_flags_first_step(self):
        psi0 = np.array([0.0, 1.0], dtype=complex)
        kraus = KrausSet(
            dt=1.0, no_jump=np.eye(2, dtype=complex),
            factors=np.array([2.0 * SIGMA_MINUS]),
            channels=(ErrorChannel(qubit=0, operator=2.0 * SIGMA_MINUS),),
            code=Z_CODE, terms=(),
        )
        assert _failure(psi0, kraus, np.full((10, 2), 0.5)) == ("overflow", 0, 0)

    def test_snapshot_grid_positions(self):
        cfg = SimConfig(
            n=2, channels=relaxation_channels(2, gamma=0.3), dt=0.02,
            duration=0.2, seed=2,
        )
        setup = prepare(cfg)
        uniforms = _uniform_block(cfg, range(3))
        sample_idx = np.array([0, 3, 7], dtype=np.int64)
        result, rho_sum = _run_block(setup, uniforms, sample_idx)
        assert rho_sum.shape == (3, 4, 4)
        assert_allclose(
            rho_sum[0], 3.0 * np.outer(setup.psi0, setup.psi0.conj()), atol=1e-15
        )
        traces = np.trace(rho_sum, axis1=1, axis2=2)
        assert_allclose(traces, 3.0, atol=1e-12)


def _readme_config(**extra):
    return SimConfig(
        n=2, channels=relaxation_channels(2, gamma=0.5), dt=1e-3, duration=3.0,
        trajectories=200, **extra,
    )


def _engine_arrays(setup):
    arrays = [setup.psi0, setup.kraus.no_jump, setup.kraus.factors]
    for c in setup.corrections or ():
        arrays += [c.u_dag, c.axis]
    return arrays


def _as_complex(setup):
    """``setup`` with every array the engine reads cast to complex128."""

    def cast(a):
        return a.astype(np.complex128)

    kraus = replace(
        setup.kraus, no_jump=cast(setup.kraus.no_jump), factors=cast(setup.kraus.factors)
    )
    corrections = tuple(
        replace(c, u_dag=cast(c.u_dag), axis=cast(c.axis)) for c in setup.corrections
    )
    return replace(setup, kraus=kraus, corrections=corrections, psi0=cast(setup.psi0))


class TestRealArithmetic:
    @pytest.mark.parametrize(
        "cfg",
        [
            _readme_config(),
            SimConfig(
                n=5, channels=relaxation_channels(5, gamma=0.5), dt=1e-3,
                duration=1.0, seed=3, trajectories=16,
            ),
        ],
        ids=["readme", "n5-protected"],
    )
    def test_real_and_complex_blocks_agree(self, cfg):
        setup = prepare(cfg)
        assert setup.kraus.no_jump.dtype == np.float64
        uniforms = _uniform_block(cfg, range(cfg.trajectories))
        sample_idx = density_sample_indices(cfg.steps)
        real, rho_real = _run_block(setup, uniforms, sample_idx)
        full, rho_full = _run_block(_as_complex(setup), uniforms, sample_idx)
        assert real.status == full.status > 0
        for name in ("jump_steps", "jump_columns", "jump_channels", "jump_counts"):
            assert np.array_equal(getattr(real, name), getattr(full, name))
        # Real and complex products may round differently in the last bits,
        # and they add the columns of the sums in different orders.
        width = cfg.trajectories
        assert_allclose(real.infid_sum, full.infid_sum, rtol=0, atol=1e-14 * width)
        assert_allclose(rho_real, rho_full, rtol=0, atol=2e-15 * width)

    def test_engine_dtype_follows_its_inputs(self):
        # Relaxation channels on the synthesized code are exactly real in
        # its eigenframe.
        setup = prepare(_readme_config())
        assert {a.dtype for a in _engine_arrays(setup)} == {np.dtype(np.float64)}
        assert not setup.kraus.no_jump.flags.writeable
        assert not setup.kraus.factors.flags.writeable
        # One complex input makes the block complex: a complex initial
        # vector, or the rank-3 set's Y-axis channel.  Each array keeps its
        # own dtype: the no-jump operator is complex only from complex
        # channel data, and the block casts a real one once.
        phased = _readme_config(initial_state=(2**-0.5, 1j * 2**-0.5))
        rank3 = SimConfig(n=4, channels=rank3_channels(4), dt=1e-3, duration=0.01)
        for cfg, no_jump_dtype in ((phased, np.float64), (rank3, np.complex128)):
            setup = prepare(cfg)
            assert np.result_type(*_engine_arrays(setup)) == np.complex128
            assert setup.kraus.no_jump.dtype == no_jump_dtype
        setup = prepare(phased)
        uniforms = _uniform_block(phased, range(phased.trajectories))
        sample_idx = density_sample_indices(phased.steps)
        mixed, rho_mixed = _run_block(setup, uniforms, sample_idx)
        full, rho_full = _run_block(_as_complex(setup), uniforms, sample_idx)
        assert mixed.status == full.status > 0
        assert np.array_equal(mixed.jump_steps, full.jump_steps)
        width = phased.trajectories
        assert_allclose(mixed.infid_sum, full.infid_sum, rtol=0, atol=1e-14 * width)
        assert_allclose(rho_mixed, rho_full, rtol=0, atol=2e-15 * width)
        # The corrections hold no codespace rows: they project through the code.
        for cfg in (_readme_config(), rank3):
            setup = prepare(cfg)
            assert all(c.code is setup.code for c in setup.corrections)
            assert not any(hasattr(c, "codespace") for c in setup.corrections)


class TestLocalProbabilities:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), pair=st.booleans(), normalized=st.booleans()
    )
    def test_equal_the_dense_branch_norms(self, seed, pair, normalized):
        # Unnormalized columns scale the weights and norms by |psi|^2.
        rng = np.random.default_rng(seed)
        n, channels = family_channel_set(rng, pair)
        ks = kraus_set(channels, build_code(channels, n), 0.01)
        psi = rng.normal(size=(2**n, 5)) + 1j * rng.normal(size=(2**n, 5))
        if normalized:
            psi /= np.linalg.norm(psi, axis=0)
        weights = jump_probabilities(ks.factors, [ch.qubit for ch in channels], n)
        acc, norm2 = weights(psi)
        dense = np.cumsum(
            [np.linalg.norm(op @ psi, axis=0) ** 2 for _, op in dense_jumps(ks)],
            axis=0,
        )
        norms = np.linalg.norm(psi, axis=0) ** 2
        assert acc.shape == dense.shape == (len(channels), 5)
        assert norm2.shape == (5,)
        assert np.max(np.abs(acc - dense) / norms) <= 1e-15
        assert np.max(np.abs(norm2 - norms) / norms) <= 1e-15

    def test_dense_jumps_embed_the_factors(self):
        # The pair's frame is the computational basis.
        channels = rank3_channels(2)
        ks = kraus_set(channels, build_code(channels, 2), 0.04)
        for (ch, op), factor in zip(dense_jumps(ks), ks.factors):
            assert_allclose(factor, 0.2 * ch.operator, rtol=0, atol=1e-16)
            assert np.array_equal(op, tensor_embed(factor, ch.qubit, 2))


class TestKernelContract:
    def test_benchmark_reads_uniforms_and_status_in_place(self):
        # The benchmark's kernel hook wraps ``jumpqec._kernels.run_steps``,
        # reads ``uniforms`` as the positional argument at index 3 and the
        # jump total as the first result field.
        assert jumpqec._kernels.run_steps is run_steps
        params = list(inspect.signature(run_steps).parameters.values())
        assert params[3].name == "uniforms"
        assert params[3].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert BlockResult._fields[0] == "status"

    def test_protected_prepare_calls_the_hooked_names(self, monkeypatch):
        # The benchmark times ``controls.plan`` and ``channels.kraus_set``
        # by wrapping these names in ``jumpqec.trajectory``.
        calls = []
        for name in ("build_control_plan", "kraus_set"):
            original = getattr(trajectory, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(trajectory, name, spy)
        cfg = SimConfig(n=2, channels=relaxation_channels(2), dt=0.01, duration=0.1)
        assert prepare(cfg).corrections is not None
        assert calls == ["build_control_plan", "kraus_set"]


class TestBlockAbort:
    def test_abort_in_one_column_names_its_trajectory(self, monkeypatch):
        # From |1> the lowering channel fires with probability 0.5; from |0>
        # the raising channel would fire with probability 8, so the step
        # after a lowering jump aborts.  Of the six trajectories in the one
        # block, only trajectory 3 draws that jump.
        channels = (
            ErrorChannel(
                qubit=0, operator=5.0 * SIGMA_MINUS, gamma=0.0, phi=0.0, label="down"
            ),
            ErrorChannel(
                qubit=0, operator=20.0 * SIGMA_MINUS.T, gamma=0.0, phi=0.0, label="up"
            ),
        )
        cfg = SimConfig(
            n=1, channels=channels, dt=0.02, duration=0.2, trajectories=6,
            feedback_enabled=False, driving_enabled=False,
            code_override=EXCITED_OVERRIDE,
        )

        def uniforms(cfg, index):
            draws = np.full(cfg.steps, 0.9)
            if index == 3:
                draws[4] = 0.1
            return draws

        monkeypatch.setattr(trajectory, "_trajectory_uniforms", uniforms)
        with pytest.raises(StepSizeError, match=r"at step 5 \(t=0\.1\) in trajectory 3;"):
            run_ensemble(cfg, collect_density=False)

    def test_overflow_reports_lowest_failing_column(self):
        # From |0> only "up" fires, with probability 0.25; from |1> "down"
        # would fire with probability 4.  Columns 1 and 3 jump up at step 2,
        # so both overflow at step 3; columns 0 and 2 never click.
        psi0 = np.array([1.0, 0.0], dtype=complex)
        factors = np.array([2.0 * SIGMA_MINUS, 0.5 * SIGMA_MINUS.T])
        kraus = KrausSet(
            dt=1.0, no_jump=np.eye(2, dtype=complex), factors=factors,
            channels=tuple(ErrorChannel(qubit=0, operator=f) for f in factors),
            code=Z_CODE, terms=(),
        )
        uniforms = np.full((10, 4), 0.9)
        uniforms[2, [1, 3]] = 0.1
        assert _failure(psi0, kraus, uniforms) == ("overflow", 3, 1)


#: Two qubits, basis index 2 q0 + q1, states in the computational basis.
#: From |11>, "a" (qubit 1) and "b" (qubit 0) each fire with weight 1/4;
#: after "a" the column sits in |10>, which no channel leaves and the
#: no-jump step annihilates, so it collapses on its next step without a
#: click.  After "b" it sits in |01>, where "c" has weight 4, so its next
#: step overflows.
_COLLAPSE_FACTORS = np.array([0.5 * SIGMA_MINUS, 0.5 * SIGMA_MINUS, 2.0 * SIGMA_MINUS.T])
_COLLAPSE_KRAUS = KrausSet(
    dt=1.0, no_jump=np.diag([1.0, 1.0, 0.0, 1.0]).astype(complex),
    factors=_COLLAPSE_FACTORS,
    channels=tuple(
        ErrorChannel(qubit=q, operator=f)
        for q, f in zip((1, 0, 0), _COLLAPSE_FACTORS)
    ),
    code=StabilizerCode(2, [np.tile([0.0, 0.0, 1.0], (2, 1))]), terms=(),
)
_COLLAPSE_PSI0 = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
_DOWN_A, _DOWN_B = 0.1, 0.3  # uniforms that pick "a" and "b" from |11>


class TestBlockCollapse:
    def test_collapse_reports_its_step_and_lowest_column(self):
        # Columns 1 and 3 fire "a" at step 2 and collapse at step 3; column
        # 0 fires "a" at step 6, after the collapse, inside the same chunk.
        uniforms = np.full((10, 4), 0.9)
        uniforms[2, [1, 3]] = _DOWN_A
        uniforms[6, 0] = _DOWN_A
        assert _failure(_COLLAPSE_PSI0, _COLLAPSE_KRAUS, uniforms) == ("collapse", 3, 1)

    def test_collapse_wins_over_a_later_overflow_in_its_chunk(self):
        # Column 2 collapses at step 3; column 0 fires "b" at step 4 and
        # would overflow at step 5.  The earlier collapse is reported.
        uniforms = np.full((10, 4), 0.9)
        uniforms[2, 2] = _DOWN_A
        uniforms[4, 0] = _DOWN_B
        assert _failure(_COLLAPSE_PSI0, _COLLAPSE_KRAUS, uniforms) == ("collapse", 3, 2)

    @pytest.mark.parametrize(
        "down, what",
        [
            (_DOWN_A, "the no-jump step annihilated the state"),
            (_DOWN_B, "total jump probability exceeded 1"),
        ],
        ids=["collapse", "overflow"],
    )
    def test_run_block_names_the_failure(self, monkeypatch, down, what):
        # Trajectory 1 jumps at step 2, then collapses or overflows at step 3.
        cfg = SimConfig(
            n=2, channels=_COLLAPSE_KRAUS.channels, dt=1.0, duration=10.0,
            trajectories=4, feedback_enabled=False, driving_enabled=False,
        )
        setup = trajectory.SimulationSetup(
            kraus=_COLLAPSE_KRAUS, corrections=None, psi0=_COLLAPSE_PSI0
        )

        def uniforms(cfg, index):
            draws = np.full(cfg.steps, 0.9)
            if index == 1:
                draws[2] = down
            return draws

        monkeypatch.setattr(trajectory, "_trajectory_uniforms", uniforms)
        message = rf"^{what} at step 3 \(t=3\) in trajectory 1; decrease dt$"
        with pytest.raises(StepSizeError, match=message):
            trajectory._run_block(cfg, setup, range(4), np.array([0], dtype=np.int64))
