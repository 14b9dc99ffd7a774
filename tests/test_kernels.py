import numpy as np
import pytest
from numpy.testing import assert_allclose

import jumpqec.trajectory as trajectory
from jumpqec import ErrorChannel, SimConfig, StepSizeError, TrajectoryState
from jumpqec import fidelity, prepare, run_ensemble, step
from jumpqec._kernels import run_steps
from jumpqec.trajectory import _trajectory_uniforms

from helpers import SIGMA_MINUS, relaxation_channels

#: Single generator -Z on one qubit: the codespace is span{|1>}.
EXCITED_OVERRIDE = (np.array([[0.0, 0.0, -1.0]]),)


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
    dim = setup.initial.shape[0]
    rho_sum = np.zeros((sample_idx.shape[0], dim, dim), dtype=complex)
    result = run_steps(
        setup.initial, setup.applied_jumps, setup.kraus.no_jump,
        uniforms, sample_idx, rho_sum,
    )
    return result, rho_sum


def _reference(setup, uniforms):
    """``step()`` run on one uniform stream: events, fidelities, states."""
    order = [ch for ch, _ in setup.kraus.jumps]
    ts = TrajectoryState(state=setup.initial.copy())
    rng = _Replay(uniforms)
    events, fids, states = [], [1.0], [setup.initial.copy()]
    for s in range(uniforms.shape[0]):
        ts, event = step(ts, setup.kraus, setup.plan, rng)
        if event is not None:
            events.append((s, order.index(event)))
        fids.append(fidelity(setup.initial, ts.state))
        states.append(ts.state)
    return events, np.array(fids), np.array(states)


def _column_log(result, column):
    picked = result.jump_columns == column
    return list(zip(result.jump_steps[picked].tolist(),
                    result.jump_channels[picked].tolist()))


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
        assert result.status >= 0
        ref_events, ref_fid, ref_states = _reference(setup, uniforms)
        assert _column_log(result, 0) == ref_events
        assert result.status == len(ref_events) == result.jump_counts[-1]
        assert_allclose(result.fid_sum, ref_fid, atol=1e-12)
        ref_rho = np.einsum("sd,se->sde", ref_states, ref_states.conj())
        assert_allclose(rho_sum, ref_rho, atol=1e-12)

    def test_block_of_six_matches_reference(self):
        cfg = _bare_config()
        setup = prepare(cfg)
        uniforms = _uniform_block(cfg, range(6))
        sample_idx = np.array([0, 1, 17, 100, cfg.steps], dtype=np.int64)
        result, rho_sum = _run_block(setup, uniforms, sample_idx)
        assert result.status >= 0
        fid_sum = np.zeros(cfg.steps + 1)
        fid_sq_sum = np.zeros(cfg.steps + 1)
        rho_ref = np.zeros_like(rho_sum)
        total = 0
        for b in range(6):
            events, fids, states = _reference(setup, uniforms[:, b])
            assert _column_log(result, b) == events
            total += len(events)
            fid_sum += fids
            fid_sq_sum += fids * fids
            snaps = states[sample_idx]
            rho_ref += np.einsum("sd,se->sde", snaps, snaps.conj())
        assert total > 0 and result.status == total == result.jump_counts[-1]
        assert_allclose(result.fid_sum, fid_sum, atol=1e-12)
        assert_allclose(result.fid_sq_sum, fid_sq_sum, atol=1e-12)
        assert_allclose(rho_sum, rho_ref, atol=1e-12)

    def test_block_size_independence(self):
        cfg = _bare_config()
        setup = prepare(cfg)
        uniforms = _uniform_block(cfg, range(8))
        sample_idx = setup.sample_indices
        runs = []
        for width in (8, 4, 1):
            log = []
            sums = [np.zeros(cfg.steps + 1), np.zeros(cfg.steps + 1),
                    np.zeros(cfg.steps + 1, dtype=np.int64)]
            rho_total = 0.0
            for start in range(0, 8, width):
                result, rho_sum = _run_block(
                    setup, uniforms[:, start:start + width], sample_idx
                )
                assert result.status >= 0
                log += [
                    (start + b, event)
                    for b in range(width)
                    for event in _column_log(result, b)
                ]
                sums[0] += result.fid_sum
                sums[1] += result.fid_sq_sum
                sums[2] += result.jump_counts
                rho_total = rho_total + rho_sum
            runs.append((sorted(log), sums, rho_total))
        (log_a, sums_a, rho_a), *others = runs
        assert log_a
        for log_b, sums_b, rho_b in others:
            assert log_b == log_a
            assert np.array_equal(sums_b[2], sums_a[2])
            assert_allclose(sums_b[0], sums_a[0], atol=1e-12)
            assert_allclose(sums_b[1], sums_a[1], atol=1e-12)
            assert_allclose(rho_b, rho_a, atol=1e-12)

    def test_no_channels(self):
        dim = 4
        psi0 = np.zeros(dim, dtype=complex)
        psi0[0] = 1.0
        sample_idx = np.array([0, 50], dtype=np.int64)
        rho_sum = np.zeros((2, dim, dim), dtype=complex)
        result = run_steps(
            psi0,
            np.zeros((0, dim, dim), dtype=complex),
            np.eye(dim, dtype=complex),
            np.random.default_rng(1).random((50, 3)),
            sample_idx,
            rho_sum,
        )
        assert result.status == 0
        assert np.all(result.fid_sum == 3.0)
        assert np.all(result.jump_counts == 0)
        assert result.jump_steps.size == 0
        assert_allclose(rho_sum[1], 3.0 * np.outer(psi0, psi0.conj()), atol=1e-15)

    def test_overflow_status_flags_first_step(self):
        psi0 = np.array([0.0, 1.0], dtype=complex)
        ops = np.array([[[0.0, 2.0], [0.0, 0.0]]], dtype=complex)
        result = run_steps(
            psi0, ops, np.eye(2, dtype=complex),
            np.full((10, 2), 0.5), np.array([0], dtype=np.int64),
        )
        assert result.status == -1
        assert result.failed_column == 0

    def test_snapshot_grid_positions(self):
        cfg = SimConfig(
            n=2, channels=relaxation_channels(2, gamma=0.3), dt=0.02,
            duration=0.2, seed=2,
        )
        setup = prepare(cfg)
        uniforms = _uniform_block(cfg, range(3))
        sample_idx = np.array([0, 3, 7], dtype=np.int64)
        result, rho_sum = _run_block(setup, uniforms, sample_idx)
        assert result.status >= 0
        assert rho_sum.shape == (3, 4, 4)
        assert_allclose(
            rho_sum[0], 3.0 * np.outer(setup.initial, setup.initial.conj()),
            atol=1e-15,
        )
        traces = np.trace(rho_sum, axis1=1, axis2=2)
        assert_allclose(traces, 3.0, atol=1e-12)


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
