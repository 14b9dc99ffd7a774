import numpy as np
import pytest
from numpy.testing import assert_allclose

import jumpqec as jq
from jumpqec import (
    ErrorChannel,
    SimConfig,
    StepSizeError,
    TrajectoryState,
    effective_jump_operator,
    fidelity,
    jump_backaction,
    kraus_set,
    master_equation_oracle,
    prepare,
    run_ensemble,
    run_trajectory,
    step,
    tensor_embed,
    trace_distance,
)

from helpers import SIGMA_MINUS, random_channel_set, relaxation_channels

#: Single generator -Z on one qubit: the codespace is span{|1>}.
EXCITED_OVERRIDE = (np.array([[0.0, 0.0, -1.0]]),)


class _FixedUniform:
    """Stub generator returning a constant, for branch-forcing tests."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def _lowering(qubit, gamma=0.0, label=0):
    return ErrorChannel(
        qubit=qubit, operator=SIGMA_MINUS, gamma=gamma, phi=0.0, label=label
    )


class TestSimConfig:
    def test_steps_rounding(self):
        cfg = SimConfig(n=1, channels=(), dt=0.3, duration=0.9)
        assert cfg.steps == 3

    def test_rejects_bad_register_size(self):
        with pytest.raises(ValueError):
            SimConfig(n=0, channels=(), dt=0.1, duration=1.0)

    def test_rejects_channel_outside_register(self):
        with pytest.raises(ValueError):
            SimConfig(n=1, channels=(_lowering(3),), dt=0.1, duration=1.0)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            SimConfig(n=1, channels=(), dt=0.0, duration=1.0)

    def test_rejects_subgrid_duration(self):
        with pytest.raises(ValueError):
            SimConfig(n=1, channels=(), dt=0.1, duration=0.05)

    def test_rejects_zero_trajectories(self):
        with pytest.raises(ValueError):
            SimConfig(n=1, channels=(), dt=0.1, duration=1.0, trajectories=0)

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError):
            SimConfig(n=1, channels=(), dt=0.1, duration=1.0, seed=2**64)

    def test_rejects_misshapen_override(self):
        with pytest.raises(ValueError):
            SimConfig(
                n=2,
                channels=(),
                dt=0.1,
                duration=1.0,
                code_override=(np.zeros((1, 3)),),
            )


class TestStep:
    def test_no_channels_leaves_state(self):
        ks = kraus_set([], None, 1, 0.1)
        ts = TrajectoryState(state=np.array([1.0, 0.0], dtype=complex))
        ts, event = step(ts, ks, None, _FixedUniform(0.5))
        assert event is None
        assert ts.time == pytest.approx(0.1)
        assert_allclose(ts.state, [1.0, 0.0], atol=1e-15)
        assert ts.jump_log == []

    def test_forced_jump_with_feedback_restores_ray(self):
        cfg = SimConfig(
            n=2, channels=relaxation_channels(2), dt=0.01, duration=1.0
        )
        setup = prepare(cfg)
        ts = TrajectoryState(state=setup.initial.copy())
        ts, event = step(ts, setup.kraus, setup.plan, _FixedUniform(0.0))
        assert event is cfg.channels[0]
        assert fidelity(ts.state, setup.initial) == pytest.approx(1.0, abs=1e-9)
        assert ts.jump_log == [(pytest.approx(0.01), cfg.channels[0])]

    def test_uniform_brackets_jump_probability(self):
        # From |1> the lone lowering channel fires with probability dt.
        ch = _lowering(0)
        ks = kraus_set([ch], None, 1, 0.01)
        excited = np.array([0.0, 1.0], dtype=complex)
        below = TrajectoryState(state=excited.copy())
        _, event = step(below, ks, None, _FixedUniform(0.01 - 1e-12))
        assert event is ch
        assert_allclose(below.state, [1.0, 0.0], atol=1e-15)
        above = TrajectoryState(state=excited.copy())
        _, event = step(above, ks, None, _FixedUniform(0.01 + 1e-12))
        assert event is None
        assert_allclose(above.state, [0.0, 1.0], atol=1e-15)

    def test_oversized_probability_raises(self):
        ch = ErrorChannel(
            qubit=0, operator=5.0 * SIGMA_MINUS, gamma=0.0, phi=0.0, label=0
        )
        ks = kraus_set([ch], None, 1, 0.1)
        ts = TrajectoryState(state=np.array([0.0, 1.0], dtype=complex))
        with pytest.raises(StepSizeError):
            step(ts, ks, None, _FixedUniform(0.5))


class TestRunTrajectory:
    def test_bit_reproducible(self):
        cfg = SimConfig(
            n=2, channels=relaxation_channels(2, gamma=0.3), dt=0.01,
            duration=2.0, seed=5,
        )
        rec_a, log_a = run_trajectory(cfg, 3)
        rec_b, log_b = run_trajectory(cfg, 3)
        assert np.array_equal(rec_a.mean_fidelity, rec_b.mean_fidelity)
        assert np.array_equal(rec_a.jump_counts, rec_b.jump_counts)
        assert log_a == log_b

    def test_trajectory_index_changes_randomness(self):
        cfg = SimConfig(
            n=2, channels=relaxation_channels(2, gamma=0.3), dt=0.01,
            duration=2.0, seed=5,
        )
        rec_a, _ = run_trajectory(cfg, 0)
        rec_b, _ = run_trajectory(cfg, 1)
        assert not np.array_equal(rec_a.jump_counts, rec_b.jump_counts)

    def test_single_step_grid(self):
        cfg = SimConfig(
            n=2, channels=relaxation_channels(2), dt=1e-3, duration=1e-3
        )
        rec, _ = run_trajectory(cfg, 0)
        assert_allclose(rec.times, [0.0, 1e-3])
        assert rec.mean_fidelity[-1] == pytest.approx(1.0, abs=1e-12)

    def test_kernel_overflow_surfaces_step_size_error(self):
        ch = ErrorChannel(
            qubit=0, operator=5.0 * SIGMA_MINUS, gamma=0.0, phi=0.0, label=0
        )
        cfg = SimConfig(
            n=1, channels=(ch,), dt=0.1, duration=1.0,
            feedback_enabled=False, driving_enabled=False,
            code_override=EXCITED_OVERRIDE,
        )
        with pytest.raises(StepSizeError, match="trajectory"):
            run_trajectory(cfg, 0)

    def test_channel_jump_totals_are_poisson(self):
        # README config: the closed loop keeps the state on the initial ray,
        # so channel k clicks at the constant rate |A_k psi0|^2.
        cfg = SimConfig(
            n=2, channels=relaxation_channels(2, gamma=0.5), dt=1e-3,
            duration=3.0, seed=7, trajectories=200,
        )
        setup = prepare(cfg)
        totals = dict.fromkeys(range(len(cfg.channels)), 0)
        for index in range(cfg.trajectories):
            _, log = run_trajectory(cfg, index, setup)
            for _, ch in log:
                totals[cfg.channels.index(ch)] += 1
        for k, ch in enumerate(cfg.channels):
            jump = tensor_embed(effective_jump_operator(ch), ch.qubit, cfg.n)
            rate = np.linalg.norm(jump @ setup.initial) ** 2
            expected = rate * cfg.duration * cfg.trajectories
            assert expected > 100
            assert abs(totals[k] - expected) <= 5.0 * np.sqrt(expected)


class TestStateComparisons:
    def test_fidelity_ignores_global_phase(self):
        v = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        assert fidelity(v, np.exp(0.7j) * v) == pytest.approx(1.0)

    def test_fidelity_orthogonal(self):
        a = np.array([1.0, 0.0], dtype=complex)
        b = np.array([0.0, 1.0], dtype=complex)
        assert fidelity(a, b) == pytest.approx(0.0)

    def test_fidelity_requires_unit_norm(self):
        with pytest.raises(ValueError):
            fidelity(np.array([2.0, 0.0]), np.array([1.0, 0.0]))

    def test_trace_distance_identical(self):
        rho = np.array([[0.5, 0.2], [0.2, 0.5]])
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-15)

    def test_trace_distance_orthogonal_pure(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(a, b) == pytest.approx(1.0)


class TestRunEnsemble:
    def test_single_trajectory_matches(self):
        cfg = SimConfig(
            n=2, channels=relaxation_channels(2, gamma=0.3), dt=0.01,
            duration=2.0, seed=5, trajectories=1,
        )
        res = run_ensemble(cfg)
        rec, _ = run_trajectory(cfg, 0)
        assert np.array_equal(res.record.mean_fidelity, rec.mean_fidelity)
        assert np.array_equal(res.record.jump_counts, rec.jump_counts)
        assert np.all(res.record.std_fidelity == 0.0)

    def test_repeat_runs_bit_identical(self):
        cfg = SimConfig(
            n=2, channels=relaxation_channels(2, gamma=0.3), dt=0.01,
            duration=1.0, seed=21, trajectories=5,
        )
        res_a = run_ensemble(cfg)
        res_b = run_ensemble(cfg)
        assert np.array_equal(res_a.record.mean_fidelity, res_b.record.mean_fidelity)
        assert np.array_equal(res_a.mean_density, res_b.mean_density)

    def test_density_starts_at_initial_projector(self):
        cfg = SimConfig(
            n=2, channels=relaxation_channels(2), dt=0.01, duration=0.5,
            trajectories=3,
        )
        setup = prepare(cfg)
        res = run_ensemble(cfg)
        assert res.density_times[0] == 0.0
        assert_allclose(
            res.mean_density[0],
            np.outer(setup.initial, setup.initial.conj()),
            atol=1e-14,
        )

    def test_oversized_density_series_refused_before_setup(self):
        # n=10: 1001 samples of 1024 x 1024 complex matrices, about 16 GiB.
        cfg = SimConfig(
            n=10, channels=relaxation_channels(10), dt=1e-3, duration=1.0,
            feedback_enabled=False, driving_enabled=False,
        )
        for run in (run_ensemble, master_equation_oracle):
            with pytest.raises(ValueError, match=r"15\.6 GiB.*collect_density=False"):
                run(cfg)

    def test_density_collection_optional(self):
        cfg = SimConfig(
            n=2, channels=relaxation_channels(2), dt=0.01, duration=0.5
        )
        res = run_ensemble(cfg, collect_density=False)
        assert res.density_times is None and res.mean_density is None

    def test_protected_infidelity_at_machine_precision(self):
        # Feedback plus driving pins the initial ray exactly, independent of
        # the step size: the no-jump operator is a scalar on the codespace
        # and every corrected jump acts as a scalar there too.
        for dt in (1e-2, 1e-3):
            cfg = SimConfig(
                n=2, channels=relaxation_channels(2, gamma=0.4), dt=dt,
                duration=2.0, seed=12, trajectories=20,
                initial_state=(1.0, 1.0j),
            )
            res = run_ensemble(cfg, collect_density=False)
            assert res.record.jump_counts[-1] > 0
            assert np.max(1.0 - res.record.mean_fidelity) <= 1e-12

    def test_jump_rate_matches_channel_strength(self):
        # In the codespace the firing probability per step is exactly the
        # channel rate times dt; check the empirical count over 1e4 steps.
        ch = _lowering(0, gamma=0.7)
        cfg = SimConfig(n=1, channels=(ch,), dt=0.02, duration=200.0, seed=3)
        rec, _ = run_trajectory(cfg, 0)
        expected = jump_backaction(ch).rate * cfg.dt * cfg.steps
        assert rec.jump_counts[-1] == pytest.approx(expected, rel=0.1)

    def test_protection_beats_bare_decay(self):
        channels = relaxation_channels(3)
        base = dict(
            n=3, channels=channels, dt=1e-3, duration=5.0 / 1.5, seed=99,
            trajectories=200,
        )
        prot = run_ensemble(SimConfig(**base), collect_density=False)
        bare = run_ensemble(
            SimConfig(**base, feedback_enabled=False, driving_enabled=False),
            collect_density=False,
        )
        gap = prot.record.mean_fidelity[-1] - bare.record.mean_fidelity[-1]
        assert gap >= 0.05


class TestMasterEquationOracle:
    def test_lone_qubit_decay_curve(self):
        cfg = SimConfig(
            n=1, channels=(_lowering(0),), dt=2e-3, duration=3.0,
            feedback_enabled=False, driving_enabled=False,
            code_override=EXCITED_OVERRIDE,
        )
        times, rhos = master_equation_oracle(cfg)
        excited_pop = np.array([r[1, 1].real for r in rhos])
        assert np.max(np.abs(excited_pop - np.exp(-times))) <= 1e-6

    def test_no_channels_is_stationary(self):
        cfg = SimConfig(n=2, channels=(), dt=0.05, duration=1.0,
                        code_override=(np.tile([1.0, 0, 0], (2, 1)),))
        times, rhos = master_equation_oracle(cfg)
        assert np.array_equal(rhos[-1], rhos[0])

    def test_trace_preserved_long_horizon(self):
        rng = np.random.default_rng(77)
        channels = random_channel_set(rng, 2)
        cfg = SimConfig(
            n=2, channels=channels, dt=0.05, duration=10.0,
            feedback_enabled=False, driving_enabled=False,
        )
        _, rhos = master_equation_oracle(cfg)
        traces = np.array([np.trace(r).real for r in rhos])
        assert np.max(np.abs(traces - 1.0)) <= 1e-8

    def test_custom_sample_indices(self):
        cfg = SimConfig(n=1, channels=(_lowering(0),), dt=0.01, duration=1.0,
                        feedback_enabled=False, driving_enabled=False,
                        code_override=EXCITED_OVERRIDE)
        times, rhos = master_equation_oracle(
            cfg, sample_indices=np.array([0, cfg.steps])
        )
        assert_allclose(times, [0.0, 1.0])
        assert rhos.shape == (2, 2, 2)

    def test_offset_does_not_move_the_mean(self):
        # The detection offset reshapes trajectories, not the averaged
        # evolution: ensembles at two offsets both track the same oracle.
        times, rhos = master_equation_oracle(
            SimConfig(
                n=1, channels=(_lowering(0),), dt=2e-3, duration=3.0,
                feedback_enabled=False, driving_enabled=False,
                code_override=EXCITED_OVERRIDE,
            )
        )
        for gamma, seed in ((0.0, 7), (0.5, 8)):
            cfg = SimConfig(
                n=1, channels=(_lowering(0, gamma=gamma),), dt=2e-3,
                duration=3.0, seed=seed, trajectories=1500,
                feedback_enabled=False, driving_enabled=False,
                code_override=EXCITED_OVERRIDE,
            )
            res = run_ensemble(cfg)
            tds = [
                trace_distance(a, b)
                for a, b in zip(res.mean_density, rhos)
            ]
            assert max(tds) <= 0.05
