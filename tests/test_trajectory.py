import json
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import jumpqec as jq
from jumpqec import (
    ErrorChannel,
    SimConfig,
    StabilizerCode,
    StepSizeError,
    effective_jump_operator,
    kraus_set,
    master_equation_oracle,
    prepare,
    run_ensemble,
    tensor_embed,
    trace_distance,
)
from jumpqec import _kernels, codes, linalg, trajectory
from jumpqec.linalg import expm1, max_abs
from jumpqec.cli import parse_config
from jumpqec.trajectory import _run_block, simulation_code

from helpers import (
    SIGMA_MINUS,
    TrajectoryState,
    dense_driving_hamiltonian,
    lindblad_generator,
    random_channel_set,
    rank3_channels,
    relaxation_channels,
    run_trajectory,
    step,
)

#: Single generator -Z on one qubit: the codespace is span{|1>}.
EXCITED_OVERRIDE = (np.array([[0.0, 0.0, -1.0]]),)

#: Single generator Z on one qubit: its eigenframe is the computational basis.
Z_CODE = StabilizerCode(1, [np.array([[0.0, 0.0, 1.0]])])


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

    @pytest.mark.parametrize(
        "dt, duration",
        [(np.inf, 1.0), (np.nan, 1.0), (0.1, np.inf), (0.1, np.nan)],
    )
    def test_rejects_non_finite_step_and_duration(self, dt, duration):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(n=1, channels=(), dt=dt, duration=duration)

    def test_rejects_step_count_that_overflows(self):
        # 1e300 / 1e-300 overflows to inf: no step count exists.
        with pytest.raises(ValueError, match="not a finite step count"):
            SimConfig(n=1, channels=(), dt=1e-300, duration=1e300)

    def test_rejects_subgrid_duration(self):
        with pytest.raises(ValueError):
            SimConfig(n=1, channels=(), dt=0.1, duration=0.05)

    def test_rejects_zero_trajectories(self):
        with pytest.raises(ValueError):
            SimConfig(n=1, channels=(), dt=0.1, duration=1.0, trajectories=0)

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError):
            SimConfig(n=1, channels=(), dt=0.1, duration=1.0, seed=2**64)

    @pytest.mark.parametrize("state", [True, False])
    def test_rejects_boolean_initial_state(self, state):
        with pytest.raises(ValueError, match="initial_state"):
            SimConfig(n=2, channels=(), dt=0.1, duration=1.0, initial_state=state)

    @pytest.mark.parametrize(
        "state",
        [(np.nan, 1.0), (1.0, np.inf), (complex(1.0, np.nan), 0.0), (-np.inf, 0.0)],
    )
    def test_rejects_non_finite_initial_coefficients(self, state):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(n=2, channels=(), dt=0.1, duration=1.0, initial_state=state)

    def test_rejects_misshapen_override(self):
        with pytest.raises(ValueError):
            SimConfig(
                n=2,
                channels=(),
                dt=0.1,
                duration=1.0,
                code_override=(np.zeros((1, 3)),),
            )

    @pytest.mark.parametrize("integer", [np.int64, np.uint8])
    @pytest.mark.parametrize(
        "field, value",
        [("n", 2), ("seed", 5), ("trajectories", 3), ("initial_state", 1)],
    )
    def test_numpy_integers_are_stored_as_int(self, field, value, integer):
        base = dict(n=2, channels=relaxation_channels(2), dt=0.01, duration=0.2)
        cfg = SimConfig(**{**base, field: integer(value)})
        assert type(getattr(cfg, field)) is int
        assert cfg == SimConfig(**{**base, field: value})

    def test_numpy_initial_index_runs_as_int(self):
        cfg = SimConfig(n=2, channels=relaxation_channels(2, gamma=0.5), dt=0.01,
                        duration=0.2, trajectories=4, feedback_enabled=False)
        res = run_ensemble(replace(cfg, initial_state=np.int64(1)))
        ref = run_ensemble(replace(cfg, initial_state=1))
        assert np.array_equal(res.mean_density, ref.mean_density)
        assert np.array_equal(res.record.mean_fidelity, ref.record.mean_fidelity)


def _prepare_peak(cfg):
    """Tracemalloc peak of ``prepare(cfg)``, in bytes."""
    tracemalloc.start()
    try:
        prepare(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOperatorBudget:
    @pytest.mark.parametrize(
        "n, channels",
        [(n, relaxation_channels(n)) for n in range(4, 9)]
        # Rank-3 from n=6 on: at n=4 its twelve channels' small arrays weigh
        # as much as the dense ones, and the peak (13.1 matrices) passes the
        # estimate (12).
        + [(n, rank3_channels(n)) for n in (6, 8)],
    )
    def test_estimate_covers_prepare_peak(self, n, channels):
        # Twelve dense matrices bound the peak: 0.75 GiB at MAX_QUBITS = 11.
        cfg = SimConfig(n=n, channels=channels, dt=1e-3, duration=1e-3)
        assert _prepare_peak(cfg) <= 12 * 16 * 4**n

    @pytest.mark.parametrize("n", [6, 8])
    def test_prepare_peak_does_not_grow_with_channels(self, n):
        # Jumps and corrections are one-qubit data: three times the channels
        # (rank-3 against relaxation) add less than one dense matrix.
        few = SimConfig(n=n, channels=relaxation_channels(n), dt=1e-3, duration=1e-3)
        many = replace(few, channels=rank3_channels(n))
        assert len(many.channels) == 3 * len(few.channels)
        assert _prepare_peak(many) - _prepare_peak(few) < 16 * 4**n

    def test_prepare_builds_one_register_array(self):
        # The protected n=9 relaxation run: the frame no-jump operator is
        # the one float64 (dim, dim) array prepare() builds and keeps.
        cfg = SimConfig(n=9, channels=relaxation_channels(9, gamma=0.5), dt=1e-3,
                        duration=1.0)
        prepare(cfg)  # warm-up: imports and the code's cached arrays
        register = 8 * 4**cfg.n
        tracemalloc.start()
        try:
            setup = prepare(cfg)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert setup.kraus.no_jump.dtype == np.float64
        assert peak <= 4 * register, peak / register
        assert retained <= 1.1 * register, retained / register

    @pytest.mark.parametrize(
        "n, channels",
        [(4, rank3_channels(4)), (5, relaxation_channels(5, gamma=0.5))],
        ids=["generator-pair", "one-generator"],
    )
    def test_run_path_builds_no_dense_embedding(self, monkeypatch, n, channels):
        # No embedded operator, dense driving Hamiltonian or codespace row
        # on the run path: prepare(), run_ensemble() with density, and the
        # oracle, driven and undriven.
        def forbidden(*args, **kwargs):
            raise AssertionError("dense builder reached")

        monkeypatch.setattr(linalg, "tensor_embed", forbidden)
        monkeypatch.setattr(codes.StabilizerCode, "codespace", property(forbidden))
        cfg = SimConfig(n=n, channels=channels, dt=1e-3, duration=0.02, trajectories=3)
        assert prepare(cfg).corrections is not None
        assert run_ensemble(cfg).mean_density.shape == (21, 2**n, 2**n)
        for driving in (True, False):
            oracle = master_equation_oracle(replace(cfg, driving_enabled=driving))
            assert oracle[1].shape == (21, 2**n, 2**n)
            bare = replace(cfg, feedback_enabled=False, driving_enabled=driving)
            assert trajectory.oracle_distances(bare)[1].shape == (21,)

    def test_refused_before_synthesis_at_twelve_qubits(self, monkeypatch):
        monkeypatch.setattr(trajectory, "build_code", _reached_synthesis)
        with pytest.raises(ValueError, match=r"\[1, 11\]"):
            SimConfig(n=12, channels=relaxation_channels(12), dt=1e-3, duration=1e-3)
        # n=10 with 10 channels passes the register cap and reaches synthesis.
        cfg = SimConfig(n=10, channels=relaxation_channels(10), dt=1e-3, duration=1e-3)
        with pytest.raises(AssertionError, match="synthesis reached"):
            simulation_code(cfg)


def _reached_synthesis(*args):
    raise AssertionError("synthesis reached")


class TestRunLength:
    def test_long_run_refused_before_synthesis(self, monkeypatch):
        monkeypatch.setattr(trajectory, "build_code", _reached_synthesis)
        # 1e14 steps: their arrays would take about 28 PiB.
        cfg = SimConfig(n=2, channels=relaxation_channels(2), dt=1e-12, duration=100.0)
        started = time.monotonic()
        with pytest.raises(ValueError, match=r"100000000000000 time steps.*larger dt"):
            run_ensemble(cfg, collect_density=False)
        assert time.monotonic() - started < 1.0

    def test_five_million_steps_reach_synthesis(self, monkeypatch):
        # 5e6 steps count 1.5 GiB, within the budget.
        monkeypatch.setattr(trajectory, "build_code", _reached_synthesis)
        cfg = SimConfig(n=2, channels=relaxation_channels(2), dt=2e-7, duration=1.0)
        with pytest.raises(AssertionError, match="synthesis reached"):
            prepare(cfg)


class TestStep:
    def test_no_channels_leaves_state(self):
        ks = kraus_set([], Z_CODE, 0.1)
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
        ts = TrajectoryState(state=setup.psi0.copy())
        ts, event = step(ts, setup.kraus, setup.corrections, _FixedUniform(0.0))
        assert event is cfg.channels[0]
        overlap = abs(np.vdot(ts.state, setup.psi0)) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-9)
        assert ts.jump_log == [(pytest.approx(0.01), cfg.channels[0])]

    def test_uniform_brackets_jump_probability(self):
        # From |1> the lone lowering channel fires with probability dt.
        ch = _lowering(0)
        ks = kraus_set([ch], Z_CODE, 0.01)
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
        ks = kraus_set([ch], Z_CODE, 0.1)
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
        grid = trajectory.density_sample_indices(cfg.steps)
        block = _run_block(cfg, setup, range(cfg.trajectories), grid)
        totals = np.bincount(block.jump_channels, minlength=len(cfg.channels))
        for k, ch in enumerate(cfg.channels):
            jump = tensor_embed(effective_jump_operator(ch), ch.qubit, cfg.n)
            rate = np.linalg.norm(jump @ setup.initial) ** 2
            expected = rate * cfg.duration * cfg.trajectories
            assert expected > 100
            assert abs(totals[k] - expected) <= 5.0 * np.sqrt(expected)


class TestStateComparisons:
    def test_trace_distance_identical(self):
        rho = np.array([[0.5, 0.2], [0.2, 0.5]])
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-15)

    def test_stacked_trace_distances_equal_the_pairwise_ones(self):
        rng = np.random.default_rng(4)
        a, b = (
            rng.normal(size=(7, 4, 4)) + 1j * rng.normal(size=(7, 4, 4))
            for _ in range(2)
        )
        stacked = trace_distance(a, b)
        assert stacked.shape == (7,)
        assert np.array_equal(stacked, [trace_distance(x, y) for x, y in zip(a, b)])

    def test_trace_distance_orthogonal_pure(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(a, b) == pytest.approx(1.0)


#: Rank-3 pair, n=4, 1001 samples of 16 x 16: one density series is 4 MB.
ONE_SERIES_CFG = SimConfig(
    n=4, channels=rank3_channels(4), dt=1e-3, duration=1.0,
    trajectories=20, feedback_enabled=False, driving_enabled=False,
)


def _traced_peak(run, cfg):
    """``run(cfg)`` and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        result = run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestRunEnsemble:
    @pytest.mark.parametrize(
        "column, values, match",
        [("times", np.zeros(2), "same length"),
         ("mean_fidelity", [1.0, 1.5, 1.0], r"in \[0, 1\]"),
         ("mean_fidelity", [1.0, -0.5, 1.0], r"in \[0, 1\]"),
         ("std_fidelity", [0.0, -1e-3, 0.0], "nonnegative")],
    )
    def test_record_refuses_inconsistent_columns(self, column, values, match):
        columns = {
            "times": np.arange(3) * 0.1, "mean_fidelity": np.ones(3),
            "std_fidelity": np.zeros(3), "jump_counts": np.zeros(3, dtype=int),
        }
        columns[column] = np.array(values)
        with pytest.raises(ValueError, match=match):
            jq.FidelityRecord(**columns)

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

    @pytest.mark.parametrize("protected", [True, False])
    def test_std_matches_two_pass_spread(self, monkeypatch, protected):
        # Blocks of three pool their spreads; protected infidelities sit at
        # the rounding floor, where E[F^2] - E[F]^2 read 2e-8.
        monkeypatch.setattr(_kernels, "BLOCK_BYTES", 12_000)
        cfg = SimConfig(
            n=2, channels=relaxation_channels(2, gamma=0.5), dt=1e-3,
            duration=0.5, seed=3, trajectories=10,
            feedback_enabled=protected, driving_enabled=protected,
        )
        setup = prepare(cfg)
        assert _kernels.block_width(setup.kraus, cfg.steps) == 3
        fids = np.array([
            run_trajectory(cfg, i, setup)[0].mean_fidelity for i in range(10)
        ])
        record = run_ensemble(cfg, collect_density=False).record
        assert_allclose(record.std_fidelity, fids.std(axis=0), rtol=0, atol=1e-12)
        assert_allclose(record.mean_fidelity, fids.mean(axis=0), rtol=0, atol=1e-12)
        assert (fids.std(axis=0).max() > 1e-3) is not protected

    @pytest.mark.parametrize(
        "n, channels, duration, trajectories, width, chunk",
        [
            (2, relaxation_channels(2, gamma=0.5), 3.0, 200, 349, 16),  # README
            (8, relaxation_channels(8, gamma=0.5), 1.0, 4, 170, 16),
            (4, rank3_channels(4), 1.0, 100, 1048, 16),
            (11, relaxation_channels(1, gamma=0.5), 1.0, 170, 170, 1),
        ],
        ids=["readme", "n8", "rank3", "n11-one-channel"],
    )
    def test_width_rule_shortens_the_chunk_not_the_block(
        self, n, channels, duration, trajectories, width, chunk
    ):
        # The engine's chunk of states counts against the block budget at
        # one step: a block too wide for CHUNK steps keeps its columns.
        cfg = SimConfig(
            n=n, channels=channels, dt=1e-3, duration=duration,
            trajectories=trajectories,
        )
        setup = prepare(cfg)
        block = min(_kernels.block_width(setup.kraus, cfg.steps), trajectories)
        assert _kernels.block_width(setup.kraus, cfg.steps) == width
        assert _kernels.chunk_length(2**n, block) == chunk

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
        for run in (run_ensemble, master_equation_oracle, trajectory.oracle_distances):
            with pytest.raises(ValueError, match=r"15\.6 GiB.*collect_density=False"):
                run(cfg)

    def test_density_collection_optional(self):
        cfg = SimConfig(
            n=2, channels=relaxation_channels(2), dt=0.01, duration=0.5
        )
        res = run_ensemble(cfg, collect_density=False)
        assert res.density_times is None and res.mean_density is None

    def test_mean_density_peak_is_about_one_series(self):
        # The budget counts one density series; dividing the sum into a
        # second array for the mean would double the peak.
        res, peak = _traced_peak(run_ensemble, ONE_SERIES_CFG)
        assert peak <= 1.5 * res.mean_density.nbytes

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
        expected = ch.backaction.rate * cfg.dt * cfg.steps
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

    def test_feedback_is_ignored(self):
        # Undriven, the oracle needs no control plan: feedback on and off
        # give the same series, even on a code that protects nothing.
        cfg = SimConfig(
            n=2, channels=relaxation_channels(2, gamma=0.3), dt=1e-2,
            duration=0.5, driving_enabled=False,
            code_override=(np.tile([0.0, 0.0, 1.0], (2, 1)),),
        )
        with pytest.raises(jq.CorrectabilityError):
            prepare(cfg)
        _, on = master_equation_oracle(cfg)
        _, off = master_equation_oracle(replace(cfg, feedback_enabled=False))
        assert np.array_equal(on, off)

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


class TestDrivenOracle:
    @pytest.mark.parametrize(
        "n, channels",
        [
            (2, relaxation_channels(2, gamma=0.4)),
            (3, relaxation_channels(3)),
            (2, random_channel_set(np.random.default_rng(12), 2)),
        ],
    )
    def test_matches_the_dense_propagator(self, n, channels):
        cfg = SimConfig(n=n, channels=channels, dt=1e-2, duration=1.0,
                        feedback_enabled=False, driving_enabled=True)
        hamiltonian = dense_driving_hamiltonian(channels, simulation_code(cfg))
        assert max_abs(hamiltonian) > 0.1
        generator = lindblad_generator(channels, hamiltonian, n)
        dim = 2**n
        units = np.eye(dim * dim, dtype=complex).reshape(-1, dim, dim)
        dense = np.stack([generator(u).reshape(-1) for u in units], axis=1)
        times, rhos = master_equation_oracle(cfg)
        rho0 = rhos[0].reshape(-1)
        exact = [rho0 + expm1(dense * t) @ rho0 for t in times]
        assert np.max(np.abs(rhos.reshape(len(times), -1) - exact)) <= 1e-10


def _fine_rk4(cfg, sample_indices):
    """Undriven reference: RK4 of ``lindblad_generator`` at a quarter of dt."""
    rhs = lindblad_generator(cfg.channels, None, cfg.n)
    psi = simulation_code(cfg).codespace[0]
    rho = np.outer(psi, psi.conj())
    h = cfg.dt / 4
    out = [rho]
    for s in range(sample_indices[-1] * 4):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (s + 1) % 4 == 0 and (s + 1) // 4 in sample_indices:
            out.append(rho)
    return np.array(out)


def _undriven(channels, n, dt=1e-3, duration=0.3, **kw):
    return SimConfig(n=n, channels=channels, dt=dt, duration=duration,
                     feedback_enabled=False, driving_enabled=False, **kw)


class TestExactOracle:
    @pytest.mark.parametrize(
        "n, channels",
        [
            (n, random_channel_set(np.random.default_rng(seed), n))
            for n, seed in [(1, 3), (1, 4), (2, 5), (2, 6), (3, 7), (3, 8)]
        ]
        + [(4, rank3_channels(4))]
        # Qubit 1 carries no channel: the propagation only moves past it.
        + [(3, [ch for ch in random_channel_set(np.random.default_rng(5), 3)
                if ch.qubit != 1])],
    )
    def test_matches_fine_rk4(self, n, channels):
        cfg = _undriven(channels, n)
        times, rhos = master_equation_oracle(cfg)
        indices = trajectory.density_sample_indices(cfg.steps)
        assert np.array_equal(times, indices * cfg.dt)
        assert np.max(np.abs(rhos - _fine_rk4(cfg, indices))) <= 1e-10

    def test_strided_samples_match_stride_one(self):
        channels = random_channel_set(np.random.default_rng(9), 2)
        # 2002 steps sample every third step, then one step to the end.
        strided = _undriven(channels, 2, duration=2.002)
        times, rhos = master_equation_oracle(strided)
        gaps = np.diff(trajectory.density_sample_indices(strided.steps))
        assert set(gaps[:-1]) == {3} and gaps[-1] == 1
        # Up to t = 1 a run of the same grid keeps every step.
        ref_times, ref = master_equation_oracle(_undriven(channels, 2, duration=1.0))
        common = times <= 1.0
        assert np.array_equal(times[common], ref_times[: 3 * common.sum() : 3])
        assert np.max(np.abs(rhos[common] - ref[: 3 * common.sum() : 3])) <= 1e-12
        # The final sample from a stride-one grid of 1000 steps of 2.002e-3.
        _, coarse = master_equation_oracle(
            _undriven(channels, 2, dt=2.002e-3, duration=2.002)
        )
        assert np.max(np.abs(rhos[-1] - coarse[-1])) <= 1e-12

    @pytest.mark.parametrize(
        "steps, last_chunk", [(1025, 1), (1027, 2)], ids=["alone", "shared"]
    )
    def test_short_final_gap_at_a_chunk_boundary(self, steps, last_chunk):
        # Samples go 16 to a chunk after sample 0; the final, shorter gap
        # closes a chunk of ``last_chunk`` samples.
        channels = random_channel_set(np.random.default_rng(9), 2)
        strided = _undriven(channels, 2, duration=steps * 1e-3)
        gaps = np.diff(trajectory.density_sample_indices(strided.steps))
        assert set(gaps[:-1]) == {2} and gaps[-1] == 1
        assert (gaps.shape[0] - 1) % 16 + 1 == last_chunk
        times, rhos = master_equation_oracle(strided)
        _, ref = master_equation_oracle(_undriven(channels, 2, duration=1.0))
        common = times <= 1.0
        assert np.max(np.abs(rhos[common] - ref[: 2 * common.sum() : 2])) <= 1e-12
        # The final sample from a stride-one grid of 1000 steps.
        _, coarse = master_equation_oracle(
            _undriven(channels, 2, dt=steps * 1e-6, duration=steps * 1e-3)
        )
        assert coarse.shape[0] == 1001
        assert np.max(np.abs(rhos[-1] - coarse[-1])) <= 1e-12

    def test_trace_drift_does_not_blame_dt(self, monkeypatch):
        exact = trajectory.expm1
        # Each qubit's map loses 1e-3 of the trace: the abort must fire, and
        # must not suggest a smaller dt, which the exact path does not use.
        monkeypatch.setattr(
            trajectory, "expm1", lambda a: exact(a) - 1e-3 * np.eye(4)
        )
        # The first sample past 1e-6 is named, with its own drift: later
        # samples of the same chunk drift further.
        with pytest.raises(
            StepSizeError, match=r"trace drifted by 1\.999e-03 at t=0\.001;"
        ) as err:
            master_equation_oracle(_undriven(relaxation_channels(2), 2))
        assert "smaller dt" not in str(err.value)

    def test_distance_shrinks_as_inverse_sqrt_trajectories(self):
        # D(T) is the trace distance of the ensemble mean to the oracle,
        # averaged over the sampled grid and summed over seeds 0-7.  Over
        # 16 such blocks (seeds 8j..8j+7, j = 0-15) D(100) / D(400) read
        # 1.73-2.45, mean 2.06, standard deviation 0.17; the band is the
        # mean +- 4 standard deviations, which excludes both no shrinking
        # (ratio 1) and a 1/T law (ratio 4).
        channels = rank3_channels(2)
        _, oracle = master_equation_oracle(_undriven(channels, 2, duration=0.5))

        def distance(trajectories):
            total = 0.0
            for seed in range(8):
                cfg = _undriven(channels, 2, duration=0.5, seed=seed,
                                trajectories=trajectories)
                mean = run_ensemble(cfg).mean_density
                total += np.mean([trace_distance(a, b) for a, b in zip(mean, oracle)])
            return total

        assert 1.37 <= distance(100) / distance(400) <= 2.75


class TestOracleDistances:
    @pytest.mark.parametrize(
        "cfg",
        [
            _undriven(rank3_channels(4), 4, duration=0.2, seed=3, trajectories=30),
            _undriven(relaxation_channels(2, gamma=0.3), 2, duration=0.5, seed=4,
                      trajectories=40),
            replace(_undriven(relaxation_channels(2, gamma=0.3), 2, duration=0.5,
                              seed=5, trajectories=40), driving_enabled=True),
        ],
        ids=["generator-pair", "one-generator", "one-generator-driven"],
    )
    def test_equals_the_distance_of_the_two_series(self, monkeypatch, cfg):
        rk4_calls = []
        rk4 = trajectory._rk4_series
        monkeypatch.setattr(
            trajectory, "_rk4_series", lambda *a: rk4_calls.append(1) or rk4(*a)
        )
        times, distances = trajectory.oracle_distances(cfg)
        assert bool(rk4_calls) == cfg.driving_enabled  # driven takes RK4
        oracle_times, oracle = master_equation_oracle(cfg)
        mean = run_ensemble(cfg).mean_density
        assert np.array_equal(times, oracle_times)
        assert distances.max() > 1e-3  # a finite ensemble misses the mean
        assert np.max(np.abs(distances - trace_distance(mean, oracle))) <= 1e-14

    def test_blocks_add_into_the_one_series(self, monkeypatch):
        cfg = _undriven(rank3_channels(2), 2, duration=0.2, seed=6, trajectories=23)
        _, one_block = trajectory.oracle_distances(cfg)
        monkeypatch.setattr(_kernels, "block_width", lambda kraus, steps: 5)
        _, five_blocks = trajectory.oracle_distances(cfg)
        assert np.max(np.abs(five_blocks - one_block)) <= 1e-14

    def test_peak_is_about_one_series(self):
        # Holding the oracle's series next to the ensemble's would double it.
        samples = trajectory.density_sample_indices(ONE_SERIES_CFG.steps).shape[0]
        series = samples * 16 * 16 * np.dtype(np.complex128).itemsize
        _, peak = _traced_peak(trajectory.oracle_distances, ONE_SERIES_CFG)
        assert peak <= 1.5 * series

    def test_feedback_on_is_refused(self):
        cfg = replace(_undriven(relaxation_channels(2), 2), feedback_enabled=True)
        with pytest.raises(ValueError, match="needs feedback off"):
            trajectory.oracle_distances(cfg)


#: Seed-7 jump logs of the README, ``n8-simulate`` and ``rank3-oracle``
#: configs, each with its config document, recorded with :func:`jump_log`.
JUMP_LOGS = Path(__file__).with_name("jump_logs.json")


def jump_log(cfg):
    """``(step, trajectory, channel)`` of every jump, gathered block by block
    over the blocks a run uses."""
    setup = prepare(cfg)
    samples = trajectory.density_sample_indices(cfg.steps)
    width = _kernels.block_width(setup.kraus, cfg.steps)
    log = []
    for start in range(0, cfg.trajectories, width):
        indices = range(start, min(start + width, cfg.trajectories))
        block = _run_block(cfg, setup, indices, samples)
        log += zip(
            block.jump_steps.tolist(),
            (start + block.jump_columns).tolist(),
            block.jump_channels.tolist(),
        )
    return log


class TestJumpLogs:
    # A change that moves a log regenerates the file with jump_log.
    @pytest.mark.parametrize("name", ["readme-simulate", "n8-simulate", "rank3-oracle"])
    def test_seed_7_logs_are_unchanged(self, name):
        entry = json.loads(JUMP_LOGS.read_text())[name]
        cfg = parse_config(json.dumps(entry["config"]))
        assert cfg.seed == 7
        assert jump_log(cfg) == [tuple(jump) for jump in entry["log"]]
