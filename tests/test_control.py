from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from jumpqec import (
    CorrectabilityError,
    ErrorChannel,
    StabilizerCode,
    build_code,
    build_control_plan,
    effective_jump_operator,
    kraus_set,
    nojump_invariance_check,
)
from jumpqec.codes import PAIR_SECTORS
from jumpqec.control import NULL_CHANNEL_ATOL, _driving_terms
from jumpqec.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_matrix,
    max_abs,
    tensor_embed,
)

from helpers import (
    SIGMA_MINUS,
    dense_correction,
    dense_driving_hamiltonian,
    dense_kraus_set,
    family_channel_set,
    random_suite,
    rank3_channels,
    relaxation_channels,
)

ERASURE_PAIR = (
    np.tile([1.0, 0.0, 0.0], (4, 1)),
    np.tile([0.0, 0.0, 1.0], (4, 1)),
)


class TestSectorAssignment:
    def test_axis_mapping(self):
        # PAIR_SECTORS[axis] names the generator of (X^n, Z^n) whose factor
        # anticommutes with sigma_axis on every qubit.
        generators = build_code(rank3_channels(4), 4).generators
        assert set(PAIR_SECTORS) == {"x", "y", "z"}
        for axis, pauli in zip("xyz", (SIGMA_X, SIGMA_Y, SIGMA_Z)):
            for row in generators[PAIR_SECTORS[axis]]:
                factor = bloch_matrix(row)
                assert max_abs(pauli @ factor + factor @ pauli) == 0.0


def _dense_frame_driving(channels, code):
    """The plan's frame terms sum to ``i H`` in the frame; ``H`` rotated back."""
    return code.operator_from_frame(-1j * code.dense(_driving_terms(channels, code)))


class TestDrivingHamiltonian:
    def test_two_qubit_lowering_channels(self):
        channels = relaxation_channels(2)
        ham = _dense_frame_driving(channels, build_code(channels, 2))
        expected = 0.25 * (np.kron(SIGMA_Y, SIGMA_X) + np.kron(SIGMA_X, SIGMA_Y))
        assert_allclose(ham, expected, atol=1e-12)

    def test_real_offset_adds_local_y_term(self):
        # Independent oracle: with backaction axis d orthogonal to the
        # generator axis s, the backaction part of H is -(d x s).sigma / 2,
        # and a real offset contributes -(gamma/2) sigma_y on its qubit.
        gamma = 0.3
        ch = ErrorChannel(
            qubit=0, operator=SIGMA_MINUS, gamma=gamma, phi=0.0, label=0
        )
        code = build_code([ch], 1)
        ham = _dense_frame_driving([ch], code)
        d = ch.backaction.bloch
        s = code.generators[0][0]
        expected = bloch_matrix(-0.5 * np.cross(d, s)) - (gamma / 2) * SIGMA_Y
        assert_allclose(ham, expected, atol=1e-12)

    def test_x_backaction_on_generator_pair(self):
        # E = sqrt(2)|0><+| has backaction exactly sigma_x (rate 1), so its
        # contribution is (i/2) X_0 (Z Z Z Z) = Y/2 on qubit 0 times Z elsewhere.
        operator = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        ch = ErrorChannel(qubit=0, operator=operator, gamma=0.0, phi=0.0, label=0)
        assert_allclose(ch.backaction.bloch, [1.0, 0, 0], atol=1e-14)
        code = StabilizerCode(4, ERASURE_PAIR)
        ham = _dense_frame_driving([ch], code)
        expected = 0.5 * np.kron(
            SIGMA_Y, np.kron(SIGMA_Z, np.kron(SIGMA_Z, SIGMA_Z))
        )
        assert_allclose(ham, expected, atol=1e-12)

    def test_rejects_uncorrectable_pairing(self):
        channels = relaxation_channels(2)
        wrong = StabilizerCode(2, [np.tile([0.0, 0, 1.0], (2, 1))])
        with pytest.raises(CorrectabilityError):
            build_control_plan(channels, wrong)

    def test_hermitian_for_random_sets(self):
        for n, channels in random_suite(seed=29, count=30):
            code = build_code(channels, n)
            ham = _dense_frame_driving(channels, code)
            assert max_abs(ham - ham.conj().T) <= 1e-12

    @settings(max_examples=24, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        pair=st.booleans(),
        tilt=st.sampled_from([0.0, 1e-11, 1e-3, 0.5]),
    )
    def test_hermitian_by_construction(self, seed, pair, tilt):
        # A tilted single-generator code need not anticommute with the
        # backaction; the commutator form keeps every term Hermitian anyway.
        rng = np.random.default_rng(seed)
        n, channels = family_channel_set(rng, pair)
        code = build_code(channels, n)
        if tilt and not pair:
            axes = code.generators[0] + tilt * rng.normal(size=(n, 3))
            code = StabilizerCode(n, [axes / np.linalg.norm(axes, axis=1)[:, None]])
        ham = _dense_frame_driving(channels, code)
        assert max_abs(ham - ham.conj().T) <= 1e-15 * max(1.0, max_abs(ham))

    def test_local_products_match_the_dense_sum(self):
        branches = set()
        for n, channels in random_suite(seed=31, count=24):
            code = build_code(channels, n)
            branches.add(len(code.generators))
            ham = _dense_frame_driving(channels, code)
            assert max_abs(ham - dense_driving_hamiltonian(channels, code)) <= 1e-14
        assert branches == {1, 2}


class TestCorrectionUnitary:
    def test_identity_channel(self):
        ch = ErrorChannel(
            qubit=0, operator=np.eye(2, dtype=complex), gamma=0.0, phi=0.0, label=0
        )
        code = build_code(relaxation_channels(2), 2)
        (corr,) = build_control_plan([ch], code).corrections
        assert ch.backaction.rate > NULL_CHANNEL_ATOL
        assert_allclose(dense_correction(corr), np.eye(4), atol=1e-12)

    def test_unitary_error_channel(self):
        kappa = 0.7
        ch = ErrorChannel(
            qubit=1,
            operator=np.sqrt(kappa) * SIGMA_X,
            gamma=0.0,
            phi=0.0,
            label="flip",
        )
        code = build_code(relaxation_channels(2), 2)
        matrix = dense_correction(build_control_plan([ch], code).corrections[0])
        jump = tensor_embed(np.sqrt(kappa) * SIGMA_X, 1, 2)
        for v in code.codespace:
            out = matrix @ jump @ v
            assert np.max(np.abs(out - np.sqrt(kappa) * v)) <= 1e-12
        # No backaction (d = 0): R is the inverse polar factor, here X itself.
        assert_allclose(matrix, tensor_embed(SIGMA_X, 1, 2), atol=1e-15)

    def test_lowering_channel_restores_codespace(self):
        channels = relaxation_channels(2)
        code = build_code(channels, 2)
        ch = channels[0]
        (corr,) = build_control_plan([ch], code).corrections
        rate = ch.backaction.rate
        jump = tensor_embed(SIGMA_MINUS, 0, 2)
        for v in code.codespace:
            out = dense_correction(corr) @ jump @ v
            assert np.max(np.abs(out - np.sqrt(rate) * v)) <= 1e-9

    def test_null_channel_flagged(self):
        ch = ErrorChannel(
            qubit=0, operator=np.zeros((2, 2)), gamma=0.0, phi=0.0, label="null"
        )
        code = build_code(relaxation_channels(2), 2)
        (corr,) = build_control_plan([ch], code).corrections
        assert ch.backaction.rate <= NULL_CHANNEL_ATOL
        # The identity is the identity in every frame.
        assert_allclose(corr.apply(np.eye(4, dtype=complex)), np.eye(4))

    def test_rejects_uncorrectable_channel(self):
        wrong = StabilizerCode(2, [np.tile([0.0, 0, 1.0], (2, 1))])
        with pytest.raises(CorrectabilityError, match="channel 'relax0' is not "):
            build_control_plan([relaxation_channels(2)[0]], wrong)


def test_correctability_error_names_the_worst_channel():
    # Relaxation on a z-axis code; qubit 1 decays four times faster.
    channels = (relaxation_channels(2)[0], relaxation_channels(2, kappa=4.0)[1])
    wrong = StabilizerCode(2, [np.tile([0.0, 0, 1.0], (2, 1))])
    with pytest.raises(CorrectabilityError) as raised:
        build_control_plan(channels, wrong)
    report = raised.value.report
    assert report.labels[int(np.argmax(report.residuals))] == "relax1"
    assert str(raised.value) == (
        "channel 'relax1' is not correctable on this code "
        f"(residual {report.max_residual:.3e})"
    )


def _closed_form_cases():
    """Random sets on both code branches, plus a hand-picked single generator."""
    cases = [
        (n, channels, build_code(channels, n))
        for n, channels in random_suite(seed=71, count=24)
    ]
    angles = np.random.default_rng(73).uniform(0.0, 2.0 * np.pi, 4)
    axes = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(4)])
    cases.append((4, relaxation_channels(4), StabilizerCode(4, [axes])))
    return cases


def _polar_unitary(ch, n):
    """Embedded ``U`` of the 2x2 polar decomposition ``E + mu = U |E + mu|``."""
    w, _, vh = np.linalg.svd(effective_jump_operator(ch))
    return tensor_embed(w @ vh, ch.qubit, n)


class TestClosedFormCorrection:
    def test_unitary_and_exact_on_the_codespace(self):
        for n, channels, code in _closed_form_cases():
            plan = build_control_plan(channels, code)
            basis = code.codespace.T
            for ch, corr in zip(channels, plan.corrections):
                if ch.backaction.rate <= NULL_CHANNEL_ATOL:
                    continue
                matrix = dense_correction(corr)
                assert max_abs(matrix.conj().T @ matrix - np.eye(2**n)) <= 1e-12
                jump = tensor_embed(effective_jump_operator(ch), ch.qubit, n)
                rate = ch.backaction.rate
                restored = matrix @ jump @ basis
                assert max_abs(restored - np.sqrt(rate) * basis) <= 1e-12

    def test_identity_off_the_rotation_plane(self):
        # R U is the identity on the complement of span(P, D P).
        for n, channels, code in _closed_form_cases():
            plan = build_control_plan(channels, code)
            projector = code.codespace.T @ code.codespace.conj()
            identity = np.eye(2**n)
            for ch, corr in zip(channels, plan.corrections):
                ba = ch.backaction
                if ba.rate <= NULL_CHANNEL_ATOL:
                    continue
                axis = tensor_embed(ba.matrix / np.linalg.norm(ba.bloch), ch.qubit, n)
                complement = identity - projector - axis @ projector @ axis
                undone = dense_correction(corr) @ _polar_unitary(ch, n)
                assert max_abs((undone - identity) @ complement) <= 1e-12

    def test_repeat_call_is_bytewise_identical(self):
        channels = rank3_channels(4)
        code = build_code(channels, 4)
        plan = build_control_plan(channels, code)
        identity = np.eye(16, dtype=complex)

        def dense(corr):
            return dense_correction(corr).tobytes()

        for k, ch in enumerate(channels[:3]):
            first = dense(build_control_plan([ch], code).corrections[0])
            assert dense(build_control_plan([ch], code).corrections[0]) == first
            assert dense(plan.corrections[k]) == first


class TestCorrectionApply:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), pair=st.booleans())
    def test_matches_the_dense_correction(self, seed, pair):
        rng = np.random.default_rng(seed)
        n, channels = family_channel_set(rng, pair)
        code = build_code(channels, n)
        assert len(code.generators) == (2 if pair else 1)
        plan = build_control_plan(channels, code)
        # The corrections' data and apply() are in the code's eigenframe,
        # where the codespace basis is a scatter of the unit coefficients.
        basis = code.encode(np.eye(2**code.logical_count))
        projector = basis @ basis.conj().T
        identity = np.eye(2**n)
        v = rng.normal(size=(2**n, 3)) + 1j * rng.normal(size=(2**n, 3))
        for ch, corr in zip(channels, plan.corrections):
            d = tensor_embed(corr.axis, ch.qubit, n)
            bracket = (
                identity
                + (np.cos(corr.theta) - 1.0) * (projector + d @ projector @ d)
                - np.sin(corr.theta) * (d @ projector - projector @ d)
            )
            dense = bracket @ tensor_embed(corr.u_dag, ch.qubit, n)
            assert max_abs(corr.apply(v) - dense @ v) <= 1e-12
            assert max_abs(corr.apply(v[:, 1]) - dense @ v[:, 1]) <= 1e-12
            assert max_abs(corr.apply(np.eye(2**n, dtype=complex)) - dense) <= 1e-12

    def test_holds_no_dense_matrix(self):
        channels = relaxation_channels(4)
        code = build_code(channels, 4)
        for corr in build_control_plan(channels, code).corrections:
            assert corr.u_dag.shape == corr.axis.shape == (2, 2)
            assert corr.code is code and not hasattr(corr, "codespace")


class TestControlPlan:
    def test_single_generator_plan_has_no_sector_map(self):
        # Each channel's whole backaction pairs with the one generator.
        channels = relaxation_channels(3)
        plan = build_control_plan(channels, build_code(channels, 3))
        assert [g for _, _, g in plan.driving_terms] == [0, None] * 3
        assert not hasattr(plan, "sector_map")
        assert [c.qubit for c in plan.corrections] == [ch.qubit for ch in channels]

    def test_generator_pair_plan_sector_map(self):
        # Each rank-3 channel's backaction lies along one axis, and its
        # driving term sits on that axis's generator, then its offset term.
        channels = rank3_channels(4)
        plan = build_control_plan(channels, build_code(channels, 4))
        expected = [
            index
            for ch in channels
            for index in (PAIR_SECTORS[ch.label[0]], None)
        ]
        assert [g for _, _, g in plan.driving_terms] == expected
        assert set(expected) == {0, 1, None}

    def test_corrections_are_unitary(self):
        for n, channels in random_suite(seed=41, count=10):
            plan = build_control_plan(channels, build_code(channels, n))
            dim = 2**n
            for corr in plan.corrections:
                matrix = dense_correction(corr)
                gram = matrix.conj().T @ matrix
                assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10


class TestNoJumpInvariance:
    def test_two_qubit_lowering_scalar(self):
        channels = relaxation_channels(2)
        code = build_code(channels, 2)
        driving = build_control_plan(channels, code).driving_terms
        ks = kraus_set(channels, code, 0.01, driving)
        result = nojump_invariance_check(ks)
        assert result.a == pytest.approx(0.995, abs=1e-12)
        assert result.residual <= 1e-12

    def test_zero_channels(self):
        code = build_code(relaxation_channels(2), 2)
        ks = kraus_set([], code, 0.01)
        result = nojump_invariance_check(ks)
        assert result.a == pytest.approx(1.0)
        assert result.residual == pytest.approx(0.0, abs=1e-15)

    def test_generator_pair_branch(self):
        channels = rank3_channels(4)
        code = build_code(channels, 4)
        driving = build_control_plan(channels, code).driving_terms
        ks = kraus_set(channels, code, 1e-3, driving)
        result = nojump_invariance_check(ks)
        assert result.a == pytest.approx(1.0 - 4.0 * 1e-3 / 2.0, abs=1e-12)
        assert result.residual <= 1e-12

    def test_missing_driving_breaks_invariance(self):
        channels = relaxation_channels(2)
        code = build_code(channels, 2)
        ks = kraus_set(channels, code, 0.01)
        assert nojump_invariance_check(ks).residual > 1e-6

    def test_scalar_matches_total_rate_for_random_sets(self):
        dt = 1e-3
        for n, channels in random_suite(seed=53, count=15):
            code = build_code(channels, n)
            driving = build_control_plan(channels, code).driving_terms
            ks = kraus_set(channels, code, dt, driving)
            result = nojump_invariance_check(ks)
            total = sum(ch.backaction.rate for ch in channels)
            assert result.a == pytest.approx(1.0 - total * dt / 2.0, abs=1e-12)
            assert result.residual <= 1e-12


class TestJumpExactness:
    def test_corrected_jumps_fix_every_codespace_vector(self):
        from jumpqec import effective_jump_operator

        suite = random_suite(seed=61, count=10) + [(8, relaxation_channels(8))]
        for n, channels in suite:
            code = build_code(channels, n)
            plan = build_control_plan(channels, code)
            for ch, corr in zip(channels, plan.corrections):
                if ch.backaction.rate <= NULL_CHANNEL_ATOL:
                    continue
                jump = tensor_embed(effective_jump_operator(ch), ch.qubit, n)
                matrix = dense_correction(corr)  # build it once
                for v in code.codespace:
                    image = jump @ v
                    norm = np.linalg.norm(image)
                    overlap = abs(np.vdot(v, matrix @ image) / norm) ** 2
                    assert overlap == pytest.approx(1.0, abs=1e-9)


class TestFrameMatchesDenseReference:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        pair=st.booleans(),
        driven=st.booleans(),
        offset_scale=st.sampled_from([0.0, 1.0, 3.0]),
    )
    def test_frame_data_rotate_back_to_the_dense_operators(
        self, seed, pair, driven, offset_scale
    ):
        # The run's Kraus set and corrections live in the code's eigenframe;
        # rotated back they are the computational-basis operators built
        # densely from the channels and the codespace rows.
        rng = np.random.default_rng(seed)
        n, channels = family_channel_set(rng, pair)
        channels = tuple(
            replace(ch, gamma=offset_scale * rng.uniform()) for ch in channels
        )
        code = build_code(channels, n)
        plan = build_control_plan(channels, code)
        dt = 1e-3
        ks = kraus_set(channels, code, dt, plan.driving_terms if driven else ())
        hamiltonian = dense_driving_hamiltonian(channels, code) if driven else None
        ref = dense_kraus_set(channels, hamiltonian, n, dt)
        assert max_abs(code.operator_from_frame(ks.no_jump) - ref.no_jump) <= 1e-13
        for ch, factor, dense_factor in zip(channels, ks.factors, ref.factors):
            rotated = code.operator_from_frame(tensor_embed(factor, ch.qubit, n))
            assert max_abs(rotated - tensor_embed(dense_factor, ch.qubit, n)) <= 1e-13

        projector = code.codespace.T @ code.codespace.conj()
        identity = np.eye(2**n)
        for ch, corr in zip(channels, plan.corrections):
            ba = ch.backaction
            w, _, vh = np.linalg.svd(effective_jump_operator(ch))
            u_dag = tensor_embed((w @ vh).conj().T, ch.qubit, n)
            if ba.rate <= NULL_CHANNEL_ATOL:  # the identity, in every frame
                assert np.array_equal(corr.apply(identity), identity)
                continue
            norm = np.linalg.norm(ba.bloch)
            d = tensor_embed(ba.matrix / (norm or 1.0), ch.qubit, n)
            expected = (
                identity
                + (np.cos(corr.theta) - 1.0) * (projector + d @ projector @ d)
                - np.sin(corr.theta) * (d @ projector - projector @ d)
            ) @ u_dag
            assert max_abs(dense_correction(corr) - expected) <= 1e-13
