import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from jumpqec import (
    ErrorChannel,
    StabilizerCode,
    build_code,
    build_control_plan,
    effective_jump_operator,
    kraus_set,
)
from jumpqec.linalg import SIGMA_X, SIGMA_Z, bloch_matrix, max_abs, tensor_embed

from helpers import (
    SIGMA_MINUS,
    cptp_defect,
    dense_driving_hamiltonian,
    dense_jumps,
    dense_kraus_set,
    family_channel_set,
    lindblad_generator,
    random_channel_set,
)


def z_code(n):
    """Single generator ``Z^n``: its eigenframe is the computational basis."""
    return StabilizerCode(n, [np.tile([0.0, 0.0, 1.0], (n, 1))])


def lowering(gamma=0.0, phi=0.0, kappa=1.0, qubit=0):
    return ErrorChannel(
        qubit=qubit,
        operator=np.sqrt(kappa) * SIGMA_MINUS,
        gamma=gamma,
        phi=phi,
        label="relax",
    )


class TestEffectiveJumpOperator:
    def test_plain_lowering(self):
        assert_allclose(effective_jump_operator(lowering()), SIGMA_MINUS)

    def test_real_offset_adds_to_diagonal(self):
        assert_allclose(
            effective_jump_operator(lowering(gamma=0.5)),
            [[0.5, 1.0], [0.0, 0.5]],
        )

    def test_pure_offset_is_identity(self):
        ch = ErrorChannel(
            qubit=0, operator=np.zeros((2, 2)), gamma=1.0, phi=0.0, label=0
        )
        assert_allclose(effective_jump_operator(ch), np.eye(2))


class TestJumpBackaction:
    def test_lowering_without_offset(self):
        ba = lowering().backaction
        assert_allclose(ba.bloch, [0.0, 0.0, -0.5], atol=1e-15)
        assert ba.rate == pytest.approx(0.5)

    def test_lowering_with_real_offset(self):
        ba = lowering(gamma=0.5).backaction
        assert_allclose(ba.bloch, [0.5, 0.0, -0.5], atol=1e-15)
        assert ba.rate == pytest.approx(0.75)

    def test_unitary_channel_has_no_backaction(self):
        kappa = 1.7
        ch = ErrorChannel(
            qubit=0,
            operator=np.sqrt(kappa) * SIGMA_X,
            gamma=0.0,
            phi=0.0,
            label=0,
        )
        ba = ch.backaction
        assert_allclose(ba.bloch, [0.0, 0.0, 0.0], atol=1e-15)
        assert ba.rate == pytest.approx(kappa)

    def test_random_channels_decompose_consistently(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            (ch,) = random_channel_set(rng, 1)[:1]
            ba = ch.backaction
            assert abs(np.trace(ba.matrix)) <= 1e-12
            assert np.max(np.abs(ba.matrix - bloch_matrix(ba.bloch))) <= 1e-12
            eff = effective_jump_operator(ch)
            gram = eff.conj().T @ eff
            assert ba.rate == np.trace(gram).real / 2
            assert (
                np.max(np.abs(gram - ba.matrix - ba.rate * np.eye(2))) <= 1e-12
            )

    def test_large_rate_channel_is_accepted(self):
        # Rate 7367: the Gram's rounding is near 1e-12 in absolute terms,
        # which an absolute Hermiticity or trace check would refuse.
        operator = np.array(
            [[11.9 + 0.8j, -61.3 - 12.5j], [13.5 + 20.6j, -50.2 - 86.9j]]
        )
        ba = ErrorChannel(qubit=0, operator=operator).backaction
        assert ba.rate == pytest.approx(7367.0, abs=0.5)
        gram = operator.conj().T @ operator
        assert max_abs(ba.matrix + ba.rate * np.eye(2) - gram) <= 1e-12 * ba.rate


class TestKrausSet:
    # On the Z^n code the frame is the computational basis.
    def test_single_lowering_channel_matrices(self):
        ks = kraus_set([lowering()], z_code(1), 0.01)
        assert len(dense_jumps(ks)) == 1
        assert_allclose(dense_jumps(ks)[0][1], 0.1 * SIGMA_MINUS)
        assert_allclose(ks.no_jump, np.diag([1.0, 0.995]))

    def test_no_channels_is_trivial(self):
        ks = kraus_set([], z_code(2), 0.01)
        assert dense_jumps(ks) == ()
        assert_allclose(ks.no_jump, np.eye(4))

    def test_offset_channel_stays_trace_preserving_to_first_order(self):
        ks = kraus_set([lowering(gamma=0.5)], z_code(1), 0.01)
        assert cptp_defect(ks) <= 2.5e-3

    def test_weak_coupling_warning(self):
        assert kraus_set([lowering()], z_code(1), 1e-3).warnings == ()
        strained = kraus_set([lowering()], z_code(1), 0.2)
        assert len(strained.warnings) == 1

    def test_rejects_non_hermitian_hamiltonian(self):
        # The package takes driving terms, Hermitian by construction; the
        # dense reference still takes a matrix and checks it.
        with pytest.raises(ValueError):
            dense_kraus_set([lowering()], SIGMA_MINUS, 1, 0.01)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            kraus_set([lowering()], z_code(1), 0.0)

    def test_rejects_a_channel_outside_the_code(self):
        with pytest.raises(ValueError, match="^channel qubit 1 out of range for n=1$"):
            kraus_set([lowering(qubit=1)], z_code(1), 0.01)


class TestCptpDefect:
    def test_exact_value_for_unit_rate_lowering(self):
        ks = kraus_set([lowering()], z_code(1), 0.01)
        assert cptp_defect(ks) == pytest.approx(2.5e-5, abs=1e-12)

    def test_quadratic_scaling_under_halving(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            channels = random_channel_set(rng, 2)
            coarse = cptp_defect(kraus_set(channels, z_code(2), 1e-2))
            fine = cptp_defect(kraus_set(channels, z_code(2), 5e-3))
            assert coarse / fine == pytest.approx(4.0, rel=0.05)


class TestMeanEvolution:
    def test_kraus_average_matches_generator_to_second_order(self):
        # The max-norm gap between the averaged Kraus map and the
        # first-order generator step, divided by dt^2, must stay bounded
        # as dt shrinks; offsets reshuffle trajectories, not the mean.
        rng = np.random.default_rng(5)
        for _ in range(3):
            channels = random_channel_set(rng, 2)
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = raw @ raw.conj().T
            rho /= np.trace(rho).real
            ham = rng.normal(size=(4, 4))
            ham = (ham + ham.T) / 2
            ratios = []
            for dt in (1e-2, 5e-3, 2.5e-3):
                ks = dense_kraus_set(channels, ham, 2, dt)
                mean = ks.no_jump @ rho @ ks.no_jump.conj().T
                for _, omega in dense_jumps(ks):
                    mean = mean + omega @ rho @ omega.conj().T
                target = rho + lindblad_generator(channels, ham, 2)(rho) * dt
                ratios.append(np.max(np.abs(mean - target)) / dt**2)
            assert max(ratios) <= 100.0
            assert max(ratios) / min(ratios) <= 1.2


    @pytest.mark.parametrize("pair", [False, True])
    @pytest.mark.parametrize("driven", [False, True])
    def test_terms_and_factors_give_the_textbook_generator(self, pair, driven):
        # K = -(sum of the embedded terms) and A_k = factor_k / sqrt(dt),
        # rotated back, give the offset-free Lindblad generator: the
        # dynamics the oracle evolves are the textbook ones.
        rng = np.random.default_rng(17 + 2 * pair + driven)
        for _ in range(4):
            n, channels = family_channel_set(rng, pair)
            code = build_code(channels, n)
            terms = build_control_plan(channels, code).driving_terms if driven else ()
            ks = kraus_set(channels, code, 1e-3, terms)
            dim = 2**n
            ops = [-code.dense(ks.terms)] + [
                code.dense([(ch.qubit, factor / np.sqrt(ks.dt), None)])
                for ch, factor in zip(channels, ks.factors)
            ]
            k, *jumps = code.operator_from_frame(np.array(ops))
            ham = dense_driving_hamiltonian(channels, code) if driven else None
            reference = lindblad_generator(channels, ham, n)
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = raw @ raw.conj().T / np.trace(raw @ raw.conj().T).real
            out = k @ rho + rho @ k.conj().T + sum(a @ rho @ a.conj().T for a in jumps)
            assert np.max(np.abs(out - reference(rho))) <= 1e-12


class TestLindbladRhs:
    def test_ground_state_is_stationary(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = lindblad_generator([lowering()], None, 1)(rho)
        assert_allclose(out, np.zeros((2, 2)), atol=1e-15)

    def test_excited_state_decays(self):
        rho = np.diag([0.0, 1.0]).astype(complex)
        out = lindblad_generator([lowering()], None, 1)(rho)
        assert_allclose(out, np.diag([1.0, -1.0]))

    def test_offsets_do_not_enter(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        plain = lindblad_generator([lowering()], None, 1)(rho)
        offset = lindblad_generator([lowering(gamma=0.8, phi=2.0)], None, 1)(rho)
        assert_allclose(plain, offset, atol=1e-15)

    def test_hamiltonian_only_rotation(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = lindblad_generator([], SIGMA_Z, 1)(plus)
        assert_allclose(out, np.array([[0.0, -1j], [1j, 0.0]]), atol=1e-15)
        assert abs(np.trace(out)) <= 1e-12

    def test_matches_kronecker_superoperator(self):
        # Independent reference: with row-major vec, vec(A rho B) equals
        # (A kron B^T) vec(rho), so the generator is one dim^2 x dim^2 matrix.
        rng = np.random.default_rng(41)
        for n in (1, 2, 3) * 2:
            dim = 2**n
            eye = np.eye(dim)
            channels = random_channel_set(rng, n)
            ham = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            ham = (ham + ham.conj().T) / 2
            sup = -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
            for ch in channels:
                e = tensor_embed(ch.operator, ch.qubit, n)
                ee = e.conj().T @ e
                sup += np.kron(e, e.conj())
                sup -= 0.5 * (np.kron(ee, eye) + np.kron(eye, ee.T))
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = raw @ raw.conj().T
            rho /= np.trace(rho).real
            expected = (sup @ rho.reshape(-1)).reshape(dim, dim)
            out = lindblad_generator(channels, ham, n)(rho)
            assert np.max(np.abs(out - expected)) <= 1e-12


class TestErrorChannelValidation:
    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            ErrorChannel(
                qubit=0, operator=SIGMA_MINUS, gamma=-0.1, phi=0.0, label=0
            )

    def test_phase_normalized(self):
        ch = lowering(gamma=1.0, phi=2 * np.pi + 0.5)
        assert ch.phi == pytest.approx(0.5)

    def test_offset_property(self):
        ch = lowering(gamma=2.0, phi=np.pi / 2)
        assert ch.offset == pytest.approx(2j)

    @pytest.mark.parametrize("qubit", [1.5, True, False, np.True_, "0", None])
    def test_non_integer_qubit_rejected(self, qubit):
        with pytest.raises(ValueError, match="integer"):
            ErrorChannel(qubit=qubit, operator=SIGMA_MINUS)

    @pytest.mark.parametrize(
        "field, value, match",
        [("qubit", -1, "^qubit index must be non-negative, got -1$"),
         ("operator", np.eye(3), r"^expected array of shape \(2, 2\), got \(3, 3\)$")],
    )
    def test_negative_qubit_and_wrong_shape_rejected(self, field, value, match):
        fields = {"qubit": 0, "operator": SIGMA_MINUS, field: value}
        with pytest.raises(ValueError, match=match):
            ErrorChannel(**fields)

    def test_numpy_integer_qubit_kept_as_int(self):
        ch = ErrorChannel(qubit=np.int64(2), operator=SIGMA_MINUS)
        assert ch.qubit == 2 and type(ch.qubit) is int

    @pytest.mark.parametrize(
        "field, value",
        [("gamma", np.inf), ("gamma", np.nan), ("phi", np.inf), ("phi", -np.inf),
         ("phi", np.nan)],
    )
    def test_non_finite_offset_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            ErrorChannel(qubit=0, operator=SIGMA_MINUS, **{field: value})

    @pytest.mark.parametrize(
        "operator, gamma", [(1e200 * SIGMA_MINUS, 0.0), (SIGMA_MINUS, 1e200)]
    )
    def test_overflowing_gram_rejected(self, operator, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                ErrorChannel(qubit=0, operator=operator, gamma=gamma)

    @pytest.mark.parametrize("value", [np.inf, np.nan, complex(0.0, np.inf)])
    def test_non_finite_operator_rejected(self, value):
        operator = SIGMA_MINUS.copy()
        operator[1, 0] = value
        with pytest.raises(ValueError, match="finite"):
            ErrorChannel(qubit=0, operator=operator)
