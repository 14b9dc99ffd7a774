import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from jumpqec import ErrorChannel, StabilizerCode, kraus_set
from jumpqec.linalg import (
    MAX_QUBITS,
    SIGMA_X,
    SIGMA_Z,
    bloch_matrix,
    expm1,
    on_qubit,
    tensor_embed,
)
from jumpqec.trajectory import _propagator_increments

from helpers import SIGMA_MINUS, lindblad_generator, random_channel_set

#: One qubit under Z: its eigenframe is the computational basis.
Z_CODE = StabilizerCode(1, [np.array([[0.0, 0.0, 1.0]])])


class TestTensorEmbed:
    def test_single_qubit_identity_embedding(self):
        assert_allclose(tensor_embed(SIGMA_X, 0, 1), SIGMA_X)

    def test_z_on_second_qubit(self):
        assert_allclose(tensor_embed(SIGMA_Z, 1, 2), np.diag([1, -1, 1, -1]))

    def test_lowering_on_leading_qubit_uses_msb(self):
        embedded = tensor_embed(SIGMA_MINUS, 0, 2)
        expected = np.zeros((4, 4))
        expected[0, 2] = 1.0
        expected[1, 3] = 1.0
        assert_allclose(embedded, expected)

    @pytest.mark.parametrize("qubit", [-1, 2])
    def test_qubit_out_of_range(self, qubit):
        with pytest.raises(ValueError):
            tensor_embed(SIGMA_X, qubit, 2)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            tensor_embed(np.eye(4), 0, 2)

    @pytest.mark.parametrize("n", [0, MAX_QUBITS + 1])
    def test_register_size_out_of_range(self, n):
        with pytest.raises(ValueError, match=f"^register size must be in .*, got {n}$"):
            tensor_embed(SIGMA_X, 0, n)

    def test_disjoint_embeddings_commute(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            left = tensor_embed(a, 0, 3) @ tensor_embed(b, 2, 3)
            right = tensor_embed(b, 2, 3) @ tensor_embed(a, 0, 3)
            assert np.max(np.abs(left - right)) <= 1e-12


class TestOnQubit:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_the_embedded_product_on_both_sides(self, n):
        rng = np.random.default_rng(n)
        dim = 2**n
        for qubit in range(n):
            op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            embedded = tensor_embed(op, qubit, n)
            for shape in ((dim,), (dim, dim), (dim, 3)):
                m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                assert_allclose(
                    on_qubit(op, qubit, m), embedded @ m, rtol=0, atol=1e-13
                )

    def test_leaves_its_input_alone(self):
        m = np.arange(16, dtype=complex).reshape(4, 4)
        before = m.copy()
        on_qubit(SIGMA_X, 0, m)
        on_qubit(SIGMA_X, 1, m)
        assert np.array_equal(m, before)


hermitian_2x2 = st.lists(
    st.floats(-3.0, 3.0, allow_nan=False), min_size=4, max_size=4
).map(
    lambda v: np.array(
        [[v[0], v[2] + 1j * v[3]], [v[2] - 1j * v[3], v[1]]], dtype=complex
    )
)


def _channel_with_gram(m):
    """A channel whose ``E^dag E`` is ``m + s 1``, ``s`` making it positive.

    ``E`` is the positive square root of ``m + s 1``, so the channel's
    backaction must split off the same traceless part as ``m``.
    """
    w, v = np.linalg.eigh(m)
    shift = max(0.0, -float(w[0])) + 1.0
    root = (v * np.sqrt(w + shift)) @ v.conj().T
    return ErrorChannel(qubit=0, operator=root), shift


class TestTracelessDecompose:
    """The split ``G = c 1 + m`` that :class:`ErrorChannel` derives once."""

    @settings(deadline=None, max_examples=50)
    @given(hermitian_2x2)
    def test_reconstruction(self, m):
        ch, shift = _channel_with_gram(m)
        ba = ch.backaction
        assert abs(np.trace(ba.matrix)) <= 1e-12
        assert ba.rate == pytest.approx(np.trace(m).real / 2 + shift, abs=1e-12)
        gram = m + shift * np.eye(2)
        assert np.max(np.abs(ba.matrix + ba.rate * np.eye(2) - gram)) <= 1e-12


class TestBlochDecompose:
    """The Bloch vector of a channel's backaction, against ``bloch_matrix``."""

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=3, max_size=3)
    )
    def test_roundtrip_on_coefficients(self, coeffs):
        ch, _ = _channel_with_gram(bloch_matrix(coeffs))
        assert_allclose(ch.backaction.bloch, coeffs, atol=1e-12)
        assert_allclose(
            bloch_matrix(ch.backaction.bloch), ch.backaction.matrix, atol=1e-12
        )


def _propagator(channels, t):
    """``exp(L_q t)`` of the channels of qubit 0, on the row-major vec."""
    _, (increment,) = _propagator_increments(kraus_set(channels, Z_CODE, 1.0), t)
    return np.eye(4) + increment


class TestExpm1:
    @pytest.mark.parametrize("t", [1e-3, 0.3, 2.0, 40.0])
    def test_amplitude_damping_closed_form(self, t):
        p = _propagator((ErrorChannel(qubit=0, operator=SIGMA_MINUS),), t)
        rho = (p @ np.full(4, 0.5)).reshape(2, 2)
        assert abs(rho[1, 1] - 0.5 * np.exp(-t)) <= 1e-15
        assert abs(rho[0, 0] - (1.0 - 0.5 * np.exp(-t))) <= 1e-15
        assert abs(rho[0, 1] - 0.5 * np.exp(-t / 2)) <= 1e-15

    @pytest.mark.parametrize("t", [1e-3, 0.3, 2.0, 40.0])
    def test_pure_dephasing_closed_form(self, t):
        # E = sqrt(g) Z gives L(rho) = g (Z rho Z - rho): coherences decay at 2g.
        g = 0.7
        p = _propagator((ErrorChannel(qubit=0, operator=np.sqrt(g) * SIGMA_Z),), t)
        rho = (p @ np.array([0.25, 0.4 - 0.1j, 0.4 + 0.1j, 0.75])).reshape(2, 2)
        assert_allclose(np.diag(rho), [0.25, 0.75], rtol=0, atol=1e-15)
        assert abs(rho[0, 1] - (0.4 - 0.1j) * np.exp(-2 * g * t)) <= 1e-15

    def test_zero_generator_gives_identity_exactly(self):
        assert np.array_equal(expm1(np.zeros((4, 4))), np.zeros((4, 4)))
        p = _propagator((ErrorChannel(qubit=0, operator=np.zeros((2, 2))),), 1.0)
        assert np.array_equal(p, np.eye(4))

    def test_propagators_preserve_trace(self):
        # vec(1) in row-major order picks rho_00 + rho_11.
        trace_row = np.array([1.0, 0.0, 0.0, 1.0])
        rng = np.random.default_rng(31)
        for _ in range(20):
            channels = random_channel_set(rng, 1)
            for t in (1e-3, 3e-3, 0.5, 7.0):
                p = _propagator(channels, t)
                assert np.max(np.abs(trace_row @ p - trace_row)) <= 1e-14

    def test_increment_keeps_relative_accuracy(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]]) * 1e-9
        # exp(a) - 1 = [[cos - 1, sin], [-sin, cos - 1]] at angle 1e-9.
        assert_allclose(
            expm1(a), [[-5e-19, 1e-9], [-1e-9, -5e-19]], rtol=1e-15, atol=0
        )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            expm1(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_matches_scipy(self):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(5)
        for scale in (1e-6, 1e-2, 0.2, 0.9, 2.0, 5.0, 30.0):
            for _ in range(10):
                a = scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
                reference = linalg.expm(a)
                err = np.max(np.abs(np.eye(4) + expm1(a) - reference))
                assert err <= 1e-13 * max(1.0, np.max(np.abs(reference)))
        units = np.eye(4, dtype=complex).reshape(4, 2, 2)
        for _ in range(10):
            channels = random_channel_set(rng, 1)
            rhs = lindblad_generator(channels, None, 1)
            generator = np.stack([rhs(u).reshape(4) for u in units], axis=1)
            for t in (1e-3, 1.0, 25.0):
                err = np.abs(_propagator(channels, t) - linalg.expm(generator * t))
                assert np.max(err) <= 1e-13
