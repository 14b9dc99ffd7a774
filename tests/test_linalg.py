import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from jumpqec.linalg import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_decompose,
    bloch_matrix,
    is_hermitian,
    tensor_embed,
    traceless_decompose,
)


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

    def test_disjoint_embeddings_commute(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            left = tensor_embed(a, 0, 3) @ tensor_embed(b, 2, 3)
            right = tensor_embed(b, 2, 3) @ tensor_embed(a, 0, 3)
            assert np.max(np.abs(left - right)) <= 1e-12


hermitian_2x2 = st.lists(
    st.floats(-3.0, 3.0, allow_nan=False), min_size=4, max_size=4
).map(
    lambda v: np.array(
        [[v[0], v[2] + 1j * v[3]], [v[2] - 1j * v[3], v[1]]], dtype=complex
    )
)


class TestTracelessDecompose:
    def test_identity(self):
        d, c = traceless_decompose(np.eye(2, dtype=complex))
        assert_allclose(d, np.zeros((2, 2)), atol=1e-15)
        assert c == pytest.approx(1.0)

    def test_pauli_z_unchanged(self):
        d, c = traceless_decompose(SIGMA_Z)
        assert_allclose(d, SIGMA_Z)
        assert c == pytest.approx(0.0)

    def test_excited_projector(self):
        d, c = traceless_decompose(np.diag([0.0, 1.0]).astype(complex))
        assert_allclose(d, -SIGMA_Z / 2)
        assert c == pytest.approx(0.5)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            traceless_decompose(SIGMA_MINUS)

    @settings(deadline=None, max_examples=50)
    @given(hermitian_2x2)
    def test_reconstruction(self, m):
        d, c = traceless_decompose(m)
        assert abs(np.trace(d)) <= 1e-12
        assert np.max(np.abs(d + c * np.eye(2) - m)) <= 1e-12


class TestBlochDecompose:
    def test_pauli_x(self):
        assert_allclose(bloch_decompose(SIGMA_X), [1.0, 0.0, 0.0])

    def test_zero_matrix(self):
        assert_allclose(bloch_decompose(np.zeros((2, 2))), [0.0, 0.0, 0.0])

    def test_mixed_axes(self):
        assert_allclose(
            bloch_decompose(0.5 * SIGMA_X - 0.5 * SIGMA_Z), [0.5, 0.0, -0.5]
        )

    def test_rejects_traceful(self):
        with pytest.raises(ValueError):
            bloch_decompose(np.eye(2))

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=3, max_size=3)
    )
    def test_roundtrip_on_coefficients(self, coeffs):
        assert_allclose(
            bloch_decompose(bloch_matrix(coeffs)), coeffs, atol=1e-12
        )


def test_hermiticity_predicate():
    assert is_hermitian(SIGMA_Y)
    assert not is_hermitian(SIGMA_MINUS)
