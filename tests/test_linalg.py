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
    is_unitary,
    tensor_embed,
    traceless_decompose,
    unitary_completion,
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


def _random_frame(rng, count, dim):
    """``count`` orthonormal rows in C^dim."""
    raw = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    q, _ = np.linalg.qr(raw.T)
    return q.T[:count]


def _assert_maps_frames(u, src, tgt):
    dim = u.shape[0]
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-10
    assert np.max(np.abs(src @ u.T - tgt)) <= 1e-10


class TestUnitaryCompletion:
    def test_identity_on_ground_state(self):
        e0 = np.array([1.0, 0.0], dtype=complex)
        u = unitary_completion([e0], [e0])
        assert_allclose(u @ e0, e0, atol=1e-12)
        assert is_unitary(u)

    def test_maps_excited_to_ground(self):
        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        u = unitary_completion([e1], [e0])
        assert_allclose(u @ e1, e0, atol=1e-12)
        assert is_unitary(u)

    def test_random_pairs_in_dim_four(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            src, tgt = _random_frame(rng, 2, 4), _random_frame(rng, 2, 4)
            _assert_maps_frames(unitary_completion(src, tgt), src, tgt)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 33, 64])
    def test_random_pairs_up_to_dim_64(self, dim):
        rng = np.random.default_rng(dim)
        for count in sorted({1, dim // 2, dim}):
            src, tgt = _random_frame(rng, count, dim), _random_frame(rng, count, dim)
            _assert_maps_frames(unitary_completion(src, tgt), src, tgt)

    def test_repeat_call_is_bytewise_identical(self):
        rng = np.random.default_rng(17)
        src, tgt = _random_frame(rng, 5, 16), _random_frame(rng, 5, 16)
        first = unitary_completion(src, tgt)
        assert unitary_completion(src, tgt).tobytes() == first.tobytes()

    def test_maps_source_complement_onto_target_complement(self):
        rng = np.random.default_rng(19)
        dim = 16
        src, tgt = _random_frame(rng, 5, dim), _random_frame(rng, 5, dim)
        u = unitary_completion(src, tgt)
        src_complement = np.eye(dim) - src.T @ src.conj()
        tgt_projector = tgt.T @ tgt.conj()
        assert np.max(np.abs(tgt_projector @ u @ src_complement)) <= 1e-10

    def test_source_within_1e_9_of_a_canonical_vector(self):
        rng = np.random.default_rng(23)
        for dim in (2, 8):
            near = np.zeros(dim, dtype=complex)
            near[0] = 1.0
            near[1] = 1e-9
            near /= np.linalg.norm(near)
            src, tgt = near[np.newaxis], _random_frame(rng, 1, dim)
            _assert_maps_frames(unitary_completion(src, tgt), src, tgt)

    def test_rejects_non_orthonormal_sources(self):
        v = np.array([1.0, 1.0], dtype=complex)
        with pytest.raises(ValueError):
            unitary_completion([v], [np.array([1.0, 0.0], dtype=complex)])

    def test_rejects_length_mismatch(self):
        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        with pytest.raises(ValueError):
            unitary_completion([e0, e1], [e0])


def test_hermiticity_predicate():
    assert is_hermitian(SIGMA_Y)
    assert not is_hermitian(SIGMA_MINUS)
