import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from jumpqec import (
    ErrorChannel,
    EvenQubitCountRequired,
    RankThreeError,
    StabilizerCode,
    build_code,
    codespace_basis,
    null_space_involution,
    verify_correctability,
)
from jumpqec.codes import anticommuting_terms
from jumpqec.linalg import SIGMA_X, SIGMA_Z

from helpers import (
    SIGMA_MINUS,
    dense_correctability_residuals,
    family_channel_set,
    generator_matrix,
    random_suite,
    rank3_channels,
    relaxation_channels,
)


class TestNullSpaceInvolution:
    def test_single_z_constraint_picks_x_axis(self):
        assert_allclose(null_space_involution([np.array([0.0, 0.0, -0.5])]), [1, 0, 0])

    def test_xy_plane_constraints_pick_z_axis(self):
        out = null_space_involution(
            [np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0])]
        )
        assert_allclose(out, [0, 0, 1], atol=1e-12)

    def test_collinear_constraints_pick_y_axis(self):
        out = null_space_involution(
            [np.array([1.0, 0, 0]), np.array([2.0, 0, 0])]
        )
        assert_allclose(out, [0, 1, 0], atol=1e-12)

    def test_full_rank_fails(self):
        with pytest.raises(RankThreeError):
            null_space_involution(
                [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])]
            )

    def test_empty_constraints_pick_x_axis(self):
        assert_allclose(null_space_involution([]), [1, 0, 0])

    def test_rejects_a_constraint_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="^constraints must be 3-component"):
            null_space_involution([np.array([1.0, 0.0])])

    def test_orthogonality_for_random_planes(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d1 = rng.normal(size=3)
            d2 = rng.normal(size=3)
            axis = null_space_involution([d1, d2])
            assert np.linalg.norm(axis) == pytest.approx(1.0, abs=1e-12)
            for d in (d1, d2):
                assert abs(axis @ d) <= 1e-9 * max(1.0, np.linalg.norm(d))


class TestGeneratorMatrix:
    def test_two_qubit_x_product(self):
        mat = generator_matrix(np.array([[1.0, 0, 0], [1.0, 0, 0]]))
        assert_allclose(mat, np.kron(SIGMA_X, SIGMA_X))

    def test_tilted_axis_is_involution(self):
        axis = np.array([[0.6, 0.0, 0.8]])
        mat = generator_matrix(axis)
        assert_allclose(mat @ mat, np.eye(2), atol=1e-12)


class TestBuildCode:
    def test_three_qubit_lowering_channels(self):
        code = build_code(relaxation_channels(3), 3)
        assert code.logical_count == 2
        assert len(code.generators) == 1
        assert_allclose(code.generators[0], np.tile([1.0, 0, 0], (3, 1)))
        gen = generator_matrix(code.generators[0])
        for v in code.codespace:
            assert np.max(np.abs(gen @ v - v)) <= 1e-10

    def test_four_qubit_full_rank_uses_generator_pair(self):
        code = build_code(rank3_channels(4), 4)
        assert code.logical_count == 2
        assert len(code.generators) == 2
        assert_allclose(code.generators[0], np.tile([1.0, 0, 0], (4, 1)))
        assert_allclose(code.generators[1], np.tile([0.0, 0, 1.0], (4, 1)))
        assert code.codespace.shape == (4, 16)

    def test_odd_register_with_full_rank_rejected(self):
        with pytest.raises(EvenQubitCountRequired):
            build_code(rank3_channels(5), 5)

    def test_six_qubit_pair_rate(self):
        code = build_code(rank3_channels(6), 6)
        assert code.logical_count == 4
        assert code.codespace.shape == (16, 64)

    def test_one_full_rank_qubit_forces_pair_for_whole_register(self):
        channels = rank3_channels(1) + relaxation_channels(4)[1:]
        code = build_code(channels, 4)
        assert len(code.generators) == 2
        assert code.logical_count == 2

    def test_channel_free_qubits_get_z_axis(self):
        code = build_code(relaxation_channels(1), 3)
        assert_allclose(code.generators[0][0], [1.0, 0, 0])
        assert_allclose(code.generators[0][1], [0.0, 0, 1.0])
        assert_allclose(code.generators[0][2], [0.0, 0, 1.0])

    def test_backaction_free_channel_imposes_no_constraint(self):
        unitary_noise = ErrorChannel(
            qubit=0, operator=1.3 * SIGMA_X, gamma=0.0, phi=0.0, label="flip"
        )
        code = build_code([unitary_noise], 1)
        assert_allclose(code.generators[0][0], [1.0, 0, 0])

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError):
            build_code(relaxation_channels(3), 2)


class TestCodespaceBasis:
    def test_single_qubit_z_generator(self):
        basis = codespace_basis([np.array([[0.0, 0, 1.0]])], 1)
        assert basis.shape == (1, 2)
        assert_allclose(np.abs(basis[0]), [1.0, 0.0], atol=1e-12)

    def test_two_qubit_x_pair_eigenspace(self):
        gens = [np.array([[1.0, 0, 0], [1.0, 0, 0]])]
        basis = codespace_basis(gens, 2)
        assert basis.shape == (2, 4)
        gram = basis.conj() @ basis.T
        assert_allclose(gram, np.eye(2), atol=1e-12)
        gen = generator_matrix(gens[0])
        for v in basis:
            assert np.max(np.abs(gen @ v - v)) <= 1e-10

    def test_four_qubit_pair_dimension(self):
        gens = [
            np.tile([1.0, 0, 0], (4, 1)),
            np.tile([0.0, 0, 1.0], (4, 1)),
        ]
        assert codespace_basis(gens, 4).shape == (4, 16)

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            codespace_basis([np.array([[2.0, 0, 0]])], 1)

    def test_rejects_non_commuting_generators(self):
        gens = [
            np.array([[1.0, 0, 0], [0.0, 0, 1.0]]),
            np.array([[0.0, 0, 1.0], [0.0, 0, 1.0]]),
        ]
        with pytest.raises(ValueError):
            codespace_basis(gens, 2)


def _eigenframe(axis):
    """Columns: the +1 and -1 eigenvectors of ``axis . sigma``.

    Each is the normalized larger column of ``(1 +- axis . sigma) / 2``.
    """
    generator = generator_matrix(axis[None, :])
    columns = []
    for sign in (1.0, -1.0):
        projector = (np.eye(2) + sign * generator) / 2
        col = projector[:, np.argmax(np.linalg.norm(projector, axis=0))]
        vec = col / np.linalg.norm(col)
        assert_allclose(generator @ vec, sign * vec, atol=1e-15)
        columns.append(vec)
    return np.stack(columns, axis=1)


def _random_axes(rng, n):
    axes = rng.normal(size=(n, 3))
    return axes / np.linalg.norm(axes, axis=1, keepdims=True)


def _pair(n):
    return (np.tile([1.0, 0, 0], (n, 1)), np.tile([0.0, 0, 1.0], (n, 1)))


class TestClosedFormCodespace:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_axes_give_orthonormal_plus_one_rows(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            axes = _random_axes(rng, n)
            basis = codespace_basis([axes], n)
            assert basis.shape == (2 ** (n - 1), 2**n)
            gram = basis.conj() @ basis.T
            assert np.max(np.abs(gram - np.eye(2 ** (n - 1)))) <= 1e-12
            gen = generator_matrix(axes)
            assert np.max(np.abs(basis @ gen.T - basis)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_row_k_is_the_rotated_even_parity_product(self, n):
        axes = _random_axes(np.random.default_rng(n), n)
        frames = [_eigenframe(a) for a in axes]
        even = [j for j in range(2**n) if bin(j).count("1") % 2 == 0]
        basis = codespace_basis([axes], n)
        for k, j in enumerate(even):
            expected = np.ones(1)
            for q, frame in enumerate(frames):
                expected = np.kron(expected, frame[:, (j >> (n - 1 - q)) & 1])
            assert_allclose(basis[k], expected, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_pair_rows_are_pinned(self, n):
        dim = 2**n
        rows = []
        for j in range(dim // 2):
            if bin(j).count("1") % 2 == 0:
                row = np.zeros(dim, dtype=complex)
                row[j] = row[dim - 1 - j] = 1 / np.sqrt(2.0)
                rows.append(row)
        np.testing.assert_array_equal(codespace_basis(_pair(n), n), np.array(rows))

    @pytest.mark.parametrize(
        "generators, n",
        [
            (_pair(4)[::-1], 4),
            (_pair(4) + (np.tile([0.0, 1.0, 0], (4, 1)),), 4),
            ((np.array([[1.0, 0, 0], [0.0, 0, 1.0 + 1e-9]]),), 2),
            (_pair(3), 3),
            (_pair(2), 4),
            (_pair(4), 2),
            ((), 2),
        ],
        ids=[
            "reversed-pair", "three-generators", "non-unit-row", "odd-pair",
            "narrow-pair", "wide-pair", "none",
        ],
    )
    def test_refuses_other_generator_sets(self, generators, n):
        with pytest.raises(ValueError, match=r"\(X\^n, Z\^n\)"):
            codespace_basis(generators, n)
        with pytest.raises(ValueError, match=r"\(X\^n, Z\^n\)"):
            StabilizerCode(n, generators)

    def test_code_derives_a_frozen_codespace(self):
        axes = _random_axes(np.random.default_rng(9), 3)
        code = StabilizerCode(3, [axes])
        assert code.logical_count == 2
        np.testing.assert_array_equal(code.codespace, codespace_basis([axes], 3))
        assert not any(a.flags.writeable for a in (*code.generators, code.codespace))
        assert axes.flags.writeable


class TestFrame:
    @pytest.mark.parametrize("pair", [False, True], ids=["one-generator", "pair"])
    def test_frame_is_the_parity_picture_of_the_code(self, pair):
        rng = np.random.default_rng(11 + pair)
        for _ in range(4):
            n, channels = family_channel_set(rng, pair)
            code = build_code(channels, n)
            dim = 2**n
            # The scattered basis rotates back to the codespace rows ...
            basis = code.encode(np.eye(2**code.logical_count))
            assert basis.dtype == np.float64
            assert_allclose(code.from_frame(basis), code.codespace.T, atol=1e-15)
            # ... P projects onto it ...
            v = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
            assert_allclose(code.project(v), basis @ (basis.T @ v), atol=1e-14)
            # ... and each generator in the frame rotates back to itself.
            for g, generator in enumerate(code.generators):
                in_frame = code.dense([(0, np.eye(2), g)], dtype=float)
                rotated = code.operator_from_frame(in_frame)
                assert_allclose(rotated, generator_matrix(generator), atol=1e-14)
            # A rotated 2x2 datum is V_q^dag op V_q.
            op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            embedded = code.operator_from_frame(
                np.kron(code.to_frame(op, 0), np.eye(dim // 2))
            )
            assert_allclose(embedded, np.kron(op, np.eye(dim // 2)), atol=1e-14)
            # Rotating it back on its qubit undoes it.
            for q in range(n):
                back = code.local_from_frame(code.to_frame(op, q), q)
                assert_allclose(back, op, atol=1e-14)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_operators_and_stacks_rotate_back_densely(self, n):
        rng = np.random.default_rng(20 + n)
        code = StabilizerCode(n, (_random_axes(rng, n),))
        v = functools.reduce(np.kron, code.frames)
        dim = 2**n
        stack = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
        dense = v @ stack @ v.conj().T
        assert_allclose(code.operator_from_frame(stack[1]), dense[1], atol=1e-13)
        assert_allclose(code.operator_from_frame(stack), dense, atol=1e-13)

    def test_pair_frame_is_the_identity(self):
        code = build_code(rank3_channels(4), 4)
        assert code.frames is None
        m = np.eye(16)
        assert code.from_frame(m) is m and code.operator_from_frame(m) is m
        op = np.eye(2)
        assert code.local_from_frame(op, 3) is op

    def test_codespace_is_built_on_first_access(self):
        code = build_code(relaxation_channels(3), 3)
        assert "codespace" not in vars(code)
        assert code.codespace is code.codespace


class TestAnticommutingTerms:
    @pytest.mark.parametrize(
        "n, channels",
        [(3, relaxation_channels(3)), (4, rank3_channels(4))]
        + random_suite(seed=5, count=12),
    )
    def test_terms_split_the_backaction_and_anticommute(self, n, channels):
        from jumpqec.linalg import tensor_embed

        code = build_code(channels, n)
        gens = [generator_matrix(g) for g in code.generators]
        for ch in channels:
            terms = anticommuting_terms(ch, code)
            assert all(term.shape == (2, 2) for term, _ in terms)
            total = sum((term for term, _ in terms), np.zeros((2, 2)))
            assert_allclose(total, ch.backaction.matrix, rtol=0, atol=1e-15)
            for term, index in terms:
                embedded = tensor_embed(term, ch.qubit, n)
                anti = gens[index] @ embedded + embedded @ gens[index]
                assert np.max(np.abs(anti)) <= 1e-14

    def test_both_branches_are_covered(self):
        sizes = {len(build_code(channels, n).generators)
                 for n, channels in random_suite(seed=5, count=12)}
        assert sizes == {1, 2}

    def test_generator_pair_pairs_each_axis(self):
        from jumpqec.linalg import SIGMA_Y

        channels = rank3_channels(4)
        code = build_code(channels, 4)
        # Each rank-3 channel's backaction lies along one axis, |d| = 1/3:
        # x pairs with Z^n (index 1), y and z with X^n (index 0).
        expected = {"x0": (SIGMA_X, 1), "y0": (SIGMA_Y, 0), "z0": (-SIGMA_Z, 0)}
        for ch in channels[:3]:
            [(term, index)] = anticommuting_terms(ch, code)
            local, sector = expected[ch.label]
            assert index == sector
            assert_allclose(term, local / 3, rtol=0, atol=1e-15)


class TestVerifyCorrectability:
    def test_matched_code_passes(self):
        channels = relaxation_channels(3)
        report = verify_correctability(build_code(channels, 3), channels)
        assert report.passed
        assert report.max_residual <= 1e-10

    def test_wrong_code_residual_is_half(self):
        channels = relaxation_channels(3)
        wrong = StabilizerCode(3, [np.tile([0.0, 0, 1.0], (3, 1))])
        report = verify_correctability(wrong, channels)
        assert not report.passed
        for residual in report.residuals:
            assert residual == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), pair=st.booleans())
    def test_matches_the_dense_matrix_elements(self, seed, pair):
        # Random unit axes give a single-generator code that need not
        # protect the channels, so uncorrectable residuals are compared too.
        rng = np.random.default_rng(seed)
        n, channels = family_channel_set(rng, pair)
        synthesized = build_code(channels, n)
        assert len(synthesized.generators) == (2 if pair else 1)
        for code in (synthesized, StabilizerCode(n, [_random_axes(rng, n)])):
            report = verify_correctability(code, channels)
            dense = dense_correctability_residuals(code, channels)
            assert_allclose(report.residuals, dense, rtol=0, atol=1e-14)

    def test_rejects_a_channel_outside_the_code(self):
        code = build_code(relaxation_channels(2), 2)
        channel = relaxation_channels(3)[2]
        with pytest.raises(ValueError, match="^channel qubit 2 out of range for n=2$"):
            verify_correctability(code, [channel])

    def test_zero_channels_pass_vacuously(self):
        code = build_code(relaxation_channels(2), 2)
        report = verify_correctability(code, [])
        assert report.passed
        assert report.residuals == ()

    def test_generator_pair_channels_pass(self):
        channels = rank3_channels(4)
        report = verify_correctability(build_code(channels, 4), channels)
        assert report.passed

    def test_anticommutation_on_single_generator_branch(self):
        from jumpqec.linalg import tensor_embed

        channels = relaxation_channels(3)
        code = build_code(channels, 3)
        gen = generator_matrix(code.generators[0])
        for ch in channels:
            embedded = tensor_embed(ch.backaction.matrix, ch.qubit, 3)
            assert np.max(np.abs(gen @ embedded + embedded @ gen)) <= 1e-10

    def test_sector_generators_anticommute_with_axes_exactly(self):
        from jumpqec.linalg import SIGMA_Y, tensor_embed

        n = 4
        all_x = generator_matrix(np.tile([1.0, 0, 0], (n, 1)))
        all_z = generator_matrix(np.tile([0.0, 0, 1.0], (n, 1)))
        for qubit in range(n):
            for gen, local in (
                (all_x, SIGMA_Z),
                (all_x, SIGMA_Y),
                (all_z, SIGMA_X),
            ):
                embedded = tensor_embed(local, qubit, n)
                assert np.max(np.abs(gen @ embedded + embedded @ gen)) <= 1e-12

    def test_randomized_synthesis_is_always_correctable(self):
        for n, channels in random_suite(seed=11, count=20):
            code = build_code(channels, n)
            assert code.logical_count == n - len(code.generators)
            report = verify_correctability(code, channels)
            assert report.passed, (
                f"n={n}: residual {report.max_residual:.3e}"
            )
