import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qaspectral.annulus import (
    AnnulusParams,
    annulus_defect,
    dilate,
    membership,
    scalar_unitary_family,
    tensor_criterion,
)
from qaspectral.errors import DomainError, InputError, PreconditionError
from qaspectral.harness import gen_qa_operator, haar_unitary, substream
from qaspectral.hyperbola import biball_lift
from qaspectral.linalg import adjoint, matrix_power, op_norm

R2 = AnnulusParams(2.0)


def qa_unitary(dim, params, rng):
    """Random operator with singular values in {r, 1/r}, both attained."""
    V = haar_unitary(dim, rng)
    W = haar_unitary(dim, rng)
    s = np.where(rng.integers(2, size=dim) == 1, params.r, 1.0 / params.r)
    if dim >= 2:
        s[0], s[1] = params.r, 1.0 / params.r
    return (V * s) @ W.conj().T


class TestParams:
    def test_cached_constants(self):
        assert R2.c_r == pytest.approx(4.25)
        assert R2.a_r == pytest.approx(1 / np.sqrt(4.25))

    @pytest.mark.parametrize("r", [1.0, 0.5, -3.0, float("nan")])
    def test_rejects_bad_radius(self, r):
        with pytest.raises(InputError):
            AnnulusParams(r)

    def test_radius_range_ends_where_c_r_overflows(self):
        assert np.isfinite(AnnulusParams(1.3e154).c_r)
        with pytest.raises(InputError):
            AnnulusParams(1.4e154)


class TestAnnulusDefect:
    def test_scalar_one(self):
        np.testing.assert_allclose(annulus_defect([[1.0]], R2), [[2.25]])

    def test_boundary_diagonal_is_zero(self):
        B = annulus_defect(np.diag([2.0, 0.5]), R2)
        np.testing.assert_allclose(B, np.zeros((2, 2)), atol=1e-14)

    def test_outside_is_negative(self):
        B = annulus_defect([[3.0]], R2)
        assert B[0, 0].real == pytest.approx(4.25 - 9 - 1 / 9)
        assert B[0, 0].real == pytest.approx(-4.86111, abs=1e-5)

    def test_commutes_with_gram_matrix(self):
        rng = substream(11, 0)
        T = gen_qa_operator(5, R2, rng)
        P = adjoint(T) @ T
        B = annulus_defect(T, R2)
        assert op_norm(B @ P - P @ B) <= 1e-10 * R2.c_r

    def test_rejects_singular(self):
        with pytest.raises(DomainError):
            annulus_defect(np.diag([1.0, 0.0]), R2)


class TestMembership:
    def test_boundary_member(self):
        rep = membership(np.diag([2.0, 0.5]), R2)
        assert rep.in_qa and rep.is_qa_unitary and rep.routes_agree
        assert rep.norm_T == pytest.approx(2.0)
        assert rep.norm_Tinv == pytest.approx(2.0)

    def test_norm_too_large(self):
        rep = membership([[3.0]], R2)
        assert not rep.in_qa and rep.routes_agree

    def test_singular_input(self):
        rep = membership(np.diag([1.0, 0.0]), R2)
        assert not rep.in_qa
        assert rep.reason == "not invertible"

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=2 ** 31),
    )
    def test_singular_values_inside_imply_membership(self, singulars, seed):
        # Any T with all singular values in [1/r, r] is a member and its
        # defect spectrum is nonnegative up to tolerance.
        rng = substream(seed, 0)
        dim = len(singulars)
        T = (haar_unitary(dim, rng) * singulars) @ haar_unitary(dim, rng).conj().T
        rep = membership(T, R2)
        assert rep.in_qa
        assert rep.min_defect_eig >= -1e-10 * R2.c_r
        assert rep.routes_agree

    def test_two_routes_agree_on_non_members(self):
        for k in range(50):
            rng = substream(99, k)
            dim = int(rng.integers(1, 6))
            V = haar_unitary(dim, rng)
            W = haar_unitary(dim, rng)
            s = np.exp(rng.uniform(-np.log(2), np.log(2), size=dim))
            s[0] = 2.0 * np.exp(rng.uniform(0.01, 1.0))  # clearly outside
            rep = membership((V * s) @ W.conj().T, R2)
            assert not rep.in_qa
            assert rep.routes_agree


class TestDilate:
    def test_scalar_one_closed_form(self):
        res = dilate([[1.0]], R2)
        np.testing.assert_allclose(res.hat_T, [[1.0, 1.5], [0.0, 1.0]], atol=1e-14)
        gram = adjoint(res.hat_T) @ res.hat_T
        np.testing.assert_allclose(gram, [[1.0, 1.5], [1.5, 3.25]], atol=1e-14)
        inv_gram = np.linalg.inv(gram)
        np.testing.assert_allclose(gram + inv_gram, 4.25 * np.eye(2), atol=1e-12)
        assert res.defect_norm <= 1e-12
        assert res.gram_error <= 1e-12

    def test_boundary_operator_has_zero_coupling(self):
        T = np.diag([2.0, 0.5])
        res = dilate(T, R2)
        np.testing.assert_allclose(res.hat_T[:2, 2:], np.zeros((2, 2)), atol=1e-14)
        np.testing.assert_allclose(res.hat_T[:2, :2], T)
        np.testing.assert_allclose(res.hat_T[2:, 2:], adjoint(np.linalg.inv(T)))

    def test_square_compression(self):
        res = dilate([[1.0]], R2, n_range=[2])
        sq = matrix_power(res.hat_T, 2)
        np.testing.assert_allclose(sq, [[1.0, 3.0], [0.0, 1.0]], atol=1e-14)
        assert res.compression_errors[2] <= 1e-14

    def test_random_members_full_contract(self):
        for k in range(20):
            rng = substream(5, k)
            T = gen_qa_operator(int(rng.integers(1, 6)), R2, rng)
            res = dilate(T, R2, n_range=range(-4, 5))
            assert res.defect_norm <= 1e-8 * R2.c_r
            assert res.gram_error <= 1e-10 * R2.c_r
            nT = op_norm(T)
            for n, err in res.compression_errors.items():
                assert err <= 1e-8 * max(1.0, nT ** abs(n))

    def test_rejects_non_member(self):
        with pytest.raises(PreconditionError):
            dilate([[3.0]], R2)


class TestAssociatedUnitary:
    """U = r (1 + r^2)^-1 (J + J^-*) on the dilation, as biball_lift builds it."""

    def test_diagonal_boundary_gives_identity(self):
        U = biball_lift(np.diag([2.0, 0.5]), R2).U
        np.testing.assert_allclose(U, np.eye(4), atol=1e-14)

    def test_scalar_half_identity(self):
        U = biball_lift(0.5 * np.eye(2), R2).U
        np.testing.assert_allclose(U, np.eye(4), atol=1e-14)

    def test_complex_diagonal_is_unitary(self):
        J = np.diag([2.0 * np.exp(1j * np.pi / 3), 0.5])
        U = biball_lift(J, R2).U
        assert op_norm(adjoint(U) @ U - np.eye(4)) <= 1e-10
        # a boundary eigenvalue r e^{it} goes to the unimodular e^{it}
        assert U[0, 0] == pytest.approx(np.exp(1j * np.pi / 3), abs=1e-12)

    def test_padding_appends_boundary_entries(self):
        # the dilation of 0.5 I appends the boundary value r on the new block
        lift = biball_lift(0.5 * np.eye(2), R2)
        assert lift.U.shape == (4, 4)
        np.testing.assert_allclose(
            lift.A_hat, R2.a_r * np.diag([0.5, 0.5, 2.0, 2.0]), atol=1e-14
        )
        assert op_norm(adjoint(lift.U) @ lift.U - np.eye(4)) <= 1e-10

    def test_random_qa_unitaries(self):
        for k in range(20):
            rng = substream(21, k)
            J = qa_unitary(int(rng.integers(1, 6)), R2, rng)
            U = biball_lift(J, R2).U
            assert op_norm(adjoint(U) @ U - np.eye(U.shape[0])) <= 1e-8


class TestTensorCriterion:
    def test_scalar_isometry_pair(self):
        J = np.diag([2.0, 0.5])
        rep = tensor_criterion(0.4 * np.eye(2), 0.4 * np.eye(2), J, R2, "isometry")
        assert rep.operator_passes and rep.conditions_pass

    def test_identity_pair_fails_both(self):
        J = np.diag([2.0, 0.5])
        rep = tensor_criterion(np.eye(2), np.eye(2), J, R2, "isometry")
        assert not rep.operator_passes and not rep.conditions_pass

    def test_theta_pi_unitary(self):
        J = np.diag([2.0, 0.5])
        rep = tensor_criterion((2 / 3) * np.eye(2), -(2 / 3) * np.eye(2), J, R2, "unitary")
        assert rep.operator_passes and rep.conditions_pass

    def test_norm_hypothesis_enforced(self):
        # all singular values at r: ||J^-1|| = 1/r != r
        with pytest.raises(PreconditionError):
            tensor_criterion(np.eye(1), np.eye(1), [[2.0]], R2)

    def test_verdicts_agree_on_random_inputs(self):
        # Random (A, B) almost never satisfy the conditions; scalar-family
        # pairs always do.  Either way both routes must agree.
        for k in range(40):
            rng = substream(77, k)
            J = qa_unitary(int(rng.integers(2, 5)), R2, rng)
            dl = int(rng.integers(1, 4))
            if k % 2 == 0:
                A = rng.normal(size=(dl, dl)) + 1j * rng.normal(size=(dl, dl))
                B = rng.normal(size=(dl, dl)) + 1j * rng.normal(size=(dl, dl))
            else:
                pair = scalar_unitary_family(float(rng.uniform(0, 2 * np.pi)), R2)
                Q = haar_unitary(dl, rng)
                A, B = pair.a * Q, pair.b * Q
            mode = "unitary" if k % 4 >= 2 else "isometry"
            rep = tensor_criterion(A, B, J, R2, mode)
            assert rep.operator_passes == rep.conditions_pass


class TestScalarFamily:
    def test_theta_zero(self):
        pair = scalar_unitary_family(0.0, R2)
        assert pair.a == pytest.approx(0.4)
        assert pair.b == pytest.approx(0.4)

    def test_theta_pi(self):
        pair = scalar_unitary_family(np.pi, R2)
        assert pair.a == pytest.approx(2 / 3)
        assert pair.b.real == pytest.approx(-2 / 3)

    def test_theta_half_pi(self):
        pair = scalar_unitary_family(np.pi / 2, R2)
        assert pair.a == pytest.approx(1 / np.sqrt(4.25))
        assert pair.a == pytest.approx(0.48507, abs=1e-5)
        assert pair.b == pytest.approx(1j * pair.a)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-10.0, max_value=10.0))
    def test_unitarity_invariant(self, theta):
        pair = scalar_unitary_family(theta, R2)
        assert abs(abs(pair.a) - abs(pair.b)) <= 1e-12
        assert abs(abs(R2.r * pair.a + pair.b / R2.r) - 1.0) <= 1e-12

    def test_family_passes_tensor_criterion(self):
        rng = substream(31, 0)
        J = qa_unitary(3, R2, rng)
        for theta in np.linspace(0, 2 * np.pi, 7):
            pair = scalar_unitary_family(float(theta), R2)
            rep = tensor_criterion(
                pair.a * np.eye(1), pair.b * np.eye(1), J, R2, "unitary"
            )
            assert rep.operator_passes and rep.conditions_pass
