import numpy as np
import pytest

from qaspectral.errors import DomainError, InputError, PreconditionError
from qaspectral.linalg import ABS_TOL, adjoint, op_norm
from qaspectral.operators import COMMUTING, DOUBLY_COMMUTING, make_tuple

# Upper triangular, so T and T^2 commute while T is not normal.
T_NON_NORMAL = np.array([[1.0, 0.5], [0.0, 1.2]])


class TestMakeTuple:
    def test_member_below_abs_tol_is_singular(self):
        with pytest.raises(DomainError, match="member 1"):
            make_tuple([np.eye(2), np.diag([1.0, 1e-11])])

    def test_member_above_abs_tol_is_accepted(self):
        T = make_tuple([np.eye(2), np.diag([1.0, 1e-9])])
        assert len(T) == 2

    def test_abs_tol_is_the_singular_threshold(self):
        assert ABS_TOL == 1e-10
        with pytest.raises(DomainError):
            make_tuple([np.diag([1.0, ABS_TOL])])

    def test_non_commuting_pair_refused(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(PreconditionError, match="do not commute"):
            make_tuple([A, B])

    def test_commuting_non_normal_pair(self):
        T = make_tuple([T_NON_NORMAL, T_NON_NORMAL @ T_NON_NORMAL])
        assert T.mode == COMMUTING
        with pytest.raises(PreconditionError, match="adjoint commutation"):
            make_tuple([T_NON_NORMAL, T_NON_NORMAL @ T_NON_NORMAL], DOUBLY_COMMUTING)

    def test_doubly_commuting_diagonal_pair(self):
        T = make_tuple([np.diag([2.0, 0.5]), np.diag([1j, 1.5])], DOUBLY_COMMUTING)
        assert T.mode == DOUBLY_COMMUTING
        assert T.commutation_residual == 0.0

    @pytest.mark.parametrize("mode", [COMMUTING, DOUBLY_COMMUTING])
    def test_residual_is_largest_scaled_commutator(self, mode):
        rng = np.random.default_rng(3)
        V = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3 * np.eye(3)
        U, _ = np.linalg.qr(V)
        if mode == COMMUTING:
            basis, basis_inv = V, np.linalg.inv(V)
        else:
            basis, basis_inv = U, adjoint(U)
        mats = [
            (basis * (rng.normal(size=3) + 2.0)) @ basis_inv for _ in range(3)
        ]
        T = make_tuple(mats, mode)
        expected = 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                scale = max(op_norm(mats[i]) * op_norm(mats[j]), 1.0)
                comms = [mats[i] @ mats[j] - mats[j] @ mats[i]]
                if mode == DOUBLY_COMMUTING:
                    comms.append(mats[i] @ adjoint(mats[j]) - adjoint(mats[j]) @ mats[i])
                expected = max([expected] + [op_norm(C) / scale for C in comms])
        assert T.commutation_residual == expected
        assert 0.0 < expected <= ABS_TOL

    def test_rejects_unknown_mode_and_empty_and_mixed_shapes(self):
        with pytest.raises(InputError):
            make_tuple([np.eye(2)], "normal")
        with pytest.raises(InputError):
            make_tuple([])
        with pytest.raises(InputError):
            make_tuple([np.eye(2), np.eye(3)])
