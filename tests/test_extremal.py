import numpy as np
import pytest

from qaspectral.annulus import AnnulusParams, membership
from qaspectral.errors import InputError, PreconditionError, ResourceError
from qaspectral.extremal import (
    cyclic_shift_model,
    shift_witness_norm,
    witness_supnorm,
    lower_bound_scan,
    verify_tensor_multiplicativity,
)
from qaspectral.extremal import witness_function as make_gm
from qaspectral.laurent import BoundarySpec, eval_point, sup_norm
from qaspectral.linalg import kron, matrix_power, op_norm

R2 = AnnulusParams(2.0)


def dense_svd_ratio(p, m, r):
    """Oracle: build the cyclic model by hand and take its dense SVD."""
    dim = 2 * p
    w = np.array([r] * p + [1 / r] * p)
    S = np.zeros((dim, dim))
    for k in range(dim):
        S[(k + 1) % dim, k] = w[k]
    G = r ** (-m) * (
        np.linalg.matrix_power(S, m) + np.linalg.matrix_power(np.linalg.inv(S), m)
    )
    return np.linalg.svd(G, compute_uv=False)[0] / (1 + r ** (-2 * m))


class TestShiftModel:
    def test_small_model_entries(self):
        model = cyclic_shift_model(2, R2)
        S = model.S
        assert S[1, 0] == 2.0 and S[2, 1] == 2.0
        assert S[3, 2] == 0.5 and S[0, 3] == 0.5
        assert op_norm(S) == pytest.approx(2.0)
        assert op_norm(np.linalg.inv(S)) == pytest.approx(2.0)

    def test_xi_profile(self):
        # the running products of the weights walk the profile [1, r, r^2, r]
        weights = cyclic_shift_model(2, R2).weights
        np.testing.assert_allclose(np.cumprod(np.append(1.0, weights[:-1])), [1.0, 2.0, 4.0, 2.0])

    def test_weights_are_xi_ratios(self):
        # one period of the bilateral profile: xi_q = r^q up, r^(p-q) down
        p = 5
        xi = np.array([2.0 ** q for q in range(p)] + [2.0 ** (p - q) for q in range(p)])
        xi_wrapped = np.append(xi, xi[0])
        np.testing.assert_allclose(cyclic_shift_model(p, R2).weights, xi_wrapped[1:] / xi)

    def test_weight_product_is_one(self):
        model = cyclic_shift_model(7, R2)
        assert np.prod(model.weights) == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_membership_by_construction(self, p):
        rep = membership(cyclic_shift_model(p, R2).S, R2)
        assert rep.in_qa
        assert rep.is_qa_unitary
        assert rep.min_defect_eig >= -1e-10 * R2.c_r

    def test_power_norm_equals_weight_run(self):
        model = cyclic_shift_model(6, R2)
        for m in range(1, 7):
            assert op_norm(matrix_power(model.S, m)) == pytest.approx(2.0 ** m)

    def test_dimension_cap(self):
        with pytest.raises(ResourceError):
            cyclic_shift_model(5000, R2)


class TestTestFunction:
    def test_point_value(self):
        g = make_gm(1, R2)
        assert eval_point(g, [2.0]) == pytest.approx(1.25)

    def test_supnorm_closed_form_matches_grid(self):
        for m in (1, 2, 3):
            g = make_gm(m, R2)
            grid = sup_norm(g, BoundarySpec("polyannulus_distinguished", 2.0))
            assert witness_supnorm(m, R2) == pytest.approx(grid.value, abs=1e-9)
        assert witness_supnorm(2, R2) == pytest.approx(1.0625)

    def test_coefficient_symmetry(self):
        g = make_gm(3, R2)
        assert g.coeffs[(3,)] == g.coeffs[(-3,)]

    def test_rejects_nonpositive_m(self):
        with pytest.raises(InputError):
            make_gm(0, R2)


class TestScan:
    def test_diagonal_attains_bilateral_reference(self):
        # at p = m the wraparound makes the ratio exactly 2 r^m/(r^m + r^-m)
        for m in (1, 2, 4):
            assert shift_witness_norm(cyclic_shift_model(m, R2), m) == pytest.approx(2.0)
            ratio = dense_svd_ratio(m, m, 2.0)
            assert ratio == pytest.approx(2.0 / (1 + 2.0 ** (-2 * m)), rel=1e-12)

    def test_scan_matches_dense_svd_oracle(self):
        table = lower_bound_scan(R2, [2, 4, 8], [1, 2], n=1)
        for row in table.rows:
            assert row.ratio == pytest.approx(dense_svd_ratio(row.p, row.m, 2.0), rel=1e-10)

    def test_reference_column(self):
        table = lower_bound_scan(R2, [4], [1, 2, 3], n=1)
        for row in table.rows:
            assert row.reference == pytest.approx(2.0 / (1 + 2.0 ** (-2 * row.m)))

    def test_infeasible_cells_skipped(self):
        table = lower_bound_scan(R2, [2, 8], [1, 4], n=1)
        assert {(row.p, row.m) for row in table.rows} == {(2, 1), (8, 1), (8, 4)}

    def test_all_ratios_below_upper(self):
        table = lower_bound_scan(R2, [1, 2, 4, 8, 16], range(1, 5), n=1)
        assert table.all_passed

    def test_m_without_feasible_p_is_error(self):
        with pytest.raises(PreconditionError):
            lower_bound_scan(R2, [2, 4], [8], n=1)

    def test_direct_overreach_is_error(self):
        with pytest.raises(PreconditionError):
            shift_witness_norm(cyclic_shift_model(2, R2), 3)

    def test_n_variable_rows_are_powers(self):
        t1 = lower_bound_scan(R2, [4], [2], n=1)
        t2 = lower_bound_scan(R2, [4], [2], n=2)
        assert t2.rows[0].ratio == pytest.approx(t1.rows[0].ratio ** 2, rel=1e-12)
        assert t2.rows[0].upper == pytest.approx((11 / 3) ** 2)

    def test_tensor_multiplicativity(self):
        assert verify_tensor_multiplicativity(R2, p=4, m=2, rel_tol=1e-10) <= 1e-10

    def test_tensor_check_against_direct_kron(self):
        model = cyclic_shift_model(4, R2)
        G = 0.25 * (matrix_power(model.S, 2) + matrix_power(model.S, -2))
        assert op_norm(kron(G, G)) == pytest.approx(op_norm(G) ** 2, rel=1e-10)

    def test_fixed_m_large_p_settles(self):
        # away from the diagonal the finite model stabilises; on the
        # scanned grid the tail is monotone within oracle tolerance
        table = lower_bound_scan(R2, [4, 8, 16, 32], [2], n=1)
        vals = [row.ratio for row in table.rows]
        assert all(b >= a - 1e-3 for a, b in zip(vals, vals[1:]))
        assert all(v >= 1.0 for v in vals)

    def test_csv_lines(self):
        table = lower_bound_scan(R2, [2], [1], n=1)
        lines = list(table.csv_lines())
        assert lines[0] == "p,m,n,ratio,reference,upper"
        assert len(lines) == 2
