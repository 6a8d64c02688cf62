import numpy as np
import pytest

from qaspectral.annulus import AnnulusParams
from qaspectral.errors import PreconditionError
from qaspectral.harness import gen_laurent, gen_qa_operator, substream
from qaspectral.hyperbola import biball_lift
from qaspectral.laurent import BoundarySpec, LaurentPoly, eval_point, sup_norm
from qaspectral.linalg import op_norm

R2 = AnnulusParams(2.0)


class TestBiballLift:
    def test_scalar_one(self):
        lift = biball_lift([[1.0]], R2)
        np.testing.assert_allclose(
            lift.A_hat, np.array([[1.0, 1.5], [0.0, 1.0]]) / np.sqrt(4.25), atol=1e-14
        )
        assert lift.unitary_defect <= 1e-10
        expected_U = np.array([[0.8, 0.6], [-0.6, 0.8]])
        np.testing.assert_allclose(lift.U, expected_U, atol=1e-12)

    def test_diagonal_product_identity(self):
        lift = biball_lift(np.diag([2.0, 0.5]), R2)
        np.testing.assert_allclose(
            lift.A_hat @ lift.B_hat, np.eye(4) / 4.25, atol=1e-14
        )

    def test_lift_pair_commutes(self):
        rng = substream(71, 0)
        lift = biball_lift(gen_qa_operator(3, R2, rng), R2)
        assert op_norm(lift.A_hat @ lift.B_hat - lift.B_hat @ lift.A_hat) <= 1e-12

    def test_random_members(self):
        for k in range(15):
            rng = substream(72, k)
            T = gen_qa_operator(int(rng.integers(1, 5)), R2, rng)
            lift = biball_lift(T, R2)
            assert lift.unitary_defect <= 1e-10
            # A_hat B_hat = I / c_r puts every joint eigenvalue pair on zw = 1/c_r
            assert lift.product_defect <= 1e-10

    def test_rejects_non_member(self):
        with pytest.raises(PreconditionError):
            biball_lift([[3.0]], R2)


class TestPhiMap:
    def test_biball(self):
        # the boundary point 2 lifts to (a_r 2, a_r / 2) on zw = 1/c_r
        lift = biball_lift([[2.0]], R2)
        z, w = lift.A_hat[0, 0], lift.B_hat[0, 0]
        assert z == pytest.approx(0.97014, abs=1e-5)
        assert w == pytest.approx(0.24254, abs=1e-5)
        assert z * w == pytest.approx(1 / 4.25)


def pullback(f, params):
    """f o phi for phi(z) = (z / r, 1 / (r z)): z^a w^b -> r^-(a+b) z^(a-b)."""
    coeffs = {}
    for (a, b), c in f.coeffs.items():
        coeffs[(a - b,)] = coeffs.get((a - b,), 0) + c * params.r ** -(a + b)
    return LaurentPoly(1, coeffs)


class TestBoundaryProbe:
    """The maximum of |f o phi| over the annulus sits on its boundary circles."""

    SPEC = BoundarySpec("polyannulus_distinguished", 2.0)

    def test_first_coordinate(self):
        res = sup_norm(pullback(LaurentPoly(2, {(1, 0): 1.0}), R2), self.SPEC)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert abs(res.arg_point[0]) == pytest.approx(2.0)

    def test_second_coordinate(self):
        res = sup_norm(pullback(LaurentPoly(2, {(0, 1): 1.0}), R2), self.SPEC)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert abs(res.arg_point[0]) == pytest.approx(0.5)

    def test_sum(self):
        res = sup_norm(pullback(LaurentPoly(2, {(1, 0): 1.0, (0, 1): 1.0}), R2), self.SPEC)
        assert res.value == pytest.approx(1.25, abs=1e-9)

    def test_maximum_principle_on_random_probes(self):
        for k in range(10):
            rng = substream(73, k)
            h = pullback(gen_laurent(2, 4, rng), R2)
            if h.is_zero:
                continue
            res = sup_norm(h, self.SPEC)
            for rho in np.exp(np.linspace(-np.log(2.0), np.log(2.0), 33)):
                for theta in np.linspace(0.0, 2 * np.pi, 64, endpoint=False):
                    assert abs(eval_point(h, [rho * np.exp(1j * theta)])) <= res.upper
