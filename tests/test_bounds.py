import math

import numpy as np
import pytest

from qaspectral.annulus import AnnulusParams
from qaspectral.bounds import (
    BOUND_KINDS,
    biannulus_bound,
    polyannulus_dc_bound,
    annulus_bound,
    spectral_ratio,
)
from qaspectral.errors import InputError, PreconditionError
from qaspectral.harness import gen_laurent, substream
from qaspectral.laurent import (
    LaurentPoly,
    all_sign_patterns,
    bivariate_part_bounds,
    sign_pattern_bound,
)
from qaspectral.operators import make_tuple

R2 = AnnulusParams(2.0)


class TestCatalog:
    def test_annulus_bound_value(self):
        assert annulus_bound(2.0) == pytest.approx(46 / 15)
        assert annulus_bound(2.0) == pytest.approx(3.06667, abs=1e-5)
        assert BOUND_KINDS["annulus"].upper(2.0, 1) == annulus_bound(2.0)

    def test_biannulus_value(self):
        expected = 4 + (5 / 3) ** 2 + 4 * math.sqrt(5 / 3)
        assert biannulus_bound(2.0) == pytest.approx(expected, rel=1e-14)
        assert biannulus_bound(2.0) == pytest.approx(11.94176, abs=1e-5)

    def test_product_bound_value_and_comparison(self):
        assert polyannulus_dc_bound(2.0, 2) == pytest.approx((11 / 3) ** 2)
        assert biannulus_bound(2.0) < polyannulus_dc_bound(2.0, 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("r", [1.3, 2.0, 4.0])
    def test_product_bound_is_sum_of_part_estimates(self, r, n):
        # binomial expansion of ((3r^2-1)/(r^2-1))^n over the 2^n sign patterns
        params = AnnulusParams(r)
        parts = sum(sign_pattern_bound(params, n, mu.t) for mu in all_sign_patterns(n))
        assert polyannulus_dc_bound(r, n) == pytest.approx(parts, rel=1e-14, abs=0)
        assert BOUND_KINDS["polyannulus_dc"].upper(r, n) == polyannulus_dc_bound(r, n)

    @pytest.mark.parametrize("r", [1.3, 2.0, 4.0])
    def test_biannulus_bound_is_sum_of_part_estimates(self, r):
        b = bivariate_part_bounds(AnnulusParams(r))
        assert biannulus_bound(r) == pytest.approx(b.b1 + b.b2 + b.b3 + b.b4, rel=1e-14, abs=0)
        assert BOUND_KINDS["biannulus"].upper(r, 2) == biannulus_bound(r)

    def test_closed_forms_at_r2_are_the_rounded_fractions(self):
        assert annulus_bound(2.0) == 2.0 * (1.0 + 8 / 15)
        assert biannulus_bound(2.0) == 4.0 + 4.0 * math.sqrt(5 / 3) + (5 / 3) * (5 / 3)
        assert polyannulus_dc_bound(2.0, 3) == (11 / 3) ** 3
        b = bivariate_part_bounds(R2)
        root = math.sqrt(15.0)
        assert (b.b1, b.b2, b.b4) == (
            1.0 + 2.0 / root + (1 / 3) ** 2,
            1.0 + 5.0 / root + 4 / 9,
            1.0 + 8.0 / root + (4 / 3) ** 2,
        )
        assert sign_pattern_bound(R2, 3, 1) == (4 / 3) * (7 / 3) ** 2

    @pytest.mark.parametrize("r", [1e100, 1e150, 1.3e154])
    def test_closed_forms_finite_at_huge_radius(self, r):
        # the r -> infinity limits: 2, 9, 3^n; parts 1, 2, 4 and 2^(n-t)
        params = AnnulusParams(r)
        assert annulus_bound(r) == pytest.approx(2.0)
        assert biannulus_bound(r) == pytest.approx(9.0)
        assert polyannulus_dc_bound(r, 3) == pytest.approx(27.0)
        b = bivariate_part_bounds(params)
        assert (b.b1, b.b2, b.b4) == pytest.approx((1.0, 2.0, 4.0))
        assert sign_pattern_bound(params, 3, 1) == pytest.approx(4.0)

    def test_monotone_nonincreasing_in_r(self):
        rs = np.logspace(math.log10(1.02), 2, 50)
        for f in (annulus_bound, biannulus_bound, lambda r: polyannulus_dc_bound(r, 2)):
            vals = [f(r) for r in rs]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_annulus_bound_limit(self):
        assert annulus_bound(1e6) - 2.0 < 1e-11
        assert annulus_bound(10.0) > 2.0

    def test_biannulus_strictly_sharper_on_grid(self):
        for r in np.logspace(math.log10(1.01), 2, 50):
            assert biannulus_bound(r) < polyannulus_dc_bound(r, 2)


class TestSpectralRatio:
    def test_boundary_diagonal_hits_one(self):
        T = make_tuple([np.diag([2.0, 0.5])])
        g = LaurentPoly(1, {(1,): 1.0, (-1,): 1.0})
        rep = spectral_ratio(T, g, R2, bound=annulus_bound(2.0))
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)
        assert rep.passed

    def test_identity_with_z(self):
        T = make_tuple([np.eye(1)])
        g = LaurentPoly(1, {(1,): 1.0})
        rep = spectral_ratio(T, g, R2)
        assert rep.ratio == pytest.approx(0.5, abs=1e-9)

    def test_unit_circle_spectrum_dominated(self):
        # unitary T: values on the unit circle are dominated by the sup
        rng = substream(60, 0)
        from qaspectral.harness import haar_unitary

        U = haar_unitary(4, rng)
        for k in range(5):
            g = gen_laurent(1, 6, substream(60, k + 1))
            rep = spectral_ratio(make_tuple([U]), g, R2)
            assert rep.ratio <= 1.0 + rep.certified_error / rep.g_supnorm + 1e-12

    def test_rejects_non_member(self):
        T = make_tuple([3.0 * np.eye(2)])
        g = LaurentPoly(1, {(1,): 1.0})
        with pytest.raises(PreconditionError):
            spectral_ratio(T, g, R2)

    def test_rejects_zero_polynomial(self):
        T = make_tuple([np.eye(2)])
        with pytest.raises(InputError):
            spectral_ratio(T, LaurentPoly(1, {}), R2)

    def test_constant_polynomial_trivial_ratio(self):
        T = make_tuple([np.diag([2.0, 0.5])])
        g = LaurentPoly(1, {(0,): 3.0})
        rep = spectral_ratio(T, g, R2, bound=annulus_bound(2.0))
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.passed

    def test_shape_mismatch_rejected(self):
        T = make_tuple([np.eye(2), np.eye(2)])
        g = LaurentPoly(1, {(1,): 1.0})
        with pytest.raises(InputError):
            spectral_ratio(T, g, R2)
