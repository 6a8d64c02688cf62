import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qaspectral.annulus import AnnulusParams
from qaspectral import laurent
from qaspectral.errors import DomainError, InputError, ResourceError
from qaspectral.harness import gen_laurent, substream
from qaspectral.laurent import (
    BoundarySpec,
    LaurentPoly,
    all_sign_patterns,
    cauchy_check,
    coefficients_from_samples,
    decompose_2n,
    eval_operators,
    eval_point,
    sign_pattern_bound,
    bivariate_part_bounds,
    recompose,
    sample_grid,
    sup_norm,
    verify_decomposition_estimates,
)
from qaspectral.operators import make_tuple

R2 = AnnulusParams(2.0)
SPEC2 = BoundarySpec("polyannulus_distinguished", 2.0)


def random_annulus_point(rng, n, r):
    rad = np.exp(rng.uniform(-np.log(r), np.log(r), size=n))
    ang = rng.uniform(0, 2 * np.pi, size=n)
    return rad * np.exp(1j * ang)


class TestLaurentPoly:
    def test_drops_zero_coefficients(self):
        g = LaurentPoly(1, {(0,): 0.0, (1,): 2.0})
        assert g.coeffs == {(1,): 2.0}

    def test_max_abs_degree(self):
        g = LaurentPoly(2, {(3, -2): 1.0, (0, 1): 1.0})
        assert g.max_abs_degree == 5

    def test_rejects_mismatched_exponent_length(self):
        with pytest.raises(InputError):
            LaurentPoly(2, {(1,): 1.0})

    def test_json_round_trip(self):
        g = LaurentPoly(2, {(1, -1): 1 + 2j, (0, 3): -0.5})
        assert LaurentPoly.from_json_dict(g.as_json_dict()) == g


class TestEvalPoint:
    def test_univariate(self):
        g = LaurentPoly(1, {(1,): 1.0, (-1,): 1.0})
        assert eval_point(g, [2.0]) == pytest.approx(2.5)

    def test_bivariate(self):
        g = LaurentPoly(2, {(1, 1): 1.0, (-1, -1): 1.0})
        assert eval_point(g, [2.0, 2.0]) == pytest.approx(4.25)

    def test_constant(self):
        g = LaurentPoly(3, {(0, 0, 0): 1.0})
        assert eval_point(g, [5.0, 1j, -2.0]) == pytest.approx(1.0)

    def test_rejects_zero_coordinate(self):
        g = LaurentPoly(1, {(-1,): 1.0})
        with pytest.raises(DomainError):
            eval_point(g, [0.0])


class TestEvalOperators:
    def test_diagonal_matches_pointwise(self):
        g = LaurentPoly(1, {(1,): 1.0, (-1,): 1.0})
        T = make_tuple([np.diag([2.0, 0.5])])
        np.testing.assert_allclose(eval_operators(g, T), np.diag([2.5, 2.5]))

    def test_product_monomial(self):
        g = LaurentPoly(2, {(1, 1): 1.0})
        T = make_tuple([np.diag([2.0, 1.0]), np.eye(2)])
        np.testing.assert_allclose(eval_operators(g, T), np.diag([2.0, 1.0]))

    def test_identity_calculus(self):
        g = LaurentPoly(1, {(1,): 1.0})
        rng = substream(6, 0)
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3 * np.eye(3)
        np.testing.assert_allclose(eval_operators(g, make_tuple([M])), M)

    def test_diagonal_tuple_matches_eval_point(self):
        rng = substream(6, 1)
        g = gen_laurent(2, 4, rng)
        d1 = random_annulus_point(rng, 2, 2.0)
        d2 = random_annulus_point(rng, 2, 2.0)
        T = make_tuple([np.diag(d1), np.diag(d2)])
        G = eval_operators(g, T)
        for i in range(2):
            assert G[i, i] == pytest.approx(eval_point(g, [d1[i], d2[i]]), abs=1e-10)

    @staticmethod
    def _pair():
        A = np.array([[2.0, 1.0], [0.0, 0.5]])
        return make_tuple([A, A @ A + np.eye(2)])

    def test_inverts_only_for_negative_powers(self, monkeypatch):
        calls = []
        inv = np.linalg.inv

        def spy(M):
            calls.append(M)
            return inv(M)

        monkeypatch.setattr(np.linalg, "inv", spy)
        T = self._pair()
        eval_operators(LaurentPoly(2, {(0, 0): 1.0, (2, 1): 0.5, (0, 3): 1j}), T)
        assert calls == []
        eval_operators(LaurentPoly(2, {(-2, 1): 1.0}), T)
        assert len(calls) == 1 and calls[0] is T[0]

    def test_constant_is_scaled_identity(self):
        c = 1.5 - 2j
        G = eval_operators(LaurentPoly(2, {(0, 0): c}), self._pair())
        np.testing.assert_array_equal(G, c * np.eye(2))

    def test_mixed_powers(self):
        T = self._pair()
        G = eval_operators(LaurentPoly(2, {(2, -1): 1.0}), T)
        np.testing.assert_allclose(G, T[0] @ T[0] @ np.linalg.inv(T[1]), rtol=0, atol=1e-12)


class TestSupNorm:
    def test_univariate_example(self):
        g = LaurentPoly(1, {(1,): 1.0, (-1,): 1.0})
        res = sup_norm(g, SPEC2)
        assert res.value == pytest.approx(2.5, abs=1e-9)
        assert abs(res.arg_point[0] - 2.0) < 1e-6

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_gm_closed_form(self, m):
        c = 2.0 ** -m
        g = LaurentPoly(1, {(m,): c, (-m,): c})
        res = sup_norm(g, SPEC2)
        assert res.value == pytest.approx(1 + 2.0 ** (-2 * m), abs=1e-9)

    def test_constant_has_zero_error(self):
        g = LaurentPoly(1, {(0,): 7.0})
        res = sup_norm(g, SPEC2)
        assert res.value == 7.0
        assert res.certified_error == 0.0

    def test_zero_polynomial(self):
        res = sup_norm(LaurentPoly(1, {}), SPEC2)
        assert res.value == 0.0 and res.certified_error == 0.0

    def test_nested_grid_monotonicity(self):
        # doubling nests the grids; only roundoff at machine scale may
        # move the located maximum
        for k in range(5):
            g = gen_laurent(2, 6, substream(8, k))
            lo = sup_norm(g, BoundarySpec("polyannulus_distinguished", 2.0, 256))
            hi = sup_norm(g, BoundarySpec("polyannulus_distinguished", 2.0, 512))
            assert hi.value >= lo.value - 1e-12 * max(1.0, lo.value)

    def test_certified_upper_bound_against_dense_oracle(self):
        # value + certified error must dominate a 10x denser raw scan
        for k in range(5):
            g = gen_laurent(1, 6, substream(9, k))
            res = sup_norm(g, BoundarySpec("polyannulus_distinguished", 2.0, 256))
            dense = sup_norm(g, BoundarySpec("polyannulus_distinguished", 2.0, 2560))
            assert res.value + res.certified_error >= dense.value
            assert res.value <= dense.value + dense.certified_error

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_value_is_attained_at_arg_point(self, n):
        # the value is a grid maximum: |g| at arg_point, up to FFT roundoff
        for k in range(4):
            g = gen_laurent(n, 5, substream(11, 10 * n + k))
            res = sup_norm(g, SPEC2)
            radii = np.abs(np.asarray(res.arg_point))
            assert any(np.allclose(radii, t, rtol=1e-12, atol=0) for t in SPEC2.tori(n))
            assert res.value <= abs(eval_point(g, res.arg_point)) * (1 + 1e-12)

    def test_grid_floor_enforced(self):
        g = LaurentPoly(1, {(10,): 1.0})
        with pytest.raises(InputError):
            sup_norm(g, BoundarySpec("polyannulus_distinguished", 2.0, 128))

    def test_overflowing_value_is_domain_error(self):
        # r^8 = 1e800 is beyond float range
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError):
                sup_norm(LaurentPoly(1, {(8,): 1.0}), BoundarySpec("polycircle_r", 1e100))

    def test_grid_cap_refuses_many_variables(self):
        # z_1 + z_14: the pruned sweep would hold 256^13 * 2 entries
        exps = [tuple(int(i == j) for i in range(14)) for j in (0, 13)]
        g = LaurentPoly(14, {e: 1.0 for e in exps})
        with pytest.raises(ResourceError):
            sup_norm(g, SPEC2)
        with pytest.raises(ResourceError):
            sample_grid(g, 8)

    def test_grid_cap_boundary(self, monkeypatch):
        # the pruned sweep of a 2-variable g holds N * w_last entries; a
        # cap that small also shrinks its slice batches to w_last rows
        g = gen_laurent(2, 3, substream(11, 99))
        N = SPEC2.grid_size(g)
        w_last = 1 + max(e[1] for e in g.coeffs) - min(e[1] for e in g.coeffs)
        expected = sup_norm(g, SPEC2)
        monkeypatch.setattr(laurent, "GRID_CAP", N * w_last)
        assert sup_norm(g, SPEC2) == expected
        monkeypatch.setattr(laurent, "GRID_CAP", N * w_last - 1)
        with pytest.raises(ResourceError):
            sup_norm(g, SPEC2)


def _box(g, radii):
    """g's coefficient box on the torus of radii `radii`."""
    exps, cs = laurent._exponent_table(g)
    return laurent._coeff_box(exps, cs * np.prod(np.asarray(radii, dtype=float) ** exps, axis=1))


def _full_grid_max(g, radii, N):
    """Max of |g| over every point of the N^n torus grid, without pruning.

    The last axis is transformed in row chunks so the n = 3 grid never
    sits in memory at once.
    """
    part = _box(g, radii)
    for axis in range(g.n_vars - 1):
        part = np.fft.ifft(part, n=N, axis=axis) * N
    rows = part.reshape(-1, part.shape[-1])
    return max(
        np.abs(np.fft.ifft(rows[i : i + 4096], n=N, axis=1) * N).max()
        for i in range(0, len(rows), 4096)
    )


def _certificate(g, spec):
    """max over spec.tori of D * pi / N, term by term."""
    N = spec.grid_size(g)
    return max(
        sum(
            abs(c) * sum(abs(e) for e in exp) * math.prod(rho ** e for rho, e in zip(radii, exp))
            for exp, c in g.coeffs.items()
        )
        for radii in spec.tori(g.n_vars)
    ) * math.pi / N


class TestTorusPruning:
    """Tori visited in l1 order against a shared running maximum.

    At r = 1.3 the tori's l1 bounds lie close together, so the torus
    visited first often does not hold the maximum.
    """

    @pytest.mark.parametrize("kind", ["polyannulus_distinguished", "polycircle_r"])
    @pytest.mark.parametrize("n, degree, count", [(1, 3, 16), (2, 3, 12), (3, 4, 1)])
    def test_value_is_full_grid_maximum(self, kind, n, degree, count):
        spec = BoundarySpec(kind, 1.3)
        for k in range(count):
            g = gen_laurent(n, degree, substream(70 + n, k))
            N = spec.grid_size(g)
            full = max(_full_grid_max(g, radii, N) for radii in spec.tori(n))
            assert sup_norm(g, spec).value == pytest.approx(full, rel=1e-13, abs=0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shared_maximum_matches_separate_tori(self, n):
        spec = BoundarySpec("polyannulus_distinguished", 1.3)
        for k in range(16):
            g = gen_laurent(n, 2, substream(90 + n, k))
            N = spec.grid_size(g)
            separate = max(laurent._grid_argmax(_box(g, radii), N, -1.0)[0] for radii in spec.tori(n))
            assert sup_norm(g, spec).value == separate

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_certificate_covers_every_torus(self, n):
        for k in range(3):
            g = gen_laurent(n, 4, substream(80 + n, k))
            assert sup_norm(g, SPEC2).certified_error == pytest.approx(
                _certificate(g, SPEC2), rel=1e-12
            )

    def test_skipped_torus_still_sets_the_certificate(self, monkeypatch):
        # on |z| = 1/2 the l1 bound is 20 + 1e-5; on |z| = 2 it is only
        # 15.24, so that torus is skipped although its D (107.4) is largest
        g = LaurentPoly(1, {(-1,): 10.0, (10,): 0.01})
        visited = []
        grid_argmax = laurent._grid_argmax

        def spy(box, N, best):
            visited.append(box)
            return grid_argmax(box, N, best)

        monkeypatch.setattr(laurent, "_grid_argmax", spy)
        res = sup_norm(g, SPEC2)
        assert len(visited) == 1
        np.testing.assert_array_equal(visited[0], _box(g, (0.5,)))
        assert res.value == pytest.approx(20.0, rel=1e-5)
        assert res.certified_error == pytest.approx(_certificate(g, SPEC2), rel=1e-12)
        assert res.certified_error == pytest.approx(107.4 * math.pi / 320, rel=1e-3)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tied_tori_keep_spec_order(self, n):
        # z_1 + 1/z_1 has the same l1 bound and maximum on every torus
        g = LaurentPoly(n, {(1,) + (0,) * (n - 1): 1.0, (-1,) + (0,) * (n - 1): 1.0})
        res = sup_norm(g, SPEC2)
        np.testing.assert_allclose(np.abs(res.arg_point), SPEC2.tori(n)[0], rtol=1e-12)

    def test_maximum_on_last_torus(self):
        g = LaurentPoly(2, {(-3, -2): 1.0})
        res = sup_norm(g, SPEC2)
        assert res.value == pytest.approx(32.0, rel=1e-12)
        np.testing.assert_allclose(np.abs(res.arg_point), SPEC2.tori(2)[-1], rtol=1e-12)

    @pytest.mark.parametrize(
        "n, coeffs, first, second, peak",
        [
            # z + z^-2 peaks at 4.5 on |z| = 1/2 and at 2.25 on |z| = 2
            (1, {(1,): 1.0, (-2,): 1.0}, (0.5,), (2.0,), 4.5),
            (2, {(1, 0): 1.0, (0, -1): 1.0}, (2.0, 0.5), (0.5, 2.0), 4.0),
        ],
        ids=["1", "2"],
    )
    def test_nothing_beats_the_running_maximum(self, n, coeffs, first, second, peak):
        g = LaurentPoly(n, coeffs)
        N = SPEC2.grid_size(g)
        best, idx = laurent._grid_argmax(_box(g, first), N, -1.0)
        assert best == pytest.approx(peak, rel=1e-12) and idx is not None
        assert laurent._grid_argmax(_box(g, second), N, best) == (best, None)


class TestCoefficients:
    def test_two_term_recovery(self):
        g = LaurentPoly(1, {(1,): 1.0, (-1,): 1.0})
        samples = sample_grid(g, 8)
        rec = coefficients_from_samples(samples, [(-2, 2)])
        assert set(rec.coeffs) == {(1,), (-1,)}
        for c in rec.coeffs.values():
            assert c == pytest.approx(1.0, abs=1e-12)

    def test_constant(self):
        g = LaurentPoly(1, {(0,): 7.0})
        samples = sample_grid(g, 8)
        rec = coefficients_from_samples(samples, [(0, 0)])
        assert rec.coeffs[(0,)] == pytest.approx(7.0)

    def test_round_trip_random(self):
        for k in range(5):
            rng = substream(10, k)
            g = gen_laurent(2, 5, rng)
            samples = sample_grid(g, 16)
            rec = coefficients_from_samples(samples, [(-5, 5), (-5, 5)])
            assert set(rec.coeffs) == set(g.coeffs)
            for exp, c in g.coeffs.items():
                assert abs(rec.coeffs[exp] - c) <= 1e-12
            assert np.abs(samples - sample_grid(rec, 16)).max() <= 1e-10

    @pytest.mark.parametrize("n, N", [(1, 16), (2, 12), (3, 8)])
    def test_sample_grid_matches_eval_point(self, n, N):
        # every grid point, with negative exponents on every axis, so a
        # conjugated sign convention would not pass
        g = gen_laurent(n, 3, substream(12, n))
        g = LaurentPoly(n, {**g.coeffs, (-1,) * n: 1 - 2j, (-3,) + (0,) * (n - 1): 0.5j})
        samples = sample_grid(g, N)
        assert samples.shape == (N,) * n
        for k in np.ndindex(samples.shape):
            z = np.exp(2j * np.pi * np.asarray(k) / N)
            assert abs(samples[k] - eval_point(g, z)) <= 1e-12

    def test_sample_grid_refuses_aliasing(self):
        # exponents -4..4 span 9 > 8 samples per circle
        with pytest.raises(InputError):
            sample_grid(LaurentPoly(1, {(-4,): 1.0, (4,): 1.0}), 8)

    def test_zero_polynomial_grid(self):
        samples = sample_grid(LaurentPoly(2, {}), 8)
        assert samples.shape == (8, 8) and not samples.any()
        assert coefficients_from_samples(samples, [(-2, 2), (-2, 2)]).is_zero

    def test_window_wider_than_samples_is_aliasing(self):
        samples = np.ones((8,), dtype=complex)
        with pytest.raises(InputError):
            coefficients_from_samples(samples, [(-5, 5)])


class TestCauchyCheck:
    def test_consistent_pair(self):
        g = LaurentPoly(1, {(1,): 1.0, (-1,): 1.0})
        assert cauchy_check(g, R2, 2.5)

    def test_inconsistent_supnorm_is_flagged(self):
        g = LaurentPoly(1, {(1,): 1.0})
        assert not cauchy_check(g, R2, 1.0)

    def test_zero_polynomial_vacuous(self):
        assert cauchy_check(LaurentPoly(1, {}), R2, 0.0)


class TestSplitUnivariate:
    """decompose_2n at n = 1: g(z) = g_+(z) + g_-(1/z), split by exponent sign."""

    @staticmethod
    def split(g):
        (plus, pos), (minus, neg) = decompose_2n(g).items()
        assert plus.label() == "+" and minus.label() == "-"
        return pos, neg

    def test_bookkeeping(self):
        g = LaurentPoly(1, {(0,): 3.0, (1,): 2.0, (-2,): 5.0})
        pos, neg = self.split(g)
        assert pos.coeffs == {(0,): 3.0, (1,): 2.0}
        assert neg.coeffs == {(2,): 5.0}

    def test_pure_z(self):
        pos, neg = self.split(LaurentPoly(1, {(1,): 1.0}))
        assert pos.coeffs == {(1,): 1.0}
        assert neg.is_zero

    def test_gm_split(self):
        pos, neg = self.split(LaurentPoly(1, {(2,): 0.25, (-2,): 0.25}))
        assert pos.coeffs == {(2,): 0.25}
        assert neg.coeffs == {(2,): 0.25}

    def test_reconstruction_identity_exact(self):
        for k in range(10):
            g = gen_laurent(1, 8, substream(12, k))
            pos, neg = self.split(g)
            rebuilt = dict(pos.coeffs)
            for (e,), c in neg.coeffs.items():
                rebuilt[(-e,)] = rebuilt.get((-e,), 0) + c
            assert LaurentPoly(1, rebuilt) == g


class TestDecompose2n:
    def test_sign_routing(self):
        g = LaurentPoly(2, {(1, 1): 1.0, (1, -1): 1.0, (-1, -1): 1.0})
        parts = {p.label(): part for p, part in decompose_2n(g).items()}
        assert parts["++"].coeffs == {(1, 1): 1.0}
        assert parts["+-"].coeffs == {(1, 1): 1.0}
        assert parts["-+"].is_zero
        assert parts["--"].coeffs == {(1, 1): 1.0}

    def test_constant_goes_to_all_plus(self):
        g = LaurentPoly(3, {(0, 0, 0): 5.0})
        parts = {p.label(): part for p, part in decompose_2n(g).items()}
        assert parts["+++"].coeffs == {(0, 0, 0): 5.0}
        assert all(part.is_zero for label, part in parts.items() if label != "+++")

    def test_zero_exponent_routes_to_plus(self):
        g = LaurentPoly(2, {(0, -2): 1.0})
        parts = {p.label(): part for p, part in decompose_2n(g).items()}
        assert parts["+-"].coeffs == {(0, 2): 1.0}

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(min_value=1, max_value=3))
    def test_reconstruction_at_random_points(self, seed, n):
        rng = substream(seed, 1)
        g = gen_laurent(n, 6, rng)
        parts = decompose_2n(g)
        assert recompose(parts, n) == g
        for _ in range(5):
            z = random_annulus_point(rng, n, 2.0)
            direct = eval_point(g, z)
            total = 0j
            for pattern, part in parts.items():
                zz = np.array([zi ** s for zi, s in zip(z, pattern.signs)])
                total += eval_point(part, zz) if not part.is_zero else 0.0
            scale = max(1.0, abs(direct))
            assert abs(total - direct) <= 1e-12 * scale


class TestClosedFormBounds:
    def test_mu_estimate_values(self):
        assert sign_pattern_bound(R2, 1, 1) == pytest.approx(4 / 3)
        assert sign_pattern_bound(R2, 1, 0) == pytest.approx(7 / 3)
        assert sign_pattern_bound(R2, 2, 2) == pytest.approx(16 / 9)

    def test_mu_estimate_rejects_bad_t(self):
        with pytest.raises(InputError):
            sign_pattern_bound(R2, 2, 3)

    def test_bivariate_closed_forms(self):
        b = bivariate_part_bounds(R2)
        assert b.b1 == pytest.approx(1 + 2 / math.sqrt(15) + 1 / 9, rel=1e-14)
        assert b.b2 == pytest.approx(1 + 5 / math.sqrt(15) + 4 / 9, rel=1e-14)
        assert b.b3 == b.b2
        assert b.b4 == pytest.approx(1 + 8 / math.sqrt(15) + 16 / 9, rel=1e-14)

    def test_bivariate_below_product_of_univariate(self):
        # the dedicated bivariate constants undercut the generic ones
        b = bivariate_part_bounds(R2)
        assert b.b1 < sign_pattern_bound(R2, 2, 2)
        assert b.b4 < sign_pattern_bound(R2, 2, 0)


class TestVerifyDecomposition:
    def test_monomial_plus_part(self):
        g = LaurentPoly(2, {(1, 1): 1.0})
        report = verify_decomposition_estimates(g, R2, which="bivariate")
        rows = {row.pattern.label(): row for row in report.rows}
        assert rows["++"].ratio == pytest.approx(1.0, abs=1e-6)
        assert rows["++"].bound == pytest.approx(bivariate_part_bounds(R2).b1)
        assert report.all_passed

    def test_inverse_monomial_minus_part(self):
        g = LaurentPoly(2, {(-1, -1): 1.0})
        report = verify_decomposition_estimates(g, R2, which="bivariate")
        rows = {row.pattern.label(): row for row in report.rows}
        assert rows["--"].ratio == pytest.approx(1.0, abs=1e-6)
        assert report.all_passed

    def test_bivariate_requires_two_variables(self):
        with pytest.raises(InputError):
            verify_decomposition_estimates(LaurentPoly(1, {(1,): 1.0}), R2, "bivariate")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_estimates_hold(self, n):
        count = 6 if n == 3 else 12
        for k in range(count):
            g = gen_laurent(n, 5, substream(40 + n, k))
            report = verify_decomposition_estimates(g, R2, which="general")
            assert report.all_passed

    def test_bivariate_random_estimates_hold(self):
        for k in range(12):
            g = gen_laurent(2, 6, substream(50, k))
            report = verify_decomposition_estimates(g, R2, which="bivariate")
            assert report.all_passed


class TestSignPatterns:
    def test_ordering_matches_part_numbering(self):
        labels = [p.label() for p in all_sign_patterns(2)]
        assert labels == ["++", "+-", "-+", "--"]

    def test_t_counts_plus_entries(self):
        patterns = {p.label(): p.t for p in all_sign_patterns(2)}
        assert patterns == {"++": 2, "+-": 1, "-+": 1, "--": 0}
