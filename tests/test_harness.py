import itertools

import numpy as np
import pytest

from qaspectral.annulus import AnnulusParams, membership
from qaspectral.errors import InputError
from qaspectral.harness import (
    ExperimentConfig,
    admissible_count,
    evaluate_sample,
    gen_laurent,
    gen_non_member,
    gen_qa_operator,
    gen_tuple,
    run_experiment,
    substream,
    write_report,
)
from qaspectral.linalg import adjoint, op_norm

R2 = AnnulusParams(2.0)


class TestGenerators:
    def test_operator_determinism(self):
        a = gen_qa_operator(4, R2, substream(5, 1))
        b = gen_qa_operator(4, R2, substream(5, 1))
        np.testing.assert_array_equal(a, b)

    def test_scalar_draw_in_range(self):
        T = gen_qa_operator(1, R2, substream(5, 2))
        assert 0.5 <= abs(T[0, 0]) <= 2.0

    def test_membership_by_construction(self):
        for k in range(30):
            rng = substream(6, k)
            T = gen_qa_operator(int(rng.integers(1, 7)), R2, rng)
            rep = membership(T, R2)
            assert rep.in_qa
            assert rep.min_defect_eig >= -1e-10 * R2.c_r

    def test_non_members_fail_clearly(self):
        for k in range(30):
            rng = substream(7, k)
            T = gen_non_member(int(rng.integers(1, 7)), R2, rng)
            rep = membership(T, R2)
            assert not rep.in_qa
            assert rep.routes_agree

    def test_pair_commutes_and_passes(self):
        for k in range(10):
            T = gen_tuple("commuting_pair", 2, 3, R2, substream(8, k))
            assert T.commutation_residual <= 1e-10
            assert all(membership(M, R2).in_qa for M in T)

    def test_pair_members_not_normal(self):
        # shared non-unitary similarity: generically non-normal members,
        # so the pair exercises more than the doubly commuting case
        found = False
        for k in range(5):
            T = gen_tuple("commuting_pair", 2, 3, R2, substream(9, k))
            for M in T:
                if op_norm(M @ adjoint(M) - adjoint(M) @ M) > 1e-6:
                    found = True
        assert found

    def test_doubly_commuting_adjoint_relation(self):
        T = gen_tuple("doubly_commuting", 2, 3, R2, substream(10, 0))
        assert T.dim == 9
        a = T[0] @ adjoint(T[1]) - adjoint(T[1]) @ T[0]
        assert op_norm(a) <= 1e-12

    def test_laurent_degree_budget(self):
        for k in range(20):
            g = gen_laurent(2, 5, substream(11, k))
            assert g.max_abs_degree <= 5
            assert not g.is_zero

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_admissible_count_matches_enumeration(self, n):
        for d in range(7):
            box = itertools.product(range(-d, d + 1), repeat=n)
            assert admissible_count(n, d) == sum(sum(map(abs, e)) <= d for e in box)

    @pytest.mark.parametrize("n, d", [(1, 0), (1, 1), (1, 2), (2, 1), (3, 0), (3, 1)])
    def test_capped_request_returns_every_exponent(self, n, d):
        every = {e for e in itertools.product(range(-d, d + 1), repeat=n) if sum(map(abs, e)) <= d}
        for k in range(5):
            g = gen_laurent(n, d, substream(12, 10 * k + n), n_terms=8)
            assert set(g.coeffs) == every


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig(r=2.0, seed=3, n_samples=4)
        again = ExperimentConfig.from_json_dict(cfg.as_json_dict())
        assert again == cfg

    def test_rejects_unknown_keys(self):
        with pytest.raises(InputError):
            ExperimentConfig.from_json_dict({"nope": 1})

    def test_rejects_inconsistent_mode(self):
        with pytest.raises(InputError):
            ExperimentConfig(mode="single", n_vars=2)


class TestExperiments:
    CFG = ExperimentConfig(
        r=2.0,
        seed=17,
        dims=(2, 3),
        degrees=(2, 4),
        n_samples=10,
        mode="single",
        n_vars=1,
        bound_kind="annulus",
    )

    def test_rows_are_pure_functions_of_config(self):
        row = evaluate_sample(self.CFG, 3)
        report = run_experiment(self.CFG)
        assert report.rows[3] == row

    def test_byte_identical_reports(self):
        a = run_experiment(self.CFG).as_json_bytes()
        b = run_experiment(self.CFG).as_json_bytes()
        assert a == b

    def test_worker_count_does_not_matter(self):
        a = run_experiment(self.CFG, workers=1).as_json_bytes()
        b = run_experiment(self.CFG, workers=3).as_json_bytes()
        assert a == b

    def test_all_samples_pass(self):
        report = run_experiment(self.CFG)
        assert report.pass_count == self.CFG.n_samples
        assert report.max_ratio <= 46 / 15

    def test_csv_shape(self, tmp_path):
        report = run_experiment(self.CFG)
        json_path, csv_path = write_report(report, tmp_path / "out")
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "sample_id,dim,degree,ratio,bound,margin"
        assert len(lines) == self.CFG.n_samples + 1
        assert json_path.read_bytes() == report.as_json_bytes()

    def test_pair_mode(self):
        cfg = ExperimentConfig(
            r=2.0,
            seed=5,
            dims=(2,),
            degrees=(2,),
            n_samples=3,
            mode="commuting_pair",
            n_vars=2,
            bound_kind="biannulus",
        )
        report = run_experiment(cfg)
        assert report.all_passed

    def test_dc_mode(self):
        cfg = ExperimentConfig(
            r=2.0,
            seed=5,
            dims=(2,),
            degrees=(2,),
            n_samples=3,
            mode="doubly_commuting",
            n_vars=2,
            bound_kind="polyannulus_dc",
        )
        report = run_experiment(cfg)
        assert report.all_passed
