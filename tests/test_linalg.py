import numpy as np
import pytest

from qaspectral.errors import InputError, ResourceError
from qaspectral.linalg import (
    as_matrix,
    kron,
    load_matrix,
    matrix_power,
    op_norm,
    save_matrix,
)


def power_iteration_norm(M, iters=2000, seed=0):
    """Independent oracle: power iteration on M*M gives ||M||^2."""
    rng = np.random.default_rng(seed)
    A = np.asarray(M, dtype=complex)
    H = A.conj().T @ A
    v = rng.normal(size=A.shape[0]) + 1j * rng.normal(size=A.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = H @ v
        lam = np.linalg.norm(w)
        v = w / lam
    return np.sqrt(lam)


class TestOpNorm:
    def test_diagonal(self):
        assert op_norm(np.diag([2.0, 0.5])) == pytest.approx(2.0)

    def test_nilpotent(self):
        assert op_norm([[0, 2], [0, 0]]) == pytest.approx(2.0)

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(42)
        M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert op_norm(M) == pytest.approx(power_iteration_norm(M), rel=1e-8)

    def test_zero_iff_zero_matrix(self):
        assert op_norm(np.zeros((3, 3))) == 0.0
        assert op_norm([[1e-300]]) > 0.0

    def test_unitary_has_norm_one(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        Q, _ = np.linalg.qr(A)
        assert op_norm(Q.conj().T @ Q - np.eye(5)) < 1e-12
        assert op_norm(Q) == pytest.approx(1.0, rel=1e-8)

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            op_norm([[np.inf, 0], [0, 1]])

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            as_matrix(np.ones((2, 3)))


class TestKron:
    def test_diagonal(self):
        K = kron(np.diag([2.0, 1.0]), np.diag([3.0, 1.0]))
        np.testing.assert_allclose(K, np.diag([6.0, 2.0, 3.0, 1.0]))
        assert op_norm(K) == pytest.approx(6.0)

    def test_identity_block_structure(self):
        B = np.array([[1.0, 2.0], [3.0, 4.0]])
        K = kron(np.eye(2), B)
        np.testing.assert_allclose(K[:2, :2], B)
        np.testing.assert_allclose(K[2:, 2:], B)
        np.testing.assert_allclose(K[:2, 2:], 0)

    def test_norm_multiplicative_against_svd(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        N = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        direct = np.linalg.svd(np.kron(M, N), compute_uv=False)[0]
        assert op_norm(kron(M, N)) == pytest.approx(direct, rel=1e-12)
        assert op_norm(kron(M, N)) == pytest.approx(op_norm(M) * op_norm(N), rel=1e-8)

    def test_dimension_cap(self):
        with pytest.raises(ResourceError):
            kron(np.eye(100), np.eye(100))


class TestMatrixPower:
    def test_negative_power(self):
        M = np.diag([2.0, 4.0])
        np.testing.assert_allclose(matrix_power(M, -2), np.diag([0.25, 1 / 16]))

    def test_zero_power(self):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(3, 3))
        np.testing.assert_allclose(matrix_power(M, 0), np.eye(3))


class TestMatrixIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        path = tmp_path / "m.json"
        save_matrix(path, M)
        np.testing.assert_allclose(load_matrix(path), M)

    def test_rejects_non_square_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "entries": [[[1, 0], [0, 0]]]}')
        with pytest.raises(InputError):
            load_matrix(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(InputError):
            load_matrix(path)
