import math

import numpy as np
import pytest

from cutcert import graphs
from cutcert.linalg import (
    check_symmetric,
    eigen_all,
    quadratic_form,
)


def random_symmetric(rng, n, scale=1.0):
    A = rng.normal(scale=scale, size=(n, n))
    return (A + A.T) / 2.0


def psd_by_complete_pivoting(M, tol=1e-9):
    """Independent PSD oracle: pivoted elimination, no negative pivot allowed."""
    A = np.array(M, dtype=float)
    n = A.shape[0]
    for _ in range(n):
        d = np.diag(A)
        i = int(np.argmax(d))
        if d[i] < -tol:
            return False
        if d[i] <= tol:
            # all remaining diagonal is ~0; PSD forces the rest to vanish
            return bool(np.abs(A).max() <= 1e-7)
        A = A - np.outer(A[:, i], A[:, i]) / d[i]
        A[i, :] = 0.0
        A[:, i] = 0.0
    return True


PSD_TOL = 1e-9


def spectrum_psd(M):
    """PSD iff the smallest eigenvalue is at least -PSD_TOL."""
    return bool(eigen_all(M).values[0] >= -PSD_TOL)


class TestEigenAll:
    def test_identity(self):
        res = eigen_all(np.eye(3))
        assert np.allclose(res.values, [1, 1, 1])

    def test_all_ones_rank_one(self):
        res = eigen_all(np.ones((4, 4)))
        assert np.allclose(res.values, [0, 0, 0, 4], atol=1e-10)

    def test_p3_adjacency_spectrum(self):
        # characteristic polynomial x^3 - 2x
        res = eigen_all(graphs.path(3).adjacency_matrix())
        assert np.allclose(res.values, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-10)

    def test_matches_lapack_spectrum(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = rng.integers(2, 9)
            M = random_symmetric(rng, n, scale=3.0)
            values = eigen_all(M).values
            expected = np.linalg.eigvalsh(M)
            assert np.abs(values - expected).max() <= 1e-9 * max(np.linalg.norm(M), 1.0)

    def test_trace_and_frobenius_identities(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = rng.integers(1, 9)
            M = random_symmetric(rng, n)
            values = eigen_all(M).values
            assert values.sum() == pytest.approx(np.trace(M), abs=1e-9)
            assert (values**2).sum() == pytest.approx(np.linalg.norm(M) ** 2, abs=1e-9)

    def test_spectrum_permutation_invariant(self):
        rng = np.random.default_rng(5)
        M = random_symmetric(rng, 6)
        perm = rng.permutation(6)
        P = np.eye(6)[perm]
        assert np.allclose(eigen_all(M).values, eigen_all(P @ M @ P.T).values, atol=1e-9)

    @pytest.mark.parametrize("M", [np.zeros((k, k)) for k in range(4)] + [np.array([[-2.5]])],
                             ids=["zero0", "zero1", "zero2", "zero3", "one-by-one"])
    def test_diagonal_input_returned_exactly(self, M):
        assert np.array_equal(eigen_all(M).values, np.diag(M))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigen_all(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_symmetry_is_exact(self):
        with pytest.raises(ValueError, match="symmetric"):
            check_symmetric(np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]]))

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 1, 1)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            check_symmetric(np.zeros(shape))

    @pytest.mark.parametrize("M", [np.diag([np.inf, 1.0]), np.diag([1.0, -np.inf]),
                                   np.array([[0.0, np.inf], [np.inf, 0.0]]),
                                   np.array([[1.0, -np.inf], [-np.inf, 1.0]]),
                                   np.array([[np.inf]]), np.array([[np.nan]]),
                                   np.array([[0.0, np.nan], [np.nan, 0.0]])],
                             ids=["inf-diag", "-inf-diag", "inf-off", "-inf-off", "inf-1x1",
                                  "nan-1x1", "nan-off"])
    def test_rejects_non_finite_before_the_solver(self, monkeypatch, M):
        def no_solver(A):
            raise AssertionError("the solver started")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_solver)
        with pytest.raises(ValueError, match="non-finite"):
            eigen_all(M)


class TestPsdFromSpectrum:
    def test_zero_matrix(self):
        assert spectrum_psd(np.zeros((3, 3)))

    def test_indefinite_diag(self):
        assert eigen_all(np.diag([1.0, -1.0])).values.tolist() == [-1.0, 1.0]
        assert not spectrum_psd(np.diag([1.0, -1.0]))

    def test_half_j_minus_k2(self):
        M = graphs.complete(2).adjacency_matrix()
        X = 0.5 * np.ones((2, 2)) - M
        assert np.allclose(eigen_all(X).values, [0.0, 1.0], atol=1e-10)
        assert spectrum_psd(X)

    def test_agrees_with_pivoting_oracle(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 100:
            n = int(rng.integers(1, 7))
            kind = checked % 3
            if kind == 0:
                B = rng.normal(size=(n, n))
                M = B @ B.T + 0.1 * np.eye(n)  # clearly PD
            elif kind == 1:
                B = rng.normal(size=(max(n - 1, 1), n))
                M = B.T @ B  # PSD, usually singular
            else:
                M = random_symmetric(rng, n)
                if eigen_all(M).values[0] > -1e-3:
                    continue  # want an unambiguously indefinite sample
            assert spectrum_psd(M) == psd_by_complete_pivoting(M)
            checked += 1


class TestQuadraticForm:
    def test_k2(self):
        assert quadratic_form(graphs.complete(2).adjacency_matrix(), [1.0, 1.0]) == 2.0

    def test_all_ones_is_square_of_sum(self):
        assert quadratic_form(np.ones((3, 3)), [1.0, 1.0, 1.0]) == 9.0

    def test_path_laplacian(self):
        L = graphs.path(3).laplacian_matrix()
        assert quadratic_form(L, [1.0, 0.0, -1.0]) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            quadratic_form(np.eye(3), [1.0, 2.0])

