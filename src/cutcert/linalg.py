"""Dense symmetric spectra.

A cyclic Jacobi rotation scheme provides the eigenvalues of the small dense
symmetric matrices this toolkit works with (adjacency, Laplacian, and
all-ones combinations of order at most a few hundred). Fiedler values sit on
top of it; the tests use it as an independent oracle for the structural
smallness certificates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SWEEP_TOL = 1e-12
MAX_SWEEPS = 100


class JacobiConvergenceError(RuntimeError):
    """Jacobi sweeps hit the iteration cap with off-diagonal mass remaining."""

    def __init__(self, off_norm: float, sweeps: int):
        super().__init__(
            f"no convergence after {sweeps} sweeps, off-diagonal norm {off_norm:.3e}"
        )
        self.off_norm = off_norm
        self.sweeps = sweeps


def check_symmetric(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():  # an inf would turn the rotations into NaN
        raise ValueError("matrix has a non-finite entry")
    if not np.array_equal(M, M.T):
        raise ValueError("matrix is not symmetric")
    return M


@dataclass(frozen=True)
class EigenResult:
    """Full spectrum, eigenvalues ascending."""

    values: np.ndarray


def _off_norm(A: np.ndarray) -> float:
    # subtracting squared norms here would cancel catastrophically
    off = A - np.diag(np.diag(A))
    return float(np.linalg.norm(off))


def eigen_all(M: np.ndarray) -> EigenResult:
    """Eigenvalues of a symmetric matrix, by cyclic Jacobi rotations.

    Converged when the off-diagonal Frobenius norm drops below
    DEFAULT_SWEEP_TOL times the Frobenius norm of the input; raises
    JacobiConvergenceError after MAX_SWEEPS sweeps otherwise.
    """
    A = check_symmetric(M).copy()
    n = A.shape[0]
    fro = float(np.linalg.norm(A))
    for sweep in range(MAX_SWEEPS):
        if _off_norm(A) <= DEFAULT_SWEEP_TOL * fro:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                # rotate columns p, q then rows p, q
                col_p = A[:, p].copy()
                col_q = A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                row_p = A[p, :].copy()
                row_q = A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                A[p, q] = 0.0
                A[q, p] = 0.0
    else:
        raise JacobiConvergenceError(_off_norm(A), MAX_SWEEPS)

    return EigenResult(np.sort(np.diag(A), kind="stable"))


def quadratic_form(M: np.ndarray, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    M = np.asarray(M, dtype=float)
    if M.shape != (x.size, x.size):
        raise ValueError(f"dimension mismatch: matrix {M.shape}, vector {x.shape}")
    return float(x @ M @ x)

