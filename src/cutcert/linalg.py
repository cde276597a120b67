"""Dense symmetric spectra.

LAPACK, through `np.linalg.eigvalsh`, provides the eigenvalues of the dense
symmetric matrices this toolkit works with (adjacency, Laplacian, and
all-ones combinations). Fiedler values sit on top of it; the tests use it as
an independent oracle for the structural smallness certificates. The input
check is exact, since LAPACK reads only one triangle.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np


def check_symmetric(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix has a non-finite entry")
    if not np.array_equal(M, M.T):
        raise ValueError("matrix is not symmetric")
    return M


class EigenResult(NamedTuple):
    """Full spectrum, eigenvalues ascending."""

    values: np.ndarray


def eigen_all(M: np.ndarray) -> EigenResult:
    """Eigenvalues of a symmetric matrix, ascending, from LAPACK.

    A LAPACK non-convergence raises `numpy.linalg.LinAlgError`, a ValueError.
    """
    return EigenResult(np.linalg.eigvalsh(check_symmetric(M)))


def quadratic_form(M: np.ndarray, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    M = np.asarray(M, dtype=float)
    if M.shape != (x.size, x.size):
        raise ValueError(f"dimension mismatch: matrix {M.shape}, vector {x.shape}")
    return float(x @ M @ x)
