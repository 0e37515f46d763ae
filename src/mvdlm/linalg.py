"""Dense kernel for small symmetric positive definite matrices.

Everything is Cholesky based: a solve is two triangular solves against the
cached factor with :func:`numpy.linalg.solve`, log determinants are twice the
log of the factor diagonal, and inverses are never formed explicitly.
Diagonal matrices (degrees-of-freedom counts, observation masks) are carried
as 1-d arrays of their diagonal entries throughout the package; only full
symmetric matrices get a 2-d representation.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

__all__ = [
    "SpdMatrix",
    "as_spd",
    "cholesky_lower",
    "symmetrize",
]


def symmetrize(a) -> np.ndarray:
    """Return (A + A') / 2, for one square matrix or a stack of them.

    Exact fixed point for already-symmetric input; used after every composite
    product that is symmetric in exact arithmetic but not in floating point.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"symmetrize requires square matrices, got shape {a.shape}")
    return 0.5 * (a + a.swapaxes(-1, -2))


class SpdMatrix:
    """Symmetric positive definite matrix with its lower Cholesky factor cached.

    Construction symmetrizes the input and factorizes eagerly, so definiteness
    is checked up front and the factor is computed exactly once per matrix.
    """

    __slots__ = ("mat", "chol")

    def __init__(self, a):
        mat = symmetrize(a)
        try:
            chol = np.linalg.cholesky(mat)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(
                f"matrix of shape {mat.shape} is not positive definite"
            ) from exc
        self.mat = mat
        self.chol = chol

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def log_det(self) -> float:
        return float(2.0 * np.sum(np.log(np.diag(self.chol))))

    def solve(self, b) -> np.ndarray:
        """Solve A x = b via the cached factor: L' x = L^{-1} b."""
        return np.linalg.solve(self.chol.T, self.solve_half(b))

    def solve_half(self, b) -> np.ndarray:
        """Solve L y = b for the lower factor L.

        For B with matching row dimension, (solve_half(B).T @ solve_half(B))
        equals B' A^{-1} B, which keeps quadratic forms symmetric and
        non-negative by construction.
        """
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.dim:
            raise DimensionMismatch(
                f"cannot solve: matrix dim {self.dim}, right-hand side shape {b.shape}"
            )
        return np.linalg.solve(self.chol, b)

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.mat
        return self.mat.astype(dtype)

    def __repr__(self) -> str:
        return f"SpdMatrix(dim={self.dim})"


def as_spd(a) -> SpdMatrix:
    """Wrap ``a`` as an SpdMatrix, reusing an existing wrapper when possible."""
    if isinstance(a, SpdMatrix):
        return a
    return SpdMatrix(a)


def cholesky_lower(a) -> np.ndarray:
    """Lower-triangular L with L L' = A."""
    return as_spd(a).chol

