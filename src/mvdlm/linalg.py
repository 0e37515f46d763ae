"""Symmetric-matrix helpers for the distributions, and the correlation of a scale.

:func:`symmetrize` and :func:`cholesky_lower` serve :mod:`mvdlm.distributions`:
its densities, sampler and conditional update solve against the lower
Cholesky factor and take log determinants as twice the log of its diagonal
(``_log_det``); no inverse is formed. ``_corr`` turns a stack of covariance
scales into correlations, for the filter's records and summaries. The
filter's step loop and checks do not use this module: :mod:`mvdlm.dlm` calls
LAPACK's solve and Cholesky gufuncs directly. Diagonal matrices (degrees-of-
freedom counts, observation masks) are carried as 1-d arrays of their
diagonal entries throughout the package.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

__all__ = ["cholesky_lower", "symmetrize"]


def symmetrize(a) -> np.ndarray:
    """Return (A + A') / 2, for one square matrix or a stack of them.

    Exact fixed point for already-symmetric input; the distributions and
    :func:`cholesky_lower` apply it to matrices that are symmetric in exact
    arithmetic but not in floating point. The filter's step loop does not
    call it: it writes this average into its Q and P rows in place.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"symmetrize requires square matrices, got shape {a.shape}")
    return 0.5 * (a + a.swapaxes(-1, -2))


@np.errstate(all="ignore")
def _corr(S: np.ndarray, i, j) -> np.ndarray:
    """S_ij / (sd_i sd_j), sd = sqrt(diag S), for a stack of scales S (... x p
    x p); i and j may be index arrays. NaN or inf where S has overflowed."""
    sd = np.sqrt(np.diagonal(S, axis1=-2, axis2=-1))
    return S[..., i, j] / (sd[..., i] * sd[..., j])


def cholesky_lower(a) -> np.ndarray:
    """Lower-triangular L with L L' = (A + A') / 2.

    For B with matching row count, Z = solve(L, B) gives Z' Z = B' A^{-1} B,
    which keeps quadratic forms symmetric and non-negative by construction.
    """
    mat = symmetrize(a)
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix of shape {mat.shape} is not positive definite") from exc


def _log_det(chol: np.ndarray) -> float:
    """log |A| from the lower Cholesky factor of A."""
    return float(2.0 * np.sum(np.log(np.diag(chol))))
