"""The numeric-input rule, and symmetric-matrix helpers.

:func:`_real` and :func:`_shaped` read every array and real scalar that the
package takes (:func:`_checked` adds finiteness, :func:`_count` reads counts):
what numpy reads as real numbers becomes float64, anything else is a
:class:`DimensionMismatch`, never NaN (missing) or 1.0. They live here, as
every other module imports this one.

:func:`symmetrize` and :func:`cholesky_lower` serve :mod:`mvdlm.distributions`,
which solves against the lower Cholesky factor and takes log determinants
from its diagonal (``_log_det``); no inverse is formed. ``_corr`` turns a
stack of covariance scales into correlations. The filter's numpy loop, its
V check and its Q checks call LAPACK's solve and Cholesky gufuncs directly.
Diagonal matrices (dof counts, observation masks) are carried as 1-d arrays
of their diagonal entries.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DimensionMismatch, DomainError, NotPositiveDefinite

__all__ = ["cholesky_lower", "symmetrize"]


def _count(value, name: str, least: int = 1) -> int:
    """``value`` as an int, if it is an integral real >= ``least`` (0 or 1), not a truth value."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or value < least
            or not (isinstance(value, numbers.Integral) or float(value).is_integer())):
        kind = "positive" if least else "non-negative"
        raise DomainError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def _real(value, shape: tuple, name: str, dtype=float) -> np.ndarray:
    """``value`` as a float array if numpy reads it as real numbers (dtype kind
    f, i or u; truth values, kind b, for ``dtype=bool``), else :class:`DimensionMismatch`
    naming ``shape``: None, text, complex numbers, dicts, ints beyond (u)int64 and
    ragged lists."""
    kinds, kind = ("b", "truth value") if dtype is bool else ("fiu", "real number")
    try:
        a = np.asarray(value)
        if a.dtype.kind in kinds:
            return a.astype(dtype, copy=False)
        reason = f"numpy reads them as {a.dtype}"
    except (TypeError, ValueError) as exc:
        reason = str(exc)
    form = " x ".join(map(str, shape)) + f" array of {kind}s" if shape else kind
    raise DimensionMismatch(f"{name}: the values do not form a {form} ({reason})")


def _shaped(value, shape: tuple, name: str, dtype=float) -> np.ndarray:
    """``value`` by :func:`_real`, if its shape is ``shape``: lengths and axis
    names, a name taking any length, the same wherever it repeats, and a
    leading ``"..."`` taking any number of leading (stack) axes. Every array
    and real scalar that the package takes is read by these two."""
    a = _real(value, shape, name, dtype)
    if shape[:1] == ("...",):
        shape = a.shape[:max(a.ndim - len(shape) + 1, 0)] + shape[1:]
    lengths = dict(zip(shape, a.shape))
    if a.shape != tuple(lengths.get(k) if isinstance(k, str) else k for k in shape):
        dims = str(shape).replace("'", "")
        raise DimensionMismatch(f"{name} must have shape {dims}, got {a.shape}")
    return a


def _checked(value, shape: tuple, name: str) -> np.ndarray:
    """``value`` by :func:`_shaped`, if every entry is finite."""
    m = _shaped(value, shape, name)
    if not np.isfinite(m).all():
        raise DomainError(f"{name} must be finite")
    return m


@np.errstate(over="ignore")
def symmetrize(a) -> np.ndarray:
    """Return (A + A') / 2, for one square matrix or a stack of them.

    Exact fixed point for already-symmetric input, subnormal entries
    included; the distributions and :func:`cholesky_lower` apply it to
    matrices that are symmetric in exact arithmetic but not in floating
    point. Where A + A' overflows, the entry is A/2 + A'/2, finite for finite
    entries. The filter's covariance stages do not call it: they symmetrize
    their R, Q and P rows themselves.
    """
    a = _shaped(a, ("...", "p", "p"), "matrix")
    at = a.swapaxes(-1, -2)
    s = 0.5 * (a + at)
    if np.isfinite(s).all():
        return s
    return np.where(np.isfinite(s), s, 0.5 * a + 0.5 * at)


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


def _log_det(chol: np.ndarray) -> np.ndarray:
    """log |A| from the lower Cholesky factor of A, for one matrix or a stack."""
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
