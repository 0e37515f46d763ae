"""Covariance and forecast distributions with per-variable degrees of freedom.

The covariance family generalizes the inverted Wishart by replacing its scalar
degrees of freedom with a diagonal matrix N = diag(n_1, ..., n_p), one entry
per observed variable. For fixed N the reparameterization

    R = N^{1/2} S N^{1/2},        k = 2 v + tr(N) / p,

is a bijection onto the classical inverted Wishart parameters (R, k), so every
density, moment and sampler below collapses to the classical object when all
n_j are equal. The point of the diagonal form is conjugacy under matrix-normal
data in which different variables have accumulated different amounts of
information, e.g. because some variables were missing at some observation
times.

Conventions:

* a p x p covariance Sigma has scale S (p x p), degrees of freedom n (length-p
  vector holding the diagonal of N) and scalar v;
* matrix-normal data Y is r x p with row scale P (r x r) and column covariance
  Sigma (p x p), so vec(Y) has covariance kron(Sigma, P);
* all densities are returned in log space, since gamma-function and
  determinant powers overflow for moderately large degrees of freedom;
* a law may be a stack of laws, its fields sharing leading axes (S (..., p, p),
  n (..., p), v (...)). One formula computes over them, with its arguments on the
  same axes; one law is the stack of one. The samplers and :func:`diag_marginal_ig`
  take one law and reject a stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, MeanUndefined
from .linalg import _checked, _count, _log_det, _shaped, cholesky_lower, symmetrize

__all__ = [
    "IgParams",
    "MatrixNormalParams",
    "MiwParams",
    "MtParams",
    "diag_marginal_ig",
    "iw_log_density",
    "iw_to_miw",
    "log_multigamma",
    "matrix_normal_log_density",
    "miw_conditional_update",
    "miw_log_density",
    "miw_marginal_block",
    "miw_mean",
    "miw_to_iw",
    "mt_log_density",
    "sample_matrix_normal",
    "sample_miw",
]

_LOG_2 = math.log(2.0)
_LOG_PI = math.log(math.pi)
_LOG_2PI = math.log(2.0 * math.pi)
_lgamma = np.frompyfunc(math.lgamma, 1, 1)  # np.vectorize's ufunc, without its call cost


def log_multigamma(a, p: int):
    """Log of the p-variate gamma function, at a real a or at each of an array.

    Evaluated through the product-of-ordinary-gammas expansion
    ``pi^{p(p-1)/4} * prod_j Gamma(a + (1 - j)/2)`` for j = 1..p, which is
    finite exactly when a > (p - 1)/2.
    """
    p, a = _count(p, "dimension"), _shaped(a, ("...",), "a")
    if (a <= 0.5 * (p - 1)).any():
        raise DomainError(f"log_multigamma requires a > (p - 1)/2, got a={a}, p={p}")
    gammas = sum(_lgamma(a + 0.5 * (1.0 - j)) for j in range(1, p + 1))
    return np.asarray(0.25 * p * (p - 1) * _LOG_PI + gammas, dtype=float)[()]


def _sqrt_outer(n: np.ndarray) -> np.ndarray:
    # sqrt(n_i) sqrt(n_j) is exactly symmetric entrywise, so S * _sqrt_outer(n)
    # stays exactly symmetric whenever S is.
    s = np.sqrt(n)
    return s[..., :, None] * s[..., None, :]


def _checked_dof(n, v, shape: tuple) -> tuple[np.ndarray, np.ndarray | float]:
    """The dof n (``shape``: stack axes, then p) and scalars v (a float for one law) of
    p-variate laws, checked for finiteness, n_j > 0 and normalizability, 2 v + mean(n) > 2 p."""
    n, p = _checked(n, shape, "dof vector"), shape[-1]
    if not np.all(n > 0.0):
        raise DomainError("all degrees-of-freedom entries must be strictly positive")
    v = _checked(v, shape[:-1], "v")
    if (2.0 * v + n.sum(axis=-1) / p <= 2.0 * p).any():
        raise DomainError(
            f"normalizability requires 2v + mean(n) > 2p, got v={v}, mean(n)={n.mean()}, p={p}"
        )
    return n, v if v.ndim else float(v)


@dataclass(frozen=True, eq=False)
class MiwParams:
    """Covariance law parameters: scale S, per-variable dof n, scalar v.

    Normalizability requires every n_j > 0 and 2 v + sum(n)/p > 2 p, which the
    constructor enforces. ``v`` is kept general here; the filter carries the prior's v.
    """

    S: np.ndarray
    n: np.ndarray
    v: float

    def __post_init__(self):
        S = _shaped(self.S, ("...", "p", "p"), "scale")
        n, v = _checked_dof(self.n, self.v, S.shape[:-1])
        object.__setattr__(self, "S", symmetrize(S))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "v", v)

    @property
    def p(self) -> int:
        return self.S.shape[-1]

    @property
    def k(self):
        """Classical degrees of freedom of the equivalent inverted Wishart."""
        return 2.0 * self.v + self.n.sum(axis=-1) / self.p


def miw_to_iw(params: MiwParams) -> tuple[np.ndarray, float]:
    """Map (S, n, v) to the classical inverted Wishart parameters (R, k).

    R = N^{1/2} S N^{1/2} is exactly symmetric by construction.
    """
    return params.S * _sqrt_outer(params.n), params.k


def iw_to_miw(R: np.ndarray, k: float, n: np.ndarray) -> MiwParams:
    """Inverse of :func:`miw_to_iw` for a given dof vector n."""
    R = _shaped(R, ("...", "p", "p"), "scale")
    n = _shaped(n, R.shape[:-1], "dof vector")
    k = _shaped(k, R.shape[:-2], "k")
    n, v = _checked_dof(n, 0.5 * (k - n.sum(axis=-1) / R.shape[-1]), R.shape[:-1])
    return MiwParams(S=R / _sqrt_outer(n), n=n, v=v)


def iw_log_density(Sigma, R, k: float):
    """Log density of the inverted Wishart with scale R and degrees of freedom k.

    Density: c |R|^{(k-p-1)/2} |Sigma|^{-k/2} etr(-R Sigma^{-1} / 2), with
    1/c = 2^{(k-p-1)p/2} Gamma_p{(k-p-1)/2}; proper only for k > 2p. R and k
    carry the leading stack axes of Sigma.
    """
    Ls = cholesky_lower(Sigma)
    lead, p = Ls.shape[:-2], Ls.shape[-1]
    R = symmetrize(_shaped(R, lead + ("p", "p"), "scale"))
    Lr = cholesky_lower(R)
    if Lr.shape[-1] != p:
        raise DimensionMismatch(f"scale dim {Lr.shape[-1]} does not match argument dim {p}")
    k = _shaped(k, lead, "k")
    if (k <= 2.0 * p).any():
        raise DomainError(f"inverted Wishart requires k > 2p, got k={k}, p={p}")
    a = 0.5 * (k - p - 1.0)
    log_c = -(a * p * _LOG_2 + log_multigamma(a, p))
    trace_term = np.trace(np.linalg.solve(Ls.swapaxes(-1, -2), np.linalg.solve(Ls, R)), 0, -2, -1)
    return log_c + a * _log_det(Lr) - 0.5 * k * _log_det(Ls) - 0.5 * trace_term


def miw_log_density(Sigma, params: MiwParams):
    """Log density of Sigma under the per-variable-dof law.

    Equals the inverted Wishart log density at the mapped parameters (R, k).
    """
    R, k = miw_to_iw(params)
    return iw_log_density(Sigma, R, k)


def miw_mean(params: MiwParams) -> np.ndarray:
    """E(Sigma) = N^{1/2} S N^{1/2} / (mean(n) + 2v - 2p - 2).

    Defined only when the denominator is positive; raises MeanUndefined
    otherwise.
    """
    denom = params.k - 2.0 * params.p - 2.0
    if np.any(denom <= 0.0):
        raise MeanUndefined(
            f"mean requires mean(n) + 2v > 2p + 2, got mean(n)={params.n.mean()}, v={params.v}"
        )
    R, _ = miw_to_iw(params)
    return R / np.expand_dims(denom, (-2, -1))


@dataclass(frozen=True, eq=False)
class MatrixNormalParams:
    """Matrix-normal parameters: mean M (r x p), row scale P, column covariance Sigma."""

    M: np.ndarray
    P: np.ndarray
    Sigma: np.ndarray

    def __post_init__(self):
        M = _shaped(self.M, ("...", "r", "p"), "mean")
        lead, (r, p) = M.shape[:-2], M.shape[-2:]
        P = _shaped(self.P, lead + (r, r), "row scale")
        Sigma = _shaped(self.Sigma, lead + (p, p), "column covariance")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "P", symmetrize(P))
        object.__setattr__(self, "Sigma", symmetrize(Sigma))


def matrix_normal_log_density(Y, params: MatrixNormalParams):
    """Log density of the r x p matrix normal; vec(Y) ~ N(vec(M), kron(Sigma, P))."""
    Y = _shaped(Y, params.M.shape, "argument")
    r, p = params.M.shape[-2:]
    Lp = cholesky_lower(params.P)
    Ls = cholesky_lower(params.Sigma)
    W = np.linalg.solve(Ls, np.linalg.solve(Lp, Y - params.M).swapaxes(-1, -2))
    quad = np.sum(W * W, axis=(-2, -1))
    return -0.5 * (r * p * _LOG_2PI + p * _log_det(Lp) + r * _log_det(Ls) + quad)


def miw_conditional_update(m, P, params: MiwParams, Y) -> MiwParams:
    """Posterior covariance law after observing Y ~ matrix normal (m, P, Sigma).

    Each of the r rows of Y adds one degree of freedom per variable:
    n* = n + r, and the scaled scale accumulates the data quadratic form,
    N*^{1/2} S* N*^{1/2} = N^{1/2} S N^{1/2} + (Y - m)' P^{-1} (Y - m).
    """
    Y = _shaped(Y, params.n.shape[:-1] + ("r", params.p), "data")
    m = _shaped(m, Y.shape, "location")
    r = Y.shape[-2]
    L = cholesky_lower(_shaped(P, Y.shape[:-2] + ("r", "r"), "row scale"))
    if L.shape[-1] != r:
        raise DimensionMismatch(f"row scale dim {L.shape[-1]} does not match {r} data rows")
    Z = np.linalg.solve(L, Y - m)
    C = symmetrize(Z.swapaxes(-1, -2) @ Z)
    R0, _ = miw_to_iw(params)
    n_new = params.n + float(r)
    S_new = symmetrize((R0 + C) / _sqrt_outer(n_new))
    return MiwParams(S=S_new, n=n_new, v=params.v)


@dataclass(frozen=True, eq=False)
class MtParams:
    """Matrix-t forecast law: location f (r x p), row scale Q, and (S, n, v).

    This is the marginal of matrix-normal data whose column covariance follows
    the per-variable-dof law; (S, n, v) obey the same normalizability
    constraint as MiwParams.
    """

    f: np.ndarray
    Q: np.ndarray
    S: np.ndarray
    n: np.ndarray
    v: float

    def __post_init__(self):
        f = _shaped(self.f, ("...", "r", "p"), "location")
        lead, (r, p) = f.shape[:-2], f.shape[-2:]
        Q = _shaped(self.Q, lead + (r, r), "row scale")
        S = _shaped(self.S, lead + (p, p), "scale")
        n, v = _checked_dof(self.n, self.v, lead + (p,))
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "Q", symmetrize(Q))
        object.__setattr__(self, "S", symmetrize(S))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "v", v)


def mt_log_density(Y, params: MtParams):
    """Log density of the matrix-t law above, with kernel exponent built from r.

    With k = 2v - 2p + sum(n)/p the density is

        c |N^{1/2} S N^{1/2} + (Y - f)' Q^{-1} (Y - f)|^{-(k + r + p - 1)/2},
        c = Gamma_p{(k+r+p-1)/2} (|S| prod_j n_j)^{(k+p-1)/2} |Q|^{-p/2}
            / (pi^{rp/2} Gamma_p{(k+p-1)/2}),

    which makes Bayes' rule exact against the matrix-normal likelihood and the
    conjugate prior/posterior pair.
    """
    Y = _shaped(Y, params.f.shape, "argument")
    r, p = params.f.shape[-2:]
    k = 2.0 * params.v - 2.0 * p + params.n.sum(axis=-1) / p
    a1 = 0.5 * (k + r + p - 1.0)
    a0 = 0.5 * (k + p - 1.0)
    Lq = cholesky_lower(params.Q)
    Z = np.linalg.solve(Lq, Y - params.f)
    inner = params.S * _sqrt_outer(params.n) + symmetrize(Z.swapaxes(-1, -2) @ Z)
    log_det_r0 = _log_det(cholesky_lower(params.S)) + np.log(params.n).sum(axis=-1)
    log_c = (
        log_multigamma(a1, p)
        - log_multigamma(a0, p)
        - 0.5 * r * p * _LOG_PI
        + a0 * log_det_r0
        - 0.5 * p * _log_det(Lq)
    )
    return log_c - a1 * _log_det(cholesky_lower(inner))


def miw_marginal_block(params: MiwParams, q: int) -> MiwParams:
    """Law of the leading q x q block of Sigma.

    The block keeps its own scale block and dof entries; the scalar adjusts to
    v1 = v - p + q + sum(n)/(2p) - sum(n_1..n_q)/(2q). For q = p this is the
    identity map.
    """
    p, q = params.p, _count(q, "block size")
    if q > p:
        raise DomainError(f"block size must satisfy 1 <= q <= p, got q={q}, p={p}")
    if q == p:
        return params
    n_head = params.n[..., :q]
    v1 = params.v - p + q + params.n.sum(axis=-1) / (2.0 * p) - n_head.sum(axis=-1) / (2.0 * q)
    return MiwParams(S=params.S[..., :q, :q], n=n_head, v=v1)


@dataclass(frozen=True)
class IgParams:
    """Inverted gamma parameters: density proportional to x^{-shape-1} exp(-scale/x)."""

    shape: float
    scale: float

    def __post_init__(self):
        for name in ("shape", "scale"):
            object.__setattr__(self, name, float(_checked(getattr(self, name), (), name)))
        if self.shape <= 0.0 or self.scale <= 0.0:
            raise DomainError(
                f"inverted gamma requires positive parameters, got shape={self.shape}, scale={self.scale}"
            )


def diag_marginal_ig(params: MiwParams, index: int) -> IgParams:
    """Marginal law of the diagonal entry sigma_{jj} (0-based index).

    The 1 x 1 block marginal is an inverted gamma with shape
    v + sum(n)/(2p) - p (independent of the entry) and scale n_j s_jj / 2.
    """
    p, index = params.p, _count(index, "index", least=0)
    if index >= p:
        raise DomainError(f"index must satisfy 0 <= index < {p}, got {index}")
    shape = params.v + params.n.sum(axis=-1) / (2.0 * p) - p
    scale = 0.5 * params.n[..., index] * params.S[..., index, index]
    return IgParams(shape=shape, scale=scale)


def sample_miw(params: MiwParams, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw Sigma from the per-variable-dof law.

    Uses the classical inverted Wishart at the mapped parameters (R, k), with
    Wishart degrees of freedom df = k - p - 1, by the Bartlett decomposition
    (Smith & Hocking, Applied Statistics 1972): B is lower triangular with
    standard normals below the diagonal and B_ii^2 ~ chi-square(df - p + i)
    for 1-based i, and Sigma = (C B^{-1})(C B^{-1})' with C = chol(R). All the
    normals are drawn first, then all the chi-squares. Returns (p, p) for
    size=None, else (size, p, p).
    """
    p = _shaped(params.n, ("p",), "the sampled law's dof vector").size
    R, k = miw_to_iw(params)
    df = k - p - 1.0
    m = 1 if size is None else _count(size, "size")
    B = np.zeros((m, p, p))
    rows, cols = np.tril_indices(p, -1)
    B[:, rows, cols] = rng.normal(size=(m, rows.size))
    diag = np.arange(p)
    B[:, diag, diag] = rng.chisquare(df - p + 1.0 + diag, size=(m, p)) ** 0.5
    # X' = (C B^{-1})' solves B' X' = C'
    Xt = np.linalg.solve(B.transpose(0, 2, 1), np.broadcast_to(cholesky_lower(R).T, B.shape))
    draws = symmetrize(Xt.transpose(0, 2, 1) @ Xt)
    return draws[0] if size is None else draws


def sample_matrix_normal(
    params: MatrixNormalParams, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Draw Y = M + L_P Z L_Sigma' with Z iid standard normal.

    Returns (r, p) for size=None, else (size, r, p).
    """
    r, p = _shaped(params.M, ("r", "p"), "the sampled law's mean").shape
    Lp = cholesky_lower(params.P)
    Ls = cholesky_lower(params.Sigma)
    m = 1 if size is None else _count(size, "size")
    draws = params.M + Lp @ rng.standard_normal((m, r, p)) @ Ls.T
    return draws[0] if size is None else draws
