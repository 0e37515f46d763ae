"""Independent reference implementations used to cross-check the package.

Everything in this module is written from first principles using only numpy
and scipy — nothing here imports the package under test. Tests compare
package output against these oracles (and against literals frozen from them)
so that agreement is meaningful evidence rather than a tautology.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, stats
from scipy.special import multigammaln


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def det_cofactor(a: np.ndarray) -> float:
    """Determinant by recursive cofactor (Laplace) expansion. O(n!) — only
    for tiny matrices, as a from-scratch check on factorization-based code."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    rest = a[1:]
    for j in range(n):
        minor = np.delete(rest, j, axis=1)
        total += ((-1.0) ** j) * a[0, j] * det_cofactor(minor)
    return total


# ---------------------------------------------------------------------------
# Densities in the plain inverted-Wishart parameterization
# ---------------------------------------------------------------------------

def iw_logpdf(sigma: np.ndarray, R: np.ndarray, k: float) -> float:
    """Closed-form log density of the inverted Wishart with normalizing
    constant written directly: c^{-1} = 2^{(k-p-1)p/2} Gamma_p((k-p-1)/2),
    density c |R|^{(k-p-1)/2} |Sigma|^{-k/2} etr(-R Sigma^{-1}/2)."""
    sigma = np.asarray(sigma, dtype=float)
    R = np.asarray(R, dtype=float)
    p = sigma.shape[0]
    a = 0.5 * (k - p - 1.0)
    sign_r, logdet_r = np.linalg.slogdet(R)
    sign_s, logdet_s = np.linalg.slogdet(sigma)
    assert sign_r > 0 and sign_s > 0
    log_c = -(a * p * math.log(2.0) + multigammaln(a, p))
    trace_term = float(np.trace(np.linalg.solve(sigma, R)))
    return log_c + a * logdet_r - 0.5 * k * logdet_s - 0.5 * trace_term


def ig_logpdf(x: float, shape: float, rate: float) -> float:
    """Inverted-gamma log density with a *rate* parameter (scipy takes scale
    = rate for invgamma)."""
    return float(stats.invgamma.logpdf(x, a=shape, scale=rate))


def matrix_normal_logpdf(x: np.ndarray, mean: np.ndarray, rowcov: np.ndarray,
                         colcov: np.ndarray) -> float:
    """Matrix-normal density evaluated through the equivalent multivariate
    normal on the row-major flattening: cov = kron(rowcov, colcov)."""
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    cov = np.kron(rowcov, colcov)
    return float(stats.multivariate_normal.logpdf(x.ravel(), mean.ravel(), cov))


def student_t_logpdf(y, df, loc, scale):
    """Student-t log density; broadcasts over array arguments."""
    return stats.t.logpdf(y, df=df, loc=loc, scale=scale)


def quad_unit_mass(logpdf, lo: float, hi: float, **kw) -> float:
    """Integrate exp(logpdf) over (lo, hi)."""
    val, _err = integrate.quad(lambda x: math.exp(logpdf(x)), lo, hi, **kw)
    return val


# ---------------------------------------------------------------------------
# Independent scalar (univariate) DLM with variance learning
# ---------------------------------------------------------------------------

@dataclass
class ScalarDlmResult:
    f: list = field(default_factory=list)
    q: list = field(default_factory=list)
    e: list = field(default_factory=list)
    m: list = field(default_factory=list)
    p: list = field(default_factory=list)
    s: list = field(default_factory=list)
    n: list = field(default_factory=list)
    std_err: list = field(default_factory=list)


def scalar_dlm_filter(y, observed, v, m0, p0, s0, n0,
                      delta=None, w=None) -> ScalarDlmResult:
    """Univariate local-level DLM with unknown observation scale, written
    directly from the standard one-dimensional recursions.

    Model: y_t = theta_t + eps_t, eps_t ~ N(0, v * sigma2);
           theta_t = theta_{t-1} + omega_t, omega_t ~ N(0, w_t * sigma2).
    Scale-free recursions (sigma2 factors out of m, p, q):
        a = m,  r = p/delta  (or p + w),  f = a,  q = r + v,
        e = y - f,  A = r/q,
        m <- a + A e u,  p <- r - A^2 q u,
        n <- n + u,  n s <- n s + u e^2/q
    with u = 1 when y_t is observed and u = 0 otherwise (the update is then
    skipped entirely and prior moments carry forward).
    """
    m, p, s, n = float(m0), float(p0), float(s0), float(n0)
    out = ScalarDlmResult()
    for t in range(len(y)):
        r = p / delta if delta is not None else p + w
        f = m
        q = r + v
        u = 1.0 if observed[t] else 0.0
        e = (y[t] - f) if observed[t] else 0.0
        A = r / q
        s_prior = s
        m = m + A * e * u
        p = r - A * A * q * u
        n_new = n + u
        s = (n * s + u * e * e / q) / n_new
        n = n_new
        out.f.append(f)
        out.q.append(q)
        out.e.append(e if observed[t] else math.nan)
        out.m.append(m)
        out.p.append(p)
        out.s.append(s)
        out.n.append(n)
        out.std_err.append(e / math.sqrt(q * s_prior) if observed[t] else math.nan)
    return out


def scalar_msse(result: ScalarDlmResult) -> float:
    vals = [z * z for z in result.std_err if not math.isnan(z)]
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# Posterior scale stack of a filter run, from its records
# ---------------------------------------------------------------------------

def s_stack(e, Q, observed, n, S0, n0) -> np.ndarray:
    """Posterior scales S_t (T x p x p) of a one-series run, rebuilt from its
    residuals e (T x r x p), forecast scales Q, mask, dof n and prior (S0, n0).

    With nn_t = outer(sqrt(n_t), sqrt(n_t)) and C_t = Z'Z, Z = L^{-1} e on the
    variables observed in every replicate (L the Cholesky factor of Q_t, Z = 0
    at a step that does not update), S_t = (S0 nn_0 + C_1 + ... + C_t) / nn_t,
    and S_t = S0 before the first update. A step updates exactly when it moves
    n. This is the cumulative-sum form, one np.cumsum and one division per
    variable, with the same operations in the same order as the filter, so it
    must agree bit for bit.
    """
    T, r, p = e.shape
    n_all = np.vstack([n0, n])
    sn = np.sqrt(n_all)
    upd = (n_all[1:] != n_all[:-1]).any(axis=1)
    wprod = observed.all(axis=1)
    Z = np.zeros((T, r, p))
    Z[upd] = np.linalg.solve(np.linalg.cholesky(Q[upd]), e[upd]) * wprod[upd, None]
    S = np.einsum("tki,tkj->tij", Z, Z)
    S[0] += S0 * np.outer(sn[0], sn[0])
    S = np.cumsum(S, axis=0)
    k0 = int(upd.argmax()) if upd.any() else T
    S[:k0] = S0
    for j in range(p):
        S[k0:, j] /= sn[k0 + 1:, j, None] * sn[k0 + 1:]
    return S
