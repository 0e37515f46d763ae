"""Independent reference implementations used to cross-check the package.

Everything in this module is written from first principles using only numpy,
scipy and the standard library — nothing here imports the package under test. Tests compare
package output against these oracles (and against literals frozen from them)
so that agreement is meaningful evidence rather than a tautology.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

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
    must agree bit for bit. Z is solved one step at a time by forward
    substitution: row i is e_i minus L_ij z_j for j = 0, 1, ..., i - 1 in
    turn, divided by L_ii.
    """
    T, r, p = e.shape
    n_all = np.vstack([n0, n])
    sn = np.sqrt(n_all)
    upd = (n_all[1:] != n_all[:-1]).any(axis=1)
    wprod = observed.all(axis=1)
    Z = np.zeros((T, r, p))
    for t in np.flatnonzero(upd):
        L, z = np.linalg.cholesky(Q[t]), e[t].copy()
        for i in range(r):
            for j in range(i):
                z[i] = z[i] - L[i, j] * z[j]
            z[i] = z[i] / L[i, i]
        Z[t] = z * wprod[t]
    S = np.einsum("tki,tkj->tij", Z, Z)
    S[0] += S0 * np.outer(sn[0], sn[0])
    S = np.cumsum(S, axis=0)
    k0 = int(upd.argmax()) if upd.any() else T
    S[:k0] = S0
    for j in range(p):
        S[k0:, j] /= sn[k0 + 1:, j, None] * sn[k0 + 1:]
    return S


# ---------------------------------------------------------------------------
# Dense vec-form Kalman filter at a known column covariance
# ---------------------------------------------------------------------------

def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(a, b_s) for every matrix b_s of a stack b (S x c x e)."""
    prod = a[None, :, None, :, None] * b[:, None, :, None, :]
    return prod.reshape(len(b), a.shape[0] * b.shape[1], a.shape[1] * b.shape[2])


def vec_kalman_loglik(y, F, G, V, sigmas, m0, P0, W=None, delta=None) -> np.ndarray:
    """log p(y_t | y_{1:t-1}, Sigma) for every step t and every Sigma of a
    stack (S x p x p), returned as S x T.

    Model: Y_t = F_t' Theta_t + E_t and Theta_t = G_t Theta_{t-1} + O_t, with
    Y_t r x p and Theta_t d x p. The state is x = vec(Theta), the rows of
    Theta concatenated, so Cov(vec E_t) = kron(V_t, Sigma), Cov(vec O_t) =
    kron(W_t, Sigma), Theta_t = G Theta -> x = kron(G, I_p) x, and
    F' Theta -> kron(F', I_p) x. The filter carries the full dp x dp
    covariance C from C_0 = kron(P0, Sigma) and never assumes a Kronecker
    form after that; under a discount the evolved covariance is
    kron(G, I) C kron(G, I)' / delta. The entries of y_t that are NaN are
    left out of the step, and a step with none observed contributes 0 and
    does not update. y is T x r x p; F, G, V and W are T-stacks.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    T, r, p = y.shape
    n_sigma, eye = len(sigmas), np.eye(p)
    x = np.tile(np.asarray(m0, dtype=float).ravel(), (n_sigma, 1))
    C = _kron_stack(np.asarray(P0, dtype=float), sigmas)
    out = np.zeros((n_sigma, T))
    for t in range(T):
        Gx = np.kron(G[t], eye)
        x = x @ Gx.T
        C = Gx @ C @ Gx.T
        C = C / delta if W is None else C + _kron_stack(W[t], sigmas)
        yt = y[t].ravel()
        obs = ~np.isnan(yt)
        if not obs.any():
            continue
        H = np.kron(F[t].T, eye)[obs]
        HC = H @ C
        Qv = HC @ H.T + _kron_stack(V[t], sigmas)[:, obs][:, :, obs]
        e = yt[obs] - x @ H.T
        L = np.linalg.cholesky(Qv)
        z = np.linalg.solve(L, e[..., None])[..., 0]
        log_det = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
        out[:, t] = -0.5 * (obs.sum() * math.log(2.0 * math.pi) + log_det + (z * z).sum(axis=1))
        K = np.linalg.solve(Qv, HC).swapaxes(1, 2)
        x = x + (K @ e[..., None])[..., 0]
        C = C - K @ HC
        C = 0.5 * (C + C.swapaxes(1, 2))
    return out


# ---------------------------------------------------------------------------
# Exact rational filter
# ---------------------------------------------------------------------------

def _exact(a):
    """A float array as nested lists of the Fractions its entries equal exactly."""
    a = np.asarray(a, dtype=float)
    return [_exact(x) for x in a] if a.ndim else Fraction(float(a))


def _mm(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def _tr(a):
    return [list(col) for col in zip(*a)]


def _sub(a, b, s=1):
    """a - s b, elementwise."""
    return [[x - s * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _sym(a, c=2):
    """(a + a') / c."""
    return [[(x + y) / c for x, y in zip(ra, rb)] for ra, rb in zip(a, _tr(a))]


def _inv(a):
    """Inverse by Gauss-Jordan elimination; ZeroDivisionError if singular."""
    n = len(a)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for i in range(n):
        pivot = next((k for k in range(i, n) if rows[k][i] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        rows[i], rows[pivot] = rows[pivot], rows[i]
        rows[i] = [x / rows[i][i] for x in rows[i]]
        for k in range(n):
            if k != i and rows[k][i] != 0:
                rows[k] = [x - rows[k][i] * y for x, y in zip(rows[k], rows[i])]
    return [row[n:] for row in rows]


def _sqrt(x: Fraction) -> Fraction:
    root = Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))
    if root * root != x:
        raise ValueError(f"{x} has no rational square root")
    return root


def exact_filter(F, G, V, y, m0, P0, S0, n0, mode, W=None, delta=None) -> dict:
    """The filter recursion of one series in one mode (``"new"`` or
    ``"classical"``), in exact rational arithmetic on the exact values of the
    float inputs.

    F, G, V and W are T-stacks; exactly one of W and the discount ``delta``
    is given. y is T x r x p with NaN at the missing entries. Each step
    forms a = G m, R = sym(G P G' + W) or sym(G P G')/delta, f = F'a,
    Q = sym(F'RF + V), A = R F Q^{-1}, and e = y - f at the observed entries
    (0 elsewhere). A step updates when something is observed (new) or all
    is (classical). Then, with w the variables observed in every replicate
    and u = |w|/p (1 in classical mode), m = a + A e_w, P = R - u A Q A',
    each n_j grows by the count of observed entries of variable j, and the
    scale N^{1/2} S N^{1/2} grows by e_w' Q^{-1} e_w, which needs no square
    root; e_w is e with the columns outside w set to 0. A step that does not
    update keeps m = a, P = R, n and the scale. The start N0^{1/2} S0 N0^{1/2}
    needs each n0_j to be the square of a rational.

    Returns lists over the T steps: a, R, f, Q, A, e, m and P as nested lists
    of Fractions, n as lists, and SN, the scale N^{1/2} S N^{1/2}.
    """
    if mode not in ("new", "classical"):
        raise ValueError(f"unknown mode {mode!r}")
    F, G, V, y = (np.asarray(x, dtype=float) for x in (F, G, V, y))
    T, r, p = y.shape
    m, P, n = _exact(m0), _exact(P0), _exact(n0)
    root = [_sqrt(x) for x in n]
    SN = [[s * root[i] * root[j] for j, s in enumerate(row)] for i, row in enumerate(_exact(S0))]
    c = 2 if delta is None else 2 * _exact(delta)
    out = {name: [] for name in ("a", "R", "f", "Q", "A", "e", "m", "P", "n", "SN")}
    for t in range(T):
        Ft, Gt = _exact(F[t]), _exact(G[t])
        a = _mm(Gt, m)
        X = _mm(_mm(Gt, P), _tr(Gt))
        if W is not None:
            X = _sub(X, _exact(W[t]), -1)
        R = _sym(X, c)
        f = _mm(_tr(Ft), a)
        RF = _mm(R, Ft)
        Q = _sym(_sub(_mm(_tr(Ft), RF), _exact(V[t]), -1))
        Qinv = _inv(Q)
        A = _mm(RF, Qinv)
        observed = ~np.isnan(y[t])
        yt = _exact(np.where(observed, y[t], 0.0))
        e = [[yt[k][j] - f[k][j] if observed[k, j] else Fraction(0) for j in range(p)]
             for k in range(r)]
        update = observed.any() if mode == "new" else observed.all()
        if update:
            w = observed.all(axis=0)
            e_w = [[x if w[j] else Fraction(0) for j, x in enumerate(row)] for row in e]
            m = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, _mm(A, e_w))]
            P = _sym(_sub(R, _mm(_mm(A, Q), _tr(A)), Fraction(int(w.sum()), p)))
            n = [x + int(k) for x, k in zip(n, observed.sum(axis=0))]
            SN = [[x + y for x, y in zip(ra, rb)]
                  for ra, rb in zip(SN, _mm(_mm(_tr(e_w), Qinv), e_w))]
        else:
            m, P = a, R
        for name, value in zip(out, (a, R, f, Q, A, e, m, P, list(n), SN)):
            out[name].append(value)
    return out


# ---------------------------------------------------------------------------
# The mean recursion, one step at a time
# ---------------------------------------------------------------------------

def sequential_means(Fs, Gs, A, m, y, obs_cols, gain) -> tuple[np.ndarray, ...]:
    """The mean records a, f, e and m of every step and mode (T x K x ...),
    one step at a time, from the inputs the filter's mean pass takes.

    Reads F and G as T-stacks, the gains A (T x K x d x r), the prior mean m
    (d x p), the M series ``y`` side by side as column blocks (T x r x M p),
    their mask ``obs_cols`` (T x r x M p) and ``gain`` (T x K x 1 x M p),
    the columns each mode moves. Each step runs a = G m, f = F'a, e = y - f
    (0 at a missing entry) and m = a + A e over the columns that ``gain``
    marks.
    """
    (T, r, Mp), (d, p), K = y.shape, m.shape, A.shape[1]
    a_t, f_t, e_t, m_t = (np.zeros((T, K, n, Mp)) for n in (d, r, r, d))
    m = np.tile(m, (K, 1, Mp // p))
    for k in range(T):
        a, f, e = a_t[k], f_t[k], e_t[k]
        np.matmul(Gs[k], m, out=a)
        np.matmul(Fs[k].T, a, out=f)
        np.subtract(y[k], f, out=e, where=obs_cols[k])
        m = np.matmul(A[k], np.where(gain[k], e, 0.0), out=m_t[k])
        m += a
    return a_t, f_t, e_t, m_t
