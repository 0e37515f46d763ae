"""Sequential filtering for matrix-variate dynamic linear models.

The model at each time t is

    Y_t = F_t' Theta_t + E_t,        rows of Y_t are r replicate observations
    Theta_t = G_t Theta_{t-1} + O_t, state is d x p,

with E_t matrix normal (0, V_t, Sigma), O_t matrix normal (0, W_t, Sigma), and
Sigma carrying the per-variable degrees-of-freedom covariance law from
:mod:`mvdlm.distributions`. Conjugacy gives one closed-form recursion over
(m, P, S, n): the one-step prior (a, R), the forecast (f, Q) with gain A, and
the posterior update. The private ``_run`` runs it for M series that share a
missing-data mask, in one or both update modes, as six stages: the mask
schedule, the covariance pass, the mean scan, the checks, the dof and
whitened residuals (S is built from them when read), and the standardized
errors. :func:`filter` is the case of one series in one mode; the
replication study runs all its replications in both modes in one pass.

The covariance part of the recursion (R, Q, A, P) depends on the model and
the mask, not on the data, so one pass computes it for all steps and modes
first. With at most two replicate rows (r <= 2) and a state of at most two
rows (d <= 2) that pass runs on Python floats, where numpy's per-call cost
would outweigh the arithmetic; at any other (d, r) it runs in numpy. Neither
pass raises: one rule on Q's Cholesky factor, read after them, fails a model
at the same step in both.

With the gains known, the mean step is affine in each column, so a blocked
prefix scan runs a, f, e and m (Blelloch, "Prefix sums and their
applications", CMU-CS-90-190, 1990; Särkkä and García-Fernández, "Temporal
parallelization of Bayesian smoothers", IEEE TAC 66(1), 2021): blocks of
floor(sqrt(T)) steps, in about 2 sqrt(T) batched numpy steps instead of T.

Missing data are handled by one masked update: each observed variable
updates its own degrees-of-freedom entry, while a variable missing from the
observation keeps its column of the mean and its dof entry. The state scale P
is shared by all variables, so it shrinks by the fraction u of a full update
for the missing ones too. The classical alternative (``mode="classical"``) is
the same update with an all-or-nothing mask: it discards the entire
observation whenever any entry is missing.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from struct import Struct
from typing import Union

import numpy as np
# the LAPACK gufuncs behind np.linalg.solve and cholesky, without their Python wrappers
from numpy.linalg import _umath_linalg

from .distributions import MiwParams, MtParams
from .errors import ConfigError, DimensionMismatch, DomainError, FilterError, MvdlmError
from .linalg import _checked, _corr, _count, _real, _shaped

__all__ = [
    "FilterOutput",
    "MaskedObservation",
    "ModelSpec",
    "NmiwState",
    "correlation_estimate",
    "filter",
    "msse",
]

MatrixProvider = Union[np.ndarray, Callable[[int], np.ndarray]]

# the update modes that _run takes
_MODES = ("new", "classical")


@dataclass(eq=False)
class ModelSpec:
    """Model dimensions and per-time design inputs.

    F, G, V (and W, when explicit) may be constant arrays or callables mapping
    the 1-based time index to an array. A constant is converted, shape-checked
    and finite-checked here, once; a callable is evaluated for every step of a
    filter run, and its values are checked at the run's entry, before the
    first step. Exactly one of ``W`` and ``discount`` must be given: an explicit
    evolution scale, or a discount factor delta in (0, 1] that sets
    W_t = (1 - delta)/delta * G P_{t-1} G', i.e. R_t = G P_{t-1} G' / delta.
    """

    d: int
    p: int
    r: int
    F: MatrixProvider
    G: MatrixProvider
    V: MatrixProvider
    W: MatrixProvider | None = None
    discount: float | None = None

    def __post_init__(self):
        self.d, self.p, self.r = (_count(getattr(self, name), name) for name in "dpr")
        if (self.W is None) == (self.discount is None):
            raise ConfigError(
                "exactly one of an explicit evolution scale W and a discount factor must be given",
                section="model",
            )
        if self.discount is not None:
            delta = float(_shaped(self.discount, (), "discount"))
            if not 0.0 < delta <= 1.0:
                raise DomainError(f"discount factor must lie in (0, 1], got {delta}")
            self.discount = delta
        for name in ("F", "G", "V", "W"):
            value = getattr(self, name)
            if value is not None and not callable(value):
                setattr(self, name, _checked(value, self._shape(name), name))

    def _shape(self, name: str) -> tuple[int, int]:
        d, r = self.d, self.r
        return {"F": (d, r), "G": (d, d), "V": (r, r), "W": (d, d)}[name]

    def _stack(self, name: str, T: int) -> np.ndarray | None:
        """Input ``name`` for t = 1..T as one T-stack.

        A callable is evaluated for every t and its values are checked
        together; only if that check fails, or a value is read as bool, are
        they checked one by one. Its first malformed, non-finite or bool
        value, or the :class:`MvdlmError` it raises, whichever comes at the
        earlier t, is raised as a :class:`FilterError` at that t.
        """
        value, shape = getattr(self, name), self._shape(name)
        if not callable(value):
            return None if value is None else np.broadcast_to(value, (T,) + shape)
        values, failure = [], None
        for t in range(1, T + 1):
            try:
                values.append(value(t))
            except MvdlmError as exc:
                failure = (t, exc)
                break
        try:
            # numpy reads a bool value stacked with float values as floats
            if np.dtype(bool) not in set(map(operator.attrgetter("dtype"), map(np.asarray, values))):
                return _checked(values, (T,) + shape, name)
        except (MvdlmError, TypeError, ValueError):
            pass
        for t, v in enumerate(values, start=1):
            try:
                _checked(v, shape, f"{name} at t={t}")
            except MvdlmError as exc:
                raise FilterError(str(exc), t=t) from exc
        t, exc = failure
        raise FilterError(str(exc), t=t) from exc


@dataclass(frozen=True, eq=False)
class NmiwState:
    """Conjugate state: mean m (d x p), row scale P (d x d), covariance law miw."""

    m: np.ndarray
    P: np.ndarray
    miw: MiwParams

    def __post_init__(self):
        m = _shaped(self.m, ("d", "p"), "state mean")
        d, p = m.shape
        P = _shaped(self.P, (d, d), "state scale")
        if self.miw.S.shape != (p, p):
            raise DimensionMismatch(
                f"covariance law of scale shape {self.miw.S.shape} does not match state columns {p}"
            )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "P", P)

    @property
    def d(self) -> int:
        return self.m.shape[0]

    @property
    def p(self) -> int:
        return self.m.shape[1]


@dataclass(frozen=True, eq=False)
class MaskedObservation:
    """r x p observation with an entrywise observed/missing mask.

    ``y`` is the observation as :func:`filter` reads it: the given values at
    the observed entries and NaN wherever ``observed`` is False, whatever was
    given there; ``observed`` holds truth values. Row k is replicate k, column
    j is variable j. As an array it is ``y``, so a list of them is a T x r x p
    input to :func:`filter`.
    """

    y: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        y = _shaped(self.y, ("r", "p"), "observation")
        observed = _shaped(self.observed, y.shape, "mask", dtype=bool)
        if not np.all(np.isfinite(y[observed])):
            raise DomainError("observed entries must be finite")
        object.__setattr__(self, "y", np.where(observed, y, np.nan))
        object.__setattr__(self, "observed", observed)

    @classmethod
    def from_values(cls, values) -> "MaskedObservation":
        """Build from an r x p array in which missing entries are NaN.

        Only NaN means missing; an infinite entry counts as observed and is
        rejected by the finiteness check.
        """
        values = _real(values, ("r", "p"), "observation")
        return cls(y=values, observed=~np.isnan(values))

    def __array__(self, dtype=None, copy=None):
        return self.y.astype(self.y.dtype if dtype is None else dtype, copy=bool(copy))


def correlation_estimate(state: NmiwState, i: int, j: int) -> float:
    """Correlation implied by the posterior scale: S_ij / (sd_i sd_j), sd = sqrt(diag S)."""
    S = state.miw.S
    p = S.shape[0]
    i, j = _count(i, "i", least=0), _count(j, "j", least=0)
    if not (i < p and j < p):
        raise DomainError(f"indices must lie in [0, {p}), got i={i}, j={j}")
    if i == j:
        raise DomainError("correlation_estimate requires two distinct variables")
    if S[i, i] <= 0.0 or S[j, j] <= 0.0:
        raise DomainError("scale diagonal must be strictly positive")
    return float(_corr(S, i, j))


class _StepView(Sequence):
    """Read-only sequence over time steps that builds each item on access (a
    slice gives a tuple of them)."""

    def __init__(self, T: int, build: Callable[[int], object]):
        self._T = T
        self._build = build

    def __len__(self) -> int:
        return self._T

    def __getitem__(self, t):
        if isinstance(t, slice):
            return tuple(self._build(k) for k in range(*t.indices(self._T)))
        t = operator.index(t)
        if t < 0:
            t += self._T
        if not 0 <= t < self._T:
            raise IndexError(f"time index out of range for {self._T} steps")
        return self._build(t)


@dataclass(eq=False)
class FilterOutput:
    """Filter records stacked over time (leading axis T).

    Priors (a, R), forecasts (f, Q, A), masked residuals e (missing entries
    0), standardized errors (NaN where missing), observation masks, the
    posterior moments m (T x d x p), P (T x d x d), S (T x p x p) and n
    (T x p). S is built by ``_S`` on first read and kept. ``states`` views them
    per step, read-only, and ``marginals`` is the T forecast laws as one law,
    also built on first read and kept.
    """

    mode: str
    prior: NmiwState
    a: np.ndarray
    R: np.ndarray
    f: np.ndarray
    Q: np.ndarray
    A: np.ndarray
    e: np.ndarray
    std_err: np.ndarray
    observed: np.ndarray
    m: np.ndarray
    P: np.ndarray
    n: np.ndarray
    _S: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def S(self) -> np.ndarray:
        S = self._S()
        # from here on S alone is kept, not the stack or residuals it came from
        self._S = partial(np.asarray, S)
        return S

    def __getstate__(self) -> dict:
        # pickle and deepcopy take S itself: reading it first sets the _S they take
        return {"S": self.S, **self.__dict__}

    @property
    def T(self) -> int:
        return self.f.shape[0]

    @property
    def states(self) -> Sequence[NmiwState]:
        """Posterior state after each step."""
        v = self.prior.miw.v
        return _StepView(
            self.T,
            lambda t: NmiwState(
                m=self.m[t], P=self.P[t], miw=MiwParams(S=self.S[t], n=self.n[t], v=v)
            ),
        )

    @cached_property
    def marginals(self) -> MtParams:
        """Matrix-t forecast laws of the T steps, as one law of T-stacks: f, Q
        and the previous posterior's S and n (the prior's at the first step)."""
        miw = self.prior.miw
        return MtParams(f=self.f, Q=self.Q, S=np.concatenate([miw.S[None], self.S[:-1]]),
                        n=np.concatenate([miw.n[None], self.n[:-1]]), v=np.full(self.T, miw.v))


def filter(
    model: ModelSpec,
    data: np.ndarray | Sequence,
    prior: NmiwState,
    mode: str = "new",
) -> FilterOutput:
    """Run the forward filter over a T x r x p observation array.

    ``data`` is such an array with NaN at the missing entries, or a list of
    r x p arrays or of :class:`MaskedObservation`, under the rule that
    :func:`_observations` states; r and p are the model's. Each step
    computes the one-step prior a = G m, R = sym(G P G')/delta (or
    sym(G P G' + W) with an explicit W), the forecast f = F'a with scale
    Q = sym(F'RF + V) and gain A = R F Q^{-1}, and the masked update.
    ``mode="new"`` applies the per-variable masked update;
    ``mode="classical"`` discards any observation with a missing entry.
    Model inputs that are malformed or not finite, a forecast scale Q that is
    not finite or not positive definite, and a residual e that is not finite at
    an updating step are raised as :class:`FilterError` with the failing
    1-based time index.
    """
    return _series_output(_run(model, prior, _observations(data)[None], (mode,)), 0, 0)


def _observations(values) -> np.ndarray:
    """``values`` as a T x r x p float array with NaN at the missing entries:
    the observation rule of :func:`filter` and ``cli.write_csv``. Checked in
    this order: numpy reads it as real numbers (:func:`_real`), and each step
    of a list or tuple too, T >= 1, the shape, and no entry infinite."""
    y = _real(values, ("T", "r", "p"), "observations")
    if isinstance(values, (list, tuple)):
        # numpy reads a bool step stacked with float steps as floats
        for t, step in enumerate(values, start=1):
            if not isinstance(step, MaskedObservation) and np.asarray(step).dtype == bool:
                raise DimensionMismatch(f"observations: step {t} is read as bool, not real numbers")
    if y.shape[:1] == (0,):
        raise DomainError("observations must contain at least one step")
    y = _shaped(y, ("T", "r", "p"), "observations")
    if np.isinf(y).any():
        raise DomainError("observations must be finite or NaN (missing), got ±inf")
    return y


_STEP_FAILURES = ("forecast scale Q is not finite", "forecast scale Q is not positive definite",
                  "forecast residual e is not finite")

# c of _check's rule, Q not positive definite where a pivot ratio L_ii^2 / Q_ii <= c eps.
# Cholesky's backward error, gamma_{r+1} ~ (r + 1) eps / 2 of Q's scale (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., ch. 10), is covered up to r = 127. The digest
# models that run have ratios >= 761 eps; V_LU_SINGULAR, rank 1 but factored, has 1.56 eps.
_PIVOT_C = 64


# The steps after a failure compute on values that may overflow and are never
# returned; the checks after the passes report the failure, not a warning.
@np.errstate(all="ignore")
def _run(model: ModelSpec, prior: NmiwState, y: np.ndarray, modes: tuple[str, ...]) -> dict:
    """Filter M series that share one missing-data mask in K modes, all in
    one pass; :func:`filter` is the case M = 1, K = 1.

    ``y`` is M x T x r x p with NaN at the missing entries, the same in every
    series (the mask is read from the first), and no entry infinite. After
    the checks of ``y``'s r, p and T against the model, the modes and the
    prior, the model inputs are stacked, F before G before V before W, and
    then the stages run: the mean records come from :func:`_scan`, a
    blocked scan over the steps whose records equal the step-by-step
    recursion's up to rounding.

    Returns one record dict whose arrays carry the modes as their leading
    K axis, then time: a, R, f, Q, A, e, std_err, m, P and n; beside them S,
    which builds the K x T x M x p x p stack on its first call and keeps it,
    the mask ``observed`` (T x r x p), ``modes`` and ``prior``.
    :func:`_series_output` takes one run out of it.
    """
    d, p, r = model.d, model.p, model.r
    M, T, y_r, y_p = y.shape
    if (y_r, y_p) != (r, p):
        raise DimensionMismatch(f"data has r={y_r}, p={y_p} but the model declares r={r}, p={p}")
    if T == 0:
        raise DomainError("observations must contain at least one step")
    for mode in modes:
        if mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}, got {mode!r}")
    if prior.d != d or prior.p != p:
        raise DimensionMismatch(
            f"prior has shape ({prior.d}, {prior.p}), model declares ({d}, {p})"
        )
    S0, n0 = prior.miw.S, prior.miw.n
    if not all(np.isfinite(x).all() for x in (prior.m, prior.P, S0, n0, prior.miw.v)):
        raise DomainError("prior m, P, S, n and v must be finite")
    inputs = [model._stack(name, T) for name in "FGVW"]
    observed = ~np.isnan(y[0])
    update, u, gain, wcols, obs_cols = _schedule(observed, modes, M)
    y = y.transpose(1, 2, 0, 3).reshape(T, r, M * p)
    covariance = _covariance_small if r <= 2 and d <= 2 else _covariance_numpy
    rows = dict(zip("RQAP", covariance(*inputs, 2.0 * (model.discount or 1.0), prior.P, u)))
    rows.update(zip("afem", _scan(*inputs[:2], rows["A"], prior.m, y, obs_cols, gain)))
    rec = {name: row.swapaxes(0, 1) for name, row in rows.items()}
    chol = _check(rec["Q"], rec["e"], update.T)
    n, Z = _scale(chol, rec["e"], update.T, wcols, observed, n0)
    sn, started = np.sqrt(n), np.logical_or.accumulate(update.T, axis=1)
    rec.update(n=n[:, 1:], S=cache(partial(_stack, Z, sn, started, S0)),
               std_err=_standardize(rec["e"], rec["Q"], Z, sn, started, S0, obs_cols),
               observed=observed, modes=modes, prior=prior)
    return rec


def _schedule(observed: np.ndarray, modes: tuple[str, ...], M: int) -> tuple[np.ndarray, ...]:
    """``update, u, gain, wcols, obs_cols`` for every step and mode, read from
    the T x r x p mask that M series share.

    ``update`` (T x K) is False at a step with nothing observed, and in
    classical mode at a step with any missing entry. A variable moves its
    mean column and adds to S only when it is observed in every replicate:
    ``wcols`` (T x M p) marks such columns in every series, and ``gain``
    (T x K x 1 x M p) those that a mode moves. The shared P takes the fraction
    ``u`` (T x K x 1 x 1) of a full update, 0 where a mode does not update;
    ``obs_cols`` (T x r x M p) is the mask of every series.
    """
    some, every = observed.any(axis=(1, 2)), observed.all(axis=(1, 2))
    update = np.stack([some if mode == "new" else every for mode in modes], axis=1)
    wprod = observed.all(axis=1)
    wcols = np.tile(wprod, (1, M))
    u = np.where(update, wprod.mean(axis=1, keepdims=True), 0.0)[:, :, None, None]
    gain = update[:, :, None, None] & wcols[:, None, None, :]
    return update, u, gain, wcols, np.tile(observed, (1, 1, M))


def _scan(Fs, Gs, A, m, y, obs_cols, gain) -> tuple[np.ndarray, ...]:
    """The mean records a, f, e and m of every step and mode, each time-major
    (T x K x ...), by a blocked two-pass scan.

    Reads F and G as T-stacks, the gains A (T x K x d x r) of a covariance
    pass, the prior mean m0, the schedule, and the M series ``y`` side by
    side as column blocks (T x r x M p): a and m are d x (M p) and f and e
    are r x (M p) per mode. A step runs a = G m, f = F'a, e = y - f (0 at a
    missing entry) and m = a + A e over the columns that ``gain`` marks.
    With the gains known, that step is affine in each column, and affine
    maps compose, so the recursion is a prefix scan (Blelloch, "Prefix sums
    and their applications", CMU-CS-90-190, 1990; Särkkä and
    García-Fernández, "Temporal parallelization of Bayesian smoothers", IEEE
    TAC 66(1), 2021).

    The T steps form B = ceil(T / L) blocks of L = floor(sqrt(T)) steps, the
    last padded with G = I, F = 0, A = 0 and no gain, and each of the
    passes below runs all its blocks in one batched call per step: about
    2 sqrt(T) batched steps in place of T.

    - Pass 1: every block but the last runs from m0 beside its response H
      to the start: d more columns per column, from I, with y = 0 and the
      same gain.
    - The carry: one loop over the blocks, start_{b+1} = x_b +
      H_b (start_b - m0) per column, from the block ends x_b and H_b alone.
      For a series at the prior mean's fixed point every block ends at m0
      exactly, so start - m0 is exactly 0 and every residual stays 0.
    - Pass 2: every block runs again from its start, by the step itself,
      into the records. So a column that a mode does not move keeps m == a
      bit for bit.
    """
    (T, r, Mp), (d, p), K = y.shape, m.shape, A.shape[1]
    L = math.isqrt(T)
    B = -(-T // L)

    def blocks(x, fill):
        # x padded to B L steps in its memory layout (the bits of A e depend
        # on A's), as B x L x ...
        pad = np.broadcast_to(fill, (B * L - T,) + x.shape[1:])
        out = np.concatenate([x, pad], out=np.empty_like(x, shape=(B * L,) + x.shape[1:]))
        return out.reshape((B, L) + x.shape[1:])

    # contiguous F and G: empty_like would put a constant's broadcast T axis last
    Fs, Gs = (np.ascontiguousarray(X) for X in (Fs, Gs))
    Fs, Gs, A = blocks(Fs, 0.0), blocks(Gs, np.eye(d)), blocks(A, 0.0)
    y, gain = blocks(y, 0.0), blocks(gain, False)
    Ft = Fs.swapaxes(2, 3)[:, :, None]
    m0 = np.tile(m, (K, 1, Mp // p))

    # pass 1: x beside H, whose d columns for mean column j start at Mp + j d
    x = np.concatenate([np.broadcast_to(m0, (B - 1, K, d, Mp)),
                        np.broadcast_to(np.tile(np.eye(d), Mp), (B - 1, K, d, Mp * d))], axis=3)
    gain_xh = np.concatenate([gain[:-1], np.repeat(gain[:-1], d, axis=4)], axis=4)
    for k in range(L):
        a = np.matmul(Gs[:-1, k, None], x)
        e = np.negative(np.matmul(Ft[:-1, k], a))
        e[..., :Mp] += y[:-1, k, None]
        x = np.matmul(A[:-1, k], np.where(gain_xh[:, k], e, 0.0))
        x += a
    H = x[..., Mp:].reshape(B - 1, K, d, Mp, d)
    start = np.empty((B, K, d, Mp))
    start[0] = m0
    for b in range(B - 1):
        start[b + 1] = x[b, ..., :Mp] + np.einsum("kijl,klj->kij", H[b], start[b] - m0)

    # pass 2: the records, written in place; e is filled once at the end
    a_t, f_t, m_t = (np.empty((B, L, K, n, Mp)) for n in (d, r, d))
    m = start
    for k in range(L):
        a = np.matmul(Gs[:, k, None], m, out=a_t[:, k])
        f = np.matmul(Ft[:, k], a, out=f_t[:, k])
        # gain marks observed entries only, where y - f is e; where(gain, ., 0)
        # keeps a residual out of every mean that does not update with it, so
        # it fails only a mode that does
        m = np.matmul(A[:, k], np.where(gain[:, k], y[:, k, None] - f, 0.0), out=m_t[:, k])
        m += a
    a_t, f_t, m_t = (X.reshape((B * L,) + X.shape[2:])[:T] for X in (a_t, f_t, m_t))
    e_t = np.zeros(f_t.shape)
    np.subtract(y.reshape((B * L, r, Mp))[:T, None], f_t, out=e_t, where=obs_cols[:, None])
    return a_t, f_t, e_t, m_t


def _covariance_numpy(Fs, Gs, Vs, Ws, c, P, u) -> tuple[np.ndarray, ...]:
    """R, Q, A and P (T x K x ...) of every step and mode at any (d, r), from
    the model inputs as T-stacks (``Ws`` is None under a discount), the prior
    P and u (T x K x 1 x 1).

    Each step runs R = (X + X')/c, X = G P G' (+ W), c = 2 delta (2 with W:
    the bits of the average over delta unless (X + X')/2 is subnormal),
    Q = sym(F'RF + V), A from one call of LAPACK's solve gufunc (the bits of
    np.linalg.solve) and P = sym(R - u A Q A') on the K-stack of modes.
    """
    (T, d, r), K = Fs.shape, u.shape[1]
    R_t, Q_t, P_t = (np.zeros((T, K, n, n)) for n in (d, r, d))
    # A' as the solve leaves it: the mean pass reads A in this transposed
    # layout, whose rounding of A e a contiguous A does not reproduce at r >= 2
    At_t = np.zeros((T, K, r, d))
    P = np.tile(P, (K, 1, 1))
    for k in range(T):
        F, G = Fs[k], Gs[k]
        GPG = G @ P @ G.T
        if Ws is not None:
            GPG += Ws[k]
        R = np.add(GPG, GPG.swapaxes(1, 2), out=R_t[k])
        R /= c
        RF = R @ F
        FRF = F.T @ RF
        FRF += Vs[k]
        Q = np.add(FRF, FRF.swapaxes(1, 2), out=Q_t[k])
        Q *= 0.5
        A = _umath_linalg.solve(Q, RF.swapaxes(1, 2), out=At_t[k]).swapaxes(1, 2)
        AQA = A @ Q @ A.swapaxes(1, 2)
        AQA *= u[k]
        np.subtract(R, AQA, out=AQA)
        P = np.add(AQA, AQA.swapaxes(1, 2), out=P_t[k])
        P *= 0.5
    return R_t, Q_t, At_t.swapaxes(2, 3), P_t


def _covariance_small(Fs, Gs, Vs, Ws, c, P, u) -> tuple[np.ndarray, ...]:
    """R, Q, A and P (T x K x ...) of every step and mode at r <= 2 and d <= 2,
    from the model inputs as T-stacks, the prior P and u (T x K x 1 x 1).

    The recursion of :func:`_covariance_numpy`, written out on Python
    floats: at these sizes a numpy call costs more than its arithmetic. Every
    model runs as d = r = 2. A d = 1 model has zeros in the second row and
    column of F, G, W and P, and an r = 1 model a zero second column of F and
    V[1, 1] = 1; the padding stays exactly 0 (a NaN there follows an overflow
    at a step that fails either way), so the records are those of the smaller
    recursion, and at r = 1 the gain is RF / Q. The gain solves Q A' = (RF)'
    by LAPACK getf2's 2 x 2 LU: partial pivoting, the multiplier taken as
    other * (1 / pivot). The gain is NaN at a zero or NaN pivot and where the
    unswapped pivot q00 is not positive, so no Python division by 0 raises.
    """
    (T, d, r), K = Fs.shape, u.shape[1]
    # F, V, G and W of every step, each padded to 2 x 2 in one array
    inputs = np.zeros((T, 4, 2, 2))
    inputs[:, 1] = np.eye(2)
    for k, X in enumerate([Fs, Vs, Gs, Ws]):
        if X is not None:
            inputs[:, k, :X.shape[1], :X.shape[2]] = X
    rows, record, nan = np.empty((K, T, 16)), Struct("16d"), float("nan")
    for row, u_mode in zip(rows, u.reshape(T, K).T.tolist()):
        p00, p01, p10, p11 = np.pad(P, [(0, 2 - d)] * 2).ravel().tolist()
        steps = zip(range(0, row.nbytes, record.size),
                    map(np.ndarray.tolist, inputs.reshape(T, 16)), u_mode)
        for at, step, u_t in steps:
            f00, f01, f10, f11, v00, v01, v10, v11, g00, g01, g10, g11, w00, w01, w10, w11 = step
            gp00, gp01 = g00 * p00 + g01 * p10, g00 * p01 + g01 * p11
            gp10, gp11 = g10 * p00 + g11 * p10, g10 * p01 + g11 * p11
            x00 = gp00 * g00 + gp01 * g01 + w00
            x01 = (gp00 * g10 + gp01 * g11 + w01) + (gp10 * g00 + gp11 * g01 + w10)
            x11 = gp10 * g10 + gp11 * g11 + w11
            r00, r01, r11 = (x00 + x00) / c, x01 / c, (x11 + x11) / c
            rf00, rf10 = r00 * f00 + r01 * f10, r01 * f00 + r11 * f10
            rf01, rf11 = r00 * f01 + r01 * f11, r01 * f01 + r11 * f11
            x00 = f00 * rf00 + f10 * rf10 + v00
            x01 = (f00 * rf01 + f10 * rf11 + v01) + (f01 * rf00 + f11 * rf10 + v10)
            x11 = f01 * rf01 + f11 * rf11 + v11
            q00, q01, q11 = (x00 + x00) * 0.5, x01 * 0.5, (x11 + x11) * 0.5
            # the LU of Q: pivot row (s0, s1), other row (o0, o1), and b, ob
            # the matching rows of (RF)'; the rows swap where |q01| > |q00|
            if abs(q01) > abs(q00):
                s0, s1, o0, o1, b0, b1, ob0, ob1 = q01, q11, q00, q01, rf01, rf11, rf00, rf10
            else:
                s0 = q00 if q00 > 0.0 else nan
                s1, o0, o1, b0, b1, ob0, ob1 = q01, q01, q11, rf00, rf10, rf01, rf11
            mult = o0 * (1.0 / s0)
            # an exactly singular U gives NaN, as LAPACK's solve does
            u11 = (o1 - mult * s1) or nan
            a01, a11 = (ob0 - mult * b0) / u11, (ob1 - mult * b1) / u11
            a00, a10 = (b0 - s1 * a01) / s0, (b1 - s1 * a11) / s0
            aq00, aq01 = a00 * q00 + a01 * q01, a00 * q01 + a01 * q11
            aq10, aq11 = a10 * q00 + a11 * q01, a10 * q01 + a11 * q11
            p00 = r00 - (aq00 * a00 + aq01 * a01) * u_t
            p11 = r11 - (aq10 * a10 + aq11 * a11) * u_t
            p00, p11 = (p00 + p00) * 0.5, (p11 + p11) * 0.5
            p01 = p10 = ((r01 - (aq00 * a10 + aq01 * a11) * u_t)
                         + (r01 - (aq10 * a00 + aq11 * a01) * u_t)) * 0.5
            record.pack_into(row, at, r00, r01, r01, r11, q00, q01, q01, q11,
                             a00, a01, a10, a11, p00, p01, p10, p11)
    R, Q, A, P = rows.swapaxes(0, 1).reshape(T, K, 4, 2, 2).transpose(2, 0, 1, 3, 4)
    return R[..., :d, :d], Q[..., :r, :r], A[..., :d, :r], P[..., :d, :d]


def _check(Q: np.ndarray, e: np.ndarray, update: np.ndarray) -> np.ndarray:
    """The Cholesky factor L of the K x T stack of Q, or :class:`FilterError`
    at the earliest step whose records fail a check.

    Per step, in the order they are raised: Q not finite; Q not positive
    definite, where a pivot ratio L_ii^2 / Q_ii is at most ``_PIVOT_C`` eps or
    NaN (under ``_run``'s errstate the gufunc behind np.linalg.cholesky leaves
    NaN in the factor of a Q it cannot factor); e not finite where a mode
    updates with it (``update``, K x T).
    """
    chol = _umath_linalg.cholesky_lo(Q, signature="d->d")
    pivots = np.diagonal(chol, axis1=2, axis2=3) ** 2 / np.diagonal(Q, axis1=2, axis2=3)
    checks = np.stack([
        ~np.isfinite(Q).all(axis=(0, 2, 3)),
        ~(pivots > _PIVOT_C * np.finfo(float).eps).all(axis=(0, 2)),
        (update & ~np.isfinite(e).all(axis=(2, 3))).any(axis=0),
    ], axis=1)
    if checks.any():
        k, check = np.argwhere(checks)[0]
        raise FilterError(_STEP_FAILURES[check], t=int(k) + 1)
    return chol


def _scale(chol, e, update, wcols, observed, n0) -> tuple[np.ndarray, np.ndarray]:
    """The dof n (K x (T + 1) x p, n0 first) and whitened residuals Z (K x T
    x r x M x p) of every step and mode, from the factors L and residuals e
    that passed :func:`_check`, the schedule (``update`` K x T) and the prior n0.

    A variable's dof grows by its observed count at each step a mode updates,
    and N^{1/2} S N^{1/2} by the Gram matrix C_t = Z'Z of Z = L^{-1} e on the
    ``wcols``: with nn_t = outer(sqrt(n_t), sqrt(n_t)), :func:`_stack` builds
    S_t = (S0 * nn_0 + C_1 + ... + C_t) / nn_t on first read; Z is r/p its size.
    Z is one forward substitution over the r rows of L for all steps at once:
    row i is e_i less L_ij z_j for j = 0, ..., i - 1 in turn, divided by L_ii.
    L is already triangular, so no LU is run.
    """
    (K, T, r, Mp), p = e.shape, observed.shape[2]
    counts = np.where(update[:, :, None], observed.sum(axis=1), 0)
    n = np.cumsum(np.concatenate([np.broadcast_to(n0, (K, 1, p)), counts], axis=1), axis=1)
    # Z is exactly 0 at the steps that do not update, whatever e holds there,
    # and _check has left every factor finite with a positive diagonal.
    Z = np.zeros(e.shape)
    np.copyto(Z, e, where=update[:, :, None, None])
    for i in range(r):
        Z[:, :, i] /= chol[:, :, i, i, None]
        Z[:, :, i + 1:] -= chol[:, :, i + 1:, i, None] * Z[:, :, i, None]
    Z *= wcols[:, None]
    return n, Z.reshape(K, T, r, Mp // p, p)


@np.errstate(all="ignore")
def _stack(Z, sn, started, S0) -> np.ndarray:
    """The covariance scale S (K x T x M x p x p) after every step and mode, from
    :func:`_scale`'s Z and sqrt(n), the steps from each mode's first update on
    (``started``, K x T) and S0, summed over t in place; built on first read,
    so under its own errstate."""
    T, p = Z.shape[1], Z.shape[-1]
    S = np.einsum("ktrmi,ktrmj->ktmij", Z, Z)
    S[:, 0] += S0 * (sn[:, 0, :, None] * sn[:, 0, None, :])[:, None]
    np.cumsum(S, axis=1, out=S)
    # Each block of steps is divided by sqrt(n_i) * sqrt(n_j), the same
    # product for S_ij and S_ji, so S stays exactly symmetric. A block's
    # product stack holds at most K x T x p entries (K p x p products if T < p).
    block = max(1, T // p)
    for k in range(0, T, block):
        s = sn[:, k + 1:k + 1 + block]
        S[:, k:k + block] /= (s[..., :, None] * s[..., None, :])[:, :, None]
    # Steps before a mode's first update keep the prior bit for bit.
    S[~started] = S0
    return S


def _standardize(e, Q, Z, sn, started, S0, obs_cols) -> np.ndarray:
    """The residuals e (K x T x r x M p) standardized by sqrt(Q_kk S_jj), S
    from the previous posterior (S0 at the first step); NaN where
    ``obs_cols`` marks an entry missing. diag(S) takes :func:`_stack`'s
    additions and divisions on the diagonal alone, so S itself is not built."""
    K, T, r, M, p = Z.shape
    s = np.empty((K, T + 1, M, p))
    s[:, 0] = s0 = np.diag(S0)
    diag = np.einsum("ktrmi,ktrmi->ktmi", Z, Z, out=s[:, 1:])
    diag[:, 0] += s0 * sn[:, 0, None] ** 2
    np.cumsum(diag, axis=1, out=diag)
    # n tiled over the series: broadcast, numpy would divide p entries per inner loop
    np.divide(diag, np.tile(sn[:, 1:] ** 2, M).reshape(K, T, M, p), out=diag)
    diag[~started] = s0
    q = np.diagonal(Q, axis1=-2, axis2=-1)[..., None]
    return np.where(obs_cols, e / np.sqrt(q * s[:, :-1].reshape(K, T, 1, M * p)), np.nan)


def _series_output(rec: dict, k: int, i: int) -> FilterOutput:
    """The :class:`FilterOutput` of mode k, series i of a :func:`_run` record."""
    p, stack = rec["observed"].shape[2], rec["S"]
    cols = slice(i * p, (i + 1) * p)
    series = ("a", "f", "e", "std_err", "m")
    return FilterOutput(
        mode=rec["modes"][k], prior=rec["prior"], observed=rec["observed"],
        **{name: np.ascontiguousarray(rec[name][k, :, :, cols]) for name in series},
        **{name: rec[name][k] for name in ("R", "Q", "A", "P", "n")},
        _S=lambda: np.ascontiguousarray(stack()[k, :, i]),
    )


@np.errstate(all="ignore")
def _summarize(rec: dict) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """``(times, msse, corr)`` of a :func:`_run` record: the 1-based steps it
    observes in part, read from its mask; the per-variable MSSE (K x M x p,
    NaN for a variable never observed); and the correlation estimates at
    those steps for each pair i < j (K x M x len(times) x p(p - 1)/2)."""
    observed = rec["observed"]
    partly = np.flatnonzero(observed.any(axis=(1, 2)) & ~observed.all(axis=(1, 2)))
    corr = _corr(rec["S"]()[:, partly], *np.triu_indices(observed.shape[2], 1)).swapaxes(1, 2)
    return tuple(int(k) + 1 for k in partly), _msse(rec["std_err"], observed), corr


def _msse(std_err: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Per-variable MSSE of M series that share one mask, for every run of a
    leading stack.

    ``std_err`` holds the series as column blocks (... x T x r x M p), as
    :func:`_run` records them, and ``observed`` is the T x r x p mask; returns
    ... x M x p. The mean for variable j runs over the observed entries of
    column j, and is NaN if there are none.
    """
    p = observed.shape[2]
    std_err = std_err.reshape(std_err.shape[:-1] + (-1, p))
    out = np.full(std_err.shape[:-4] + std_err.shape[-2:], np.nan)
    for j in range(p):
        keep = observed[:, :, j]
        if keep.any():
            # one contiguous row per series keeps np.mean's pairwise summation,
            # so each series gets the bits a single-series run gets
            vals = np.ascontiguousarray(np.moveaxis(std_err[..., j][..., keep, :], -2, -1))
            out[..., j] = np.mean(vals**2, axis=-1)
    return out


def msse(output: FilterOutput) -> np.ndarray:
    """Mean of squared standardized one-step errors, one entry per variable.

    Entry (t, k, j) is standardized by sqrt(Q_t[k, k] * S_{t-1}[j, j]), the
    forecast row scale diagonal times the prior scale diagonal; the mean for
    variable j runs over all observed entries of that variable. Raises if some
    variable is never observed.
    """
    _check_observed(output.observed)
    return _msse(output.std_err, output.observed)[0]


def _check_observed(observed: np.ndarray) -> None:
    """Raise unless every variable is observed at some step of the T x r x p
    mask: the MSSE of one that never is is undefined."""
    never = np.flatnonzero(~observed.any(axis=(0, 1)))
    if never.size:
        raise DomainError(f"variable {never[0]} is never observed; its MSSE is undefined")
