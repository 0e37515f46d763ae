"""Sequential filtering for matrix-variate dynamic linear models.

The model at each time t is

    Y_t = F_t' Theta_t + E_t,        rows of Y_t are r replicate observations
    Theta_t = G_t Theta_{t-1} + O_t, state is d x p,

with E_t matrix normal (0, V_t, Sigma), O_t matrix normal (0, W_t, Sigma), and
Sigma carrying the per-variable degrees-of-freedom covariance law from
:mod:`mvdlm.distributions`. Conjugacy gives one closed-form recursion over
(m, P, S, n): the one-step prior (a, R), the forecast (f, Q) with gain A, and
the posterior update. One loop runs that recursion on raw arrays for M
series that share a missing-data mask, in one or both update modes at once:
the row scales (R, Q, A, P) and the dof n depend only on the model, the mask
and the mode, so they are carried once for all series, with the modes as a
leading stack axis. The covariance scale is additive in N^{1/2} S N^{1/2}, so
the loop does not carry S either: it is one cumulative sum of the steps' Gram
matrices, computed after the loop. The loop makes one linear solve per
step, for the gain; the Cholesky factor of Q and the checks that raise
:class:`FilterError` also run after it, on the stacked records.
:func:`filter` is the case of one series in one mode and records every
intermediate quantity; the replication study runs all its replications in
both modes in one pass.
Constant model inputs are validated once, callables once for all steps
before the loop, and the prior once at entry.

Missing data are handled by one masked update: each observed variable
updates its own degrees-of-freedom entry, while a variable missing from the
observation keeps its column of the mean and its dof entry. The state scale P
is shared by all variables, so it shrinks by the fraction u of a full update
for the missing ones too. The classical alternative (``mode="classical"``) is
the same update with an all-or-nothing mask: it discards the entire
observation whenever any entry is missing.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Union

import numpy as np

from .distributions import MiwParams, MtParams, _count
from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    FilterError,
    MvdlmError,
)
from .linalg import symmetrize

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


def _checked(value, shape: tuple[int, int], name: str) -> np.ndarray:
    m = np.asarray(value, dtype=float)
    if m.shape != shape:
        raise DimensionMismatch(f"{name} must have shape {shape}, got {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError(f"{name} must be finite")
    return m


@dataclass(eq=False)
class ModelSpec:
    """Model dimensions and per-time design inputs.

    F, G, V (and W, when explicit) may be constant arrays or callables mapping
    the 1-based time index to an array. A constant is converted, shape-checked
    and finite-checked here, once; a callable is evaluated for every step of a
    filter run and its values are checked once, as a T-stack, before the
    loop. Exactly one of ``W`` and ``discount`` must be given: an explicit
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
            delta = float(self.discount)
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

    def _stack(self, name: str, T: int) -> tuple[np.ndarray | None, tuple | None]:
        """Input ``name`` for t = 1..T as one T-stack, and its first failure
        ``(t, error)`` or None; after a failure the stack ends at step t - 1.

        A callable is evaluated for every t and its values are checked
        together; only if that check fails are they checked one by one.
        """
        value, shape = getattr(self, name), self._shape(name)
        if not callable(value):
            return (None if value is None else np.broadcast_to(value, (T,) + shape)), None
        values, failure = [], None
        for t in range(1, T + 1):
            try:
                values.append(value(t))
            except MvdlmError as exc:
                failure = (t, exc)
                break
        try:
            stack = np.asarray(values, dtype=float)
            if stack.shape == (len(values),) + shape and np.isfinite(stack).all():
                return stack, failure
        except (TypeError, ValueError):
            pass
        stack = np.empty((len(values),) + shape)
        for t, v in enumerate(values, start=1):
            try:
                stack[t - 1] = _checked(v, shape, f"{name} at t={t}")
            except MvdlmError as exc:
                return stack[: t - 1], (t, exc)
        return stack, failure


@dataclass(frozen=True, eq=False)
class NmiwState:
    """Conjugate state: mean m (d x p), row scale P (d x d), covariance law miw."""

    m: np.ndarray
    P: np.ndarray
    miw: MiwParams

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        P = np.asarray(self.P, dtype=float)
        if m.ndim != 2:
            raise DimensionMismatch(f"state mean must be 2-d, got shape {m.shape}")
        d, p = m.shape
        if P.shape != (d, d):
            raise DimensionMismatch(f"state scale must have shape ({d}, {d}), got {P.shape}")
        if self.miw.p != p:
            raise DimensionMismatch(
                f"covariance law dimension {self.miw.p} does not match state columns {p}"
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

    ``y`` holds the observed values; entries where ``observed`` is False are
    ignored and kept as given (NaN when built by :meth:`from_values`). Row k
    is replicate k, column j is variable j. As an array it is ``y`` with NaN
    at every unobserved entry, whatever ``y`` holds there, so a list of them
    is a T x r x p input to :func:`filter`.
    """

    y: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        observed = np.asarray(self.observed, dtype=bool)
        if y.ndim != 2:
            raise DimensionMismatch(f"observation must be 2-d, got shape {y.shape}")
        if observed.shape != y.shape:
            raise DimensionMismatch(
                f"mask shape {observed.shape} does not match observation shape {y.shape}"
            )
        if not np.all(np.isfinite(y[observed])):
            raise DomainError("observed entries must be finite")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "observed", observed)

    @classmethod
    def from_values(cls, values) -> "MaskedObservation":
        """Build from an r x p array in which missing entries are NaN.

        Only NaN means missing; an infinite entry counts as observed and is
        rejected by the finiteness check.
        """
        values = np.asarray(values, dtype=float)
        return cls(y=values, observed=~np.isnan(values))

    def __array__(self, dtype=None, copy=None):
        values = np.where(self.observed, self.y, np.nan)
        return values if dtype is None else values.astype(dtype)


def correlation_estimate(state: NmiwState, i: int, j: int) -> float:
    """Correlation implied by the posterior scale: S_ij / (sd_i sd_j), sd = sqrt(diag S)."""
    S = state.miw.S
    p = S.shape[0]
    if not (0 <= i < p and 0 <= j < p):
        raise DomainError(f"indices must lie in [0, {p}), got i={i}, j={j}")
    if i == j:
        raise DomainError("correlation_estimate requires two distinct variables")
    if S[i, i] <= 0.0 or S[j, j] <= 0.0:
        raise DomainError("scale diagonal must be strictly positive")
    return float(_corr(S, i, j))


@np.errstate(all="ignore")
def _corr(S: np.ndarray, i, j) -> np.ndarray:
    """S_ij / (sd_i sd_j), sd = sqrt(diag S), for a stack of scales S (... x p
    x p); i and j may be index arrays. NaN or inf where S has overflowed."""
    sd = np.sqrt(np.diagonal(S, axis1=-2, axis2=-1))
    return S[..., i, j] / (sd[..., i] * sd[..., j])


class _StepView(Sequence):
    """Read-only sequence over time steps that builds each item on access."""

    def __init__(self, T: int, build: Callable[[int], object]):
        self._T = T
        self._build = build

    def __len__(self) -> int:
        return self._T

    def __getitem__(self, t):
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
    (T x p). ``states`` and ``marginals`` are read-only per-step views of
    these arrays.
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
    S: np.ndarray
    n: np.ndarray

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

    @property
    def marginals(self) -> Sequence[MtParams]:
        """Matrix-t forecast law of each step; (S, n) come from the previous
        posterior, or from the prior at the first step."""
        miw = self.prior.miw

        def build(t: int) -> MtParams:
            S, n = (miw.S, miw.n) if t == 0 else (self.S[t - 1], self.n[t - 1])
            return MtParams(f=self.f[t], Q=self.Q[t], S=S, n=n, v=miw.v)

        return _StepView(self.T, build)


def filter(
    model: ModelSpec,
    data: np.ndarray | Sequence,
    prior: NmiwState,
    mode: str = "new",
) -> FilterOutput:
    """Run the forward filter over a T x r x p observation array.

    ``data`` is anything :func:`numpy.asarray` turns into a T x r x p float
    array with NaN at the missing entries: such an array, or a list of r x p
    arrays or of :class:`MaskedObservation`. Each step computes the one-step
    prior a = G m, R = sym(G P G')/delta (or sym(G P G' + W) with an explicit
    W), the forecast f = F'a with scale Q = sym(F'RF + V) and gain
    A = R F Q^{-1}, and the masked update. ``mode="new"`` applies the
    per-variable masked update; ``mode="classical"`` discards any observation
    with a missing entry. Model inputs that are malformed or not finite, a
    forecast scale Q that is not finite or cannot be factored, and a residual
    e that is not finite at an updating step are raised as
    :class:`FilterError` with the failing 1-based time index.
    """
    return _filter(model, data, prior, (mode,))[0]


def _filter(
    model: ModelSpec, data: np.ndarray | Sequence, prior: NmiwState, modes: tuple[str, ...]
) -> list[FilterOutput]:
    """:func:`filter` in each of ``modes``, all in one loop over t."""
    r, p = model.r, model.p
    try:
        y = np.asarray(data, dtype=float)
    except ValueError as exc:
        raise DimensionMismatch(f"observations do not form a T x {r} x {p} array: {exc}") from exc
    if y.shape[:1] == (0,):
        raise DomainError("data must contain at least one observation")
    if y.ndim != 3 or y.shape[1:] != (r, p):
        raise DimensionMismatch(f"observations must have shape (T, {r}, {p}), got {y.shape}")
    if np.isinf(y).any():
        raise DomainError("observed entries must be finite")
    return [_series_output(rec, 0) for rec in _run(model, prior, y[None], ~np.isnan(y), modes)]


_STEP_FAILURES = (
    "forecast scale Q is not finite",
    "forecast scale Q is not positive definite",
    "forecast residual e is not finite",
)


# The steps after a failure compute on values that may overflow and are never
# returned; the checks after the step loop report the failure, not a warning.
@np.errstate(all="ignore")
def _run(
    model: ModelSpec,
    prior: NmiwState,
    y: np.ndarray,
    observed: np.ndarray,
    modes: tuple[str, ...],
) -> list[dict]:
    """Filter M series that share one missing-data mask in K modes, all in
    one loop over t.

    ``y`` is M x T x r x p (entries where ``observed`` is False are ignored)
    and ``observed`` the shared T x r x p mask. The row-scale schedule R, Q, A,
    P and the dof n depend only on the model, the mask and the mode, so they
    are carried once per mode, the modes as a leading stack axis (K x d x d);
    the series sit side by side as column blocks, so m and a are K x d x (M p)
    and f and e are K x r x (M p). The model inputs for all t, and each mode's
    update schedule, are computed before the loop.

    The loop over t carries a, R, f, Q, A, e, m and P and makes one linear
    solve per step, for the gain A = R F Q^{-1}. The checks run after it, on
    the record stacks: Q finite, one stacked Cholesky factorization L of Q
    (the positive-definite check), and e finite at the steps where a mode
    updates. :class:`FilterError` names the earliest failing step, and at one
    step Q's finiteness before its definiteness before e; a bad model input is
    raised only if no earlier step failed. S is computed after the checks,
    once per mode: with nn_t = outer(sqrt(n_t), sqrt(n_t)) and the Gram matrix
    C_t = (L^{-1} e)'(L^{-1} e) on the variables observed in every replicate
    (zero at a step that does not update), S_t = (S0 * nn_0 + C_1 + ... + C_t)
    / nn_t. The running sum adds one step's row of Gram matrices at a time
    (numpy's accumulate along the time axis is not vectorized across a row),
    and the division runs over blocks of steps. Returns one record dict per
    mode, stacked over time (leading axis T) in that layout, with only S
    (T x M x p x p) carrying a series axis.
    """
    for mode in modes:
        if mode not in ("new", "classical"):
            raise DomainError(f"mode must be 'new' or 'classical', got {mode!r}")
    d, p, r = model.d, model.p, model.r
    if prior.d != d or prior.p != p:
        raise DimensionMismatch(
            f"prior has shape ({prior.d}, {prior.p}), model declares ({d}, {p})"
        )
    m, P, S0, n0 = prior.m, prior.P, prior.miw.S, prior.miw.n
    if not all(np.isfinite(x).all() for x in (m, P, S0, n0, prior.miw.v)):
        raise DomainError("prior m, P, S, n and v must be finite")
    M, T = y.shape[:2]
    if y.shape[2:] != (r, p):
        raise DimensionMismatch(f"observations have shape {y.shape[2:]}, model declares ({r}, {p})")
    y = y.transpose(1, 2, 0, 3).reshape(T, r, M * p)
    K = len(modes)
    (Fs, Gs, Vs, Ws), failures = zip(*(model._stack(name, T) for name in "FGVW"))
    # the earliest bad model input, F before G before V before W at the same t
    failure = min((f for f in failures if f), key=lambda f: f[0], default=None)

    # The mask schedule for all steps and modes (T x K). A variable moves its
    # mean column (gain) and adds to S only when it is observed in every
    # replicate (wprod); its dof grows by its observed count, and the shared P
    # takes the fraction u of a full update. A step with nothing observed, or
    # with any missing entry in classical mode, updates nothing (u = 0).
    update = np.stack(
        [observed.any(axis=(1, 2)) if mode == "new" else observed.all(axis=(1, 2))
         for mode in modes], axis=1,
    )
    wprod = observed.all(axis=1)
    wcols = np.tile(wprod, (1, M))
    gain = update[:, :, None, None] & wcols[:, None, None, :]
    u = np.where(update, wprod.sum(axis=1, keepdims=True) / p, 0.0)[:, :, None, None]
    obs_cols = np.tile(observed, (1, 1, M))

    # Records are stored mode-major (K x T x ...), so each mode's are contiguous;
    # the loop writes step k through time-major views.
    shapes = {"a": (d, M * p), "R": (d, d), "f": (r, M * p), "Q": (r, r), "A": (d, r),
              "e": (r, M * p), "m": (d, M * p), "P": (d, d)}
    rec = {name: np.empty((K, T) + shape) for name, shape in shapes.items()}
    stores = [rec[name].swapaxes(0, 1) for name in shapes]
    m = np.tile(m, (K, 1, M))
    P = np.tile(P, (K, 1, 1))
    # Per step, in the order they are raised: Q not finite, Q not positive
    # definite, e not finite where a mode updates with it.
    checks = np.zeros((T, 3), dtype=bool)
    done = stored = T if failure is None else failure[0] - 1
    for k in range(done):
        F, G, V = Fs[k], Gs[k], Vs[k]
        a = G @ m
        GPG = G @ P @ G.T
        R = symmetrize(GPG) / model.discount if Ws is None else symmetrize(GPG + Ws[k])
        f = F.T @ a
        RF = R @ F
        Q = symmetrize(F.T @ RF + V)
        try:
            A = np.linalg.solve(Q, RF.swapaxes(1, 2)).swapaxes(1, 2)
        except np.linalg.LinAlgError:
            # an exactly singular Q is not positive definite
            rec["Q"][:, k] = Q
            checks[k, 1] = True
            done, stored = k, k + 1
            break
        e = np.where(obs_cols[k], y[k] - f, 0.0)
        # where(gain, e, 0) keeps a residual out of every mean that does not
        # update with it, so it fails only a mode that does.
        m = a + A @ np.where(gain[k], e, 0.0)
        P = symmetrize(R - A @ Q @ A.swapaxes(1, 2) * u[k])
        for store, value in zip(stores, (a, R, f, Q, A, e, m, P)):
            store[k] = value

    Qs = rec["Q"]
    checks[:stored, 0] = ~np.isfinite(Qs[:, :stored]).all(axis=(0, 2, 3))
    try:
        chol = np.linalg.cholesky(Qs[:, :done])
    except np.linalg.LinAlgError:
        for k in range(done):
            try:
                np.linalg.cholesky(Qs[:, k])
            except np.linalg.LinAlgError:
                checks[k, 1] = True
                break
    checks[:done, 2] = (update[:done] & ~np.isfinite(rec["e"][:, :done]).all(axis=(2, 3)).T).any(1)
    if checks.any():
        k, check = np.argwhere(checks)[0]
        raise FilterError(_STEP_FAILURES[check], t=int(k) + 1)
    if failure is not None:
        t, exc = failure
        raise FilterError(str(exc), t=t) from exc

    obs_counts = observed.sum(axis=1)
    runs = []
    for i, mode in enumerate(modes):
        run = {name: stack[i] for name, stack in rec.items()}
        upd = update[:, i]
        n_all = np.cumsum(np.vstack([n0, np.where(upd[:, None], obs_counts, 0)]), axis=0)

        # S as the cumulative sum of C = Z'Z, Z = L^{-1} e on the wprod columns.
        # Z is solved at the updating steps only and is exactly 0 elsewhere,
        # whatever e holds there.
        S, sn = np.empty((T, M, p, p)), np.sqrt(n_all)
        Z = np.zeros((T, r, M * p))
        Z[upd] = np.linalg.solve(chol[i][upd], run["e"][upd]) * wcols[upd, None]
        Z = Z.reshape(T, r, M, p)
        np.einsum("tkmi,tkmj->tmij", Z, Z, out=S)
        S[0] += S0 * np.outer(sn[0], sn[0])
        # The running sum adds whole rows, one step at a time: numpy's
        # accumulate along the time axis is not vectorized across a row, and
        # these are the additions np.cumsum makes, in the same order.
        for prev, row in zip(S, S[1:]):
            row += prev
        # Steps before the first update keep the prior bit for bit; after it,
        # each block of steps is divided by sqrt(n_i) * sqrt(n_j), the same
        # product for S_ij and S_ji, so S stays exactly symmetric. A block's
        # product stack holds at most T x p entries (one p x p product if T < p).
        k0 = int(upd.argmax()) if upd.any() else T
        S[:k0] = S0
        block = max(1, T // p)
        for k in range(k0, T, block):
            s = sn[k + 1:k + 1 + block]
            S[k:k + block] /= (s[:, :, None] * s[:, None, :])[:, None]

        # Errors standardized by sqrt(Q_kk S_jj), S from the previous posterior.
        s_diag = np.empty((T, 1, M, p))
        s_diag[0] = np.diag(S0)
        s_diag[1:, 0] = np.diagonal(S[:-1], axis1=2, axis2=3)
        s_diag = s_diag.reshape(T, 1, M * p)
        q_diag = np.diagonal(run["Q"], axis1=1, axis2=2)[:, :, None]
        run.update(
            S=S, n=n_all[1:], observed=observed, mode=mode, prior=prior,
            std_err=np.where(obs_cols, run["e"] / np.sqrt(q_diag * s_diag), np.nan),
        )
        runs.append(run)
    return runs


def _series_output(rec: dict, i: int) -> FilterOutput:
    """The :class:`FilterOutput` of series i of a :func:`_run` result."""
    p = rec["n"].shape[1]
    cols = slice(i * p, (i + 1) * p)
    series = ("a", "f", "e", "std_err", "m")
    shared = ("mode", "prior", "R", "Q", "A", "observed", "P", "n")
    return FilterOutput(
        **{name: np.ascontiguousarray(rec[name][:, :, cols]) for name in series},
        **{name: rec[name] for name in shared},
        S=np.ascontiguousarray(rec["S"][:, i]),
    )


def _msse(std_err: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Per-variable MSSE of M series that share one mask.

    ``std_err`` holds the series as column blocks (T x r x M p), as
    :func:`_run` records them, and ``observed`` is the T x r x p mask; returns
    M x p. The mean for variable j runs over the observed entries of column j.
    """
    T, r, p = observed.shape
    std_err = std_err.reshape(T, r, -1, p)
    out = np.empty(std_err.shape[2:])
    for j in range(p):
        keep = observed[:, :, j]
        if not keep.any():
            raise DomainError(f"variable {j} is never observed; its MSSE is undefined")
        # one contiguous row per series keeps np.mean's pairwise summation, so
        # each series gets the bits a single-series run gets
        vals = np.ascontiguousarray(std_err[:, :, :, j][keep].T)
        out[:, j] = np.mean(vals**2, axis=1)
    return out


def msse(output: FilterOutput) -> np.ndarray:
    """Mean of squared standardized one-step errors, one entry per variable.

    Entry (t, k, j) is standardized by sqrt(Q_t[k, k] * S_{t-1}[j, j]), the
    forecast row scale diagonal times the prior scale diagonal; the mean for
    variable j runs over all observed entries of that variable. Raises if some
    variable is never observed.
    """
    return _msse(output.std_err, output.observed)[0]
