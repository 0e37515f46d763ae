"""Sequential filtering for matrix-variate dynamic linear models.

The model at each time t is

    Y_t = F_t' Theta_t + E_t,        rows of Y_t are r replicate observations
    Theta_t = G_t Theta_{t-1} + O_t, state is d x p,

with E_t matrix normal (0, V_t, Sigma), O_t matrix normal (0, W_t, Sigma), and
Sigma carrying the per-variable degrees-of-freedom covariance law from
:mod:`mvdlm.distributions`. Conjugacy gives one closed-form recursion over
(m, P, S, n): the one-step prior (a, R), the forecast (f, Q) with gain A, and
the posterior update. The private ``_run`` runs it for M series that share a
missing-data mask, in one or both update modes, as stages: the mask
schedule, the covariance stages, the mean scan, the checks, the dof and
whitened residuals (S is built from them when read), and the standardized
errors. :func:`filter` is the case of one series in one mode; the
replication study runs all its replications in both modes in one pass.

The covariance part of the recursion (R, Q, A, P) depends on the model and
the mask, not on the data, so it is computed for all steps and modes first,
in three stages. J = F V^{-1} F' is formed over all steps from V's Cholesky
factor, which also rejects a V that is not positive definite. A loop then
carries R and P alone, by the masked update in information form,
P = (1 - u) R + u (I + R J)^{-1} R (Anderson and Moore, Optimal Filtering,
1979, ch. 6), whose terms are positive semidefinite: on Python floats at
d <= 2, where numpy's per-call cost would outweigh the arithmetic, with a
step for each d, and in numpy at d >= 3. One batched stage, shared by both
loops, forms Q and the gain A for every step. No stage after the J stage
raises: one rule on Q's Cholesky factor, read after them, fails a model at
the same step in both loops.

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
from itertools import repeat
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


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` that holds ``fields`` as
    given, without running its ``__post_init__``: for a state or law of the
    filter's own records, which :func:`_run` has checked, with Q and S exactly
    symmetric, so the checked construction would give the same bits."""
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


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
    (T x p). ``_S(key)`` reads S[key]: ``S`` takes the whole stack from it on
    first read and keeps it. ``states`` views them per step, read-only, and
    reads one S_t without the stack until ``S`` has been read. ``marginals``
    is the T forecast laws as one law, also built on first read and kept.
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
    _S: Callable[[int | slice], np.ndarray] = field(repr=False)

    @cached_property
    def S(self) -> np.ndarray:
        S = self._S(slice(None))
        # from here on S alone is kept, not the stack or residuals it came from
        self._S = partial(operator.getitem, S)
        return S

    def __getstate__(self) -> dict:
        # pickle and deepcopy take S itself: reading it first sets the _S they take
        return {"S": self.S, **self.__dict__}

    @property
    def T(self) -> int:
        return self.f.shape[0]

    @property
    def states(self) -> Sequence[NmiwState]:
        """Posterior state after each step. Its S_t has the bits of ``S[t]``;
        until ``S`` is read, it is built in its block of steps alone."""
        v = self.prior.miw.v
        return _StepView(self.T, lambda t: _unchecked(
            NmiwState, m=self.m[t], P=self.P[t],
            miw=_unchecked(MiwParams, S=self._S(t), n=self.n[t], v=v)))

    @cached_property
    def marginals(self) -> MtParams:
        """Matrix-t forecast laws of the T steps, as one law of T-stacks: f, Q
        and the previous posterior's S and n (the prior's at the first step)."""
        miw = self.prior.miw
        return _unchecked(MtParams, f=self.f, Q=self.Q,
                          S=np.concatenate([miw.S[None], self.S[:-1]]),
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
    Model inputs that are malformed or not finite, an observation scale V or
    a forecast scale Q that is not positive definite, a Q that is not
    finite, and a residual e that is not finite at an updating step are
    raised as :class:`FilterError` with the failing 1-based time index.
    """
    return _series_output(_run(model, prior, _observations(data)[None], (mode,)), 0, 0)


def _observations(values) -> np.ndarray:
    """``values`` as a T x r x p float array with NaN at the missing entries:
    the observation rule of :func:`filter` and ``cli.write_csv``. Checked in
    this order: numpy reads it as real numbers (:func:`_real`), and each step
    of a list or tuple too, T >= 1, the shape, and no entry infinite. A list
    or tuple whose steps are all :class:`MaskedObservation` is read from
    their ``y`` arrays, the arrays their ``__array__`` gives, without numpy's
    call of it per step."""
    steps = isinstance(values, (list, tuple))
    masked = steps and all(isinstance(step, MaskedObservation) for step in values)
    y = _real([step.y for step in values] if masked else values, ("T", "r", "p"), "observations")
    if steps and not masked:
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

# c of _factor's rule, which _check applies to Q and _information to V: not positive definite
# where a pivot ratio L_ii^2 / X_ii <= c eps. Cholesky's backward error, gamma_{r+1} ~
# (r + 1) eps / 2 of the matrix's scale (Higham, Accuracy and Stability of Numerical Algorithms,
# 2nd ed., ch. 10), is covered up to r = 127. The Q of the digest models that run have ratios
# >= 761 eps; V_LU_SINGULAR, rank 1 but factored, has 1.56 eps.
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
    then the stages run: J from :func:`_information`, which fails a V that is
    not positive definite at its first step, R and P from the covariance
    loop of the model's d, Q and A from :func:`_gains`, and the mean records
    from :func:`_scan`, a blocked scan over the steps whose records equal
    the step-by-step recursion's up to rounding.

    The records with a series axis that no output views past a run's
    lifetime share one buffer (:func:`_views`): a, f, e and m, which
    :func:`_scan` writes, and std_err, which :func:`_standardize` writes.
    One allocation and one release per run let glibc's dynamic mmap
    threshold rise to the buffer's size, so the next run's arrays reuse heap
    pages instead of page-faulting fresh ones. n, sqrt(n), Z and the
    covariance rows are arrays of their own: a series output keeps views of
    them (n, R, Q, A and P as its records, sqrt(n) and Z for its unread S),
    and a view of the buffer would keep all of it alive with them.

    Returns one record dict whose arrays carry the modes as their leading
    K axis, then time: a, R, f, Q, A, e, std_err, m, P and n; beside them S,
    which builds the K x T x M x p x p stack on its first call and keeps it,
    ``gram``, the arguments of :func:`_stack` it builds from, the mask
    ``observed`` (T x r x p), ``modes`` and ``prior``.
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
    if not all(np.isfinite(x).all() for x in (prior.m, prior.P, S0)):
        raise DomainError("prior m, P and S must be finite")
    Fs, Gs, Vs, Ws = (model._stack(name, T) for name in "FGVW")
    B, J = _information(Fs, Vs)
    observed = ~np.isnan(y[0])
    update, u, gain, obs_cols = _schedule(observed, modes, M)
    y = y.transpose(1, 2, 0, 3).reshape(T, r, M * p)
    covariance = _covariance_small if d <= 2 else _covariance_numpy
    R, P = covariance(Gs, Ws, B, J, 2.0 * (model.discount or 1.0), prior.P, u)
    rows = dict(zip("RQAP", (R, *_gains(Fs, Vs, R), P)))
    # a, f and m padded to _scan's B blocks of L steps, then e and std_err
    K, L = len(modes), math.isqrt(T)
    BL = -(-T // L) * L
    a, f, m, e, std_err = _views([(BL, K, d, M * p), (BL, K, r, M * p), (BL, K, d, M * p),
                                  (T, K, r, M * p), (K, T, r, M * p)])
    rows.update(zip("afem", _scan(Fs, Gs, rows["A"], prior.m, y, obs_cols, gain,
                                  out=(a, f, e, m))))
    rec = {name: row.swapaxes(0, 1) for name, row in rows.items()}
    chol = _check(rec["Q"], rec["e"], update.T)
    n, Z = _scale(chol, rec["e"], update.T, gain.swapaxes(0, 1), observed, n0)
    sn, started = np.sqrt(n), np.logical_or.accumulate(update.T, axis=1)
    gram = (Z, sn, started, S0)
    rec.update(n=n[:, 1:], gram=gram, S=cache(partial(_stack, *gram)),
               std_err=_standardize(rec["e"], rec["Q"], Z, sn, started, S0, obs_cols, std_err),
               observed=observed, modes=modes, prior=prior)
    return rec


def _views(shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Empty C-ordered arrays of the given shapes, side by side in one flat
    ``np.empty``: one allocation, and one release, for all of them."""
    sizes = [math.prod(shape) for shape in shapes]
    parts = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
    return [part.reshape(shape) for part, shape in zip(parts, shapes)]


def _schedule(observed: np.ndarray, modes: tuple[str, ...], M: int) -> tuple[np.ndarray, ...]:
    """``update, u, gain, obs_cols`` for every step and mode, read from
    the T x r x p mask that M series share.

    ``update`` (T x K) is False at a step with nothing observed, and in
    classical mode at a step with any missing entry. A variable moves its
    mean column and adds to S only when it is observed in every replicate:
    ``gain`` (T x K x 1 x M p) marks the columns that a mode moves, in every
    series. The shared P takes the fraction ``u`` (T x K x 1 x 1) of a full
    update, 0 where a mode does not update; ``obs_cols`` (T x r x M p) is the
    mask of every series.
    """
    some, every = observed.any(axis=(1, 2)), observed.all(axis=(1, 2))
    update = np.stack([some if mode == "new" else every for mode in modes], axis=1)
    wprod = observed.all(axis=1)
    u = np.where(update, wprod.mean(axis=1, keepdims=True), 0.0)[:, :, None, None]
    gain = update[:, :, None, None] & np.tile(wprod, (1, M))[:, None, None, :]
    return update, u, gain, np.tile(observed, (1, 1, M))


def _scan(Fs, Gs, A, m, y, obs_cols, gain, out) -> tuple[np.ndarray, ...]:
    """The mean records a, f, e and m of every step and mode, each time-major
    (T x K x ...), by a blocked two-pass scan, written into ``out``.

    Reads F and G as T-stacks, the gains A (T x K x d x r) of a covariance
    pass, the prior mean m0, the schedule, and the M series ``y`` side by
    side as column blocks (T x r x M p): a and m are d x (M p) and f and e
    are r x (M p) per mode. A step runs a = G m, f = F'a, e = y - f (0 at a
    missing entry) and m = a + A e over the columns that ``gain`` marks.
    At r = 1, A e is a d x 1 column times a 1 x (M p) row, one product an
    entry, so it is a broadcast multiply, not a matmul over an axis of one.
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

    ``out`` is the four records' arrays, a, f and m padded to B L steps
    (B L x K x ...) and e of T steps, which :func:`_run` takes from its
    one buffer; the records returned are their first T steps.
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
    gain_times = np.multiply if r == 1 else np.matmul

    # pass 1: x beside H, whose d columns for mean column j start at Mp + j d
    x = np.concatenate([np.broadcast_to(m0, (B - 1, K, d, Mp)),
                        np.broadcast_to(np.tile(np.eye(d), Mp), (B - 1, K, d, Mp * d))], axis=3)
    gain_xh = np.concatenate([gain[:-1], np.repeat(gain[:-1], d, axis=4)], axis=4)
    for k in range(L):
        a = np.matmul(Gs[:-1, k, None], x)
        e = np.negative(np.matmul(Ft[:-1, k], a))
        e[..., :Mp] += y[:-1, k, None]
        x = gain_times(A[:-1, k], np.where(gain_xh[:, k], e, 0.0))
        x += a
    H = x[..., Mp:].reshape(B - 1, K, d, Mp, d)
    start = np.empty((B, K, d, Mp))
    start[0] = m0
    for b in range(B - 1):
        start[b + 1] = x[b, ..., :Mp] + np.einsum("kijl,klj->kij", H[b], start[b] - m0)

    # pass 2: the records, written in place; e is filled once at the end
    a_out, f_out, e_t, m_out = out
    a_t, f_t, m_t = (X.reshape((B, L) + X.shape[1:]) for X in (a_out, f_out, m_out))
    m = start
    for k in range(L):
        a = np.matmul(Gs[:, k, None], m, out=a_t[:, k])
        f = np.matmul(Ft[:, k], a, out=f_t[:, k])
        # gain marks observed entries only, where y - f is e; where(gain, ., 0)
        # keeps a residual out of every mean that does not update with it, so
        # it fails only a mode that does
        m = gain_times(A[:, k], np.where(gain[:, k], y[:, k, None] - f, 0.0), out=m_t[:, k])
        m += a
    e_t.fill(0.0)
    np.subtract(y.reshape((B * L, r, Mp))[:T, None], f_out[:T], out=e_t, where=obs_cols[:, None])
    return a_out[:T], f_out[:T], e_t, m_out[:T]


def _information(Fs, Vs) -> tuple[np.ndarray, np.ndarray]:
    """B = L^{-1} F' (... x r x d) and J = F V^{-1} F' = B'B (... x d x d) of
    every step, (V + V')/2 = L L' by Cholesky, from F and V as T-stacks; or
    :class:`FilterError` at the first step whose V is not positive definite
    by the rule of :func:`_factor`, as the paper's V is a covariance. The
    factor reads V's symmetric part, as Q = sym(F'RF + V) of :func:`_gains`
    does, so a V that is not exactly symmetric acts as that part throughout.

    B is one forward substitution over its r rows, and J = :func:`_products`
    of B' and B, so J is exactly symmetric, and a zero column of F with a
    unit row of V adds exact zeros. Where F and V are both constant (stride
    0 in time, as :meth:`ModelSpec._stack` gives them) they are read once,
    and B and J hold one step, else T.
    """
    (T, d, r), (F, V) = Fs.shape, (X[:1] if X.strides[0] == 0 else X for X in (Fs, Vs))
    chol, failed = _factor((V + V.swapaxes(1, 2)) * 0.5)
    if failed.any():
        raise FilterError("observation scale V is not positive definite", t=1 + int(failed.argmax()))
    B = F.swapaxes(1, 2) * np.ones((len(V), 1, 1))
    for i in range(r):
        for j in range(i):
            B[:, i] -= chol[:, i, j, None] * B[:, j]
        B[:, i] /= chol[:, i, i, None]
    return B, _products(B.swapaxes(1, 2), B)


def _products(X, Y) -> np.ndarray:
    """X Y (... x m x n) as 0 plus, over the inner index i in its order,
    column i of X times row i of Y, one product an entry: the same at every
    m and n, where a matmul would pick its BLAS kernel by shape."""
    return sum((X[..., :, i, None] * Y[..., i, None, :] for i in range(X.shape[-1])), start=0.0)


def _covariance_numpy(Gs, Ws, B, J, c, P, u) -> np.ndarray:
    """R and P (2 x T x K x d x d) of every step and mode at any d, from G and W
    as T-stacks (``Ws`` is None under a discount), B and J of
    :func:`_information`, the prior P and u (T x K x 1 x 1).

    Each step runs R = (X + X')/c, X = G P G' (+ W), c = 2 delta (2 with W:
    the bits of the average over delta unless (X + X')/2 is subnormal), and
    the masked update P = (1 - u) R + u sym(X), X = (I + R J)^{-1} R, on the
    K-stack of modes, by one call of LAPACK's solve gufunc on the smaller
    system: I + R J itself where d <= r, and where d > r,
    X = R - RB' (I + B RB')^{-1} (RB')', whose r x r matrix is L^{-1} Q
    L^{-T}. At d > r, J is singular and I + R J as ill-conditioned as R J
    is large, so the information form would lose digits that the r x r
    system keeps.
    """
    (T, d, _), r, K = Gs.shape, B.shape[1], u.shape[1]
    B, J = (np.broadcast_to(X, (T,) + X.shape[1:]) for X in (B, J))
    RP, P, eye = np.empty((2, T, K, d, d)), np.tile(P, (K, 1, 1)), np.eye(min(d, r))
    for k in range(T):
        GPG = Gs[k] @ P @ Gs[k].T
        if Ws is not None:
            GPG += Ws[k]
        R = np.add(GPG, GPG.swapaxes(1, 2), out=RP[0, k])
        R /= c
        RB = R @ B[k].T
        X = (_umath_linalg.solve(eye + R @ J[k], R) if d <= r
             else R - RB @ _umath_linalg.solve(eye + B[k] @ RB, RB.swapaxes(1, 2)))
        X += X.swapaxes(1, 2)
        X *= 0.5 * u[k]
        P = np.add(R * (1.0 - u[k]), X, out=RP[1, k])
    return RP


def _covariance_small(Gs, Ws, B, J, c, P, u) -> np.ndarray:
    """R and P (2 x T x K x d x d) of every step and mode at d <= 2, with the
    arguments of :func:`_covariance_numpy`.

    Its recursion written out on Python floats, a step for each d: at these
    sizes a numpy call costs more than its arithmetic. A step reads G, W (0
    under a discount), J and, at d = 2, det J as one row of floats. Where
    all are constant (stride 0 in time) that row is converted once for every
    step, else once a step.

    X = (I + R J)^{-1} R is the adjugate of I + R J over its determinant,
    which for 2 x 2 matrices expand as adj(I + R J) R = R + det(R) adj(J)
    and det(I + R J) = 1 + tr(R J) + det(R) det(J): each term is positive
    semidefinite where R and J are, and det(I + R J) = det Q / det V >= 1,
    so nothing cancels but inside det R and det J. det J is the sum of the
    squared 2 x 2 minors of B (Cauchy-Binet), each pair of rows counted
    twice and halved, exactly 0 at r = 1. Where det(I + R J) is 0, so is
    det Q, which fails; X is NaN there, so no Python division by 0 raises.

    At d = 1 the state is a scalar, and its step is the d = 2 step on the
    model padded with zeros in the second row and column of G, W, J and P,
    less the terms that are 0 there: det(I + R J) = 1 + r j + 0 and
    X = (r + 0 j11) / det(I + R J). So its records are the padded model's,
    bit for bit, up to the first step whose Q fails: the padding's +0 terms
    are kept only where they turn a -0.0 into 0.0.
    """
    (T, d, _), K = Gs.shape, u.shape[1]
    inputs = [Gs, np.zeros((1, d, d)) if Ws is None else Ws, J]
    if d == 2:
        minors = B[:, :, 0, None] * B[:, None, :, 1] - B[:, :, 1, None] * B[:, None, :, 0]
        inputs.append(0.5 * np.square(minors).sum(axis=(1, 2))[:, None])
    if all(len(X) == 1 or X.strides[0] == 0 for X in inputs):
        step_inputs = partial(repeat, np.concatenate([X[0].ravel() for X in inputs]).tolist(), T)
    else:
        table = np.concatenate([np.broadcast_to(X, (T,) + X.shape[1:]).reshape(T, -1)
                                for X in inputs], axis=1)
        step_inputs = partial(Struct(f"{table.shape[1]}d").iter_unpack, table)
    rows, pack, nan = np.empty((K, T, 2, d, d)), Struct(f"{2 * d * d}d").pack_into, float("nan")
    for row, u_mode, v_mode in zip(rows, *(x.reshape(T, K).T.tolist() for x in (u, 1.0 - u))):
        steps = zip(range(0, row.nbytes, 16 * d * d), step_inputs(), u_mode, v_mode)
        if d == 1:
            p00 = float(P[0, 0])
            # + 0.0 stands for the padding's +0 terms where a -0.0 would differ;
            # x * 2.0 is x + x exactly
            for at, (g00, w00, j00), u_t, v_t in steps:
                r00 = (g00 * p00 * g00 + 0.0 + w00) * 2.0 / c
                p00 = (v_t + u_t / ((1.0 + r00 * j00) or nan)) * r00
                pack(row, at, r00, p00)
            continue
        p00, p01, p10, p11 = P.ravel().tolist()
        for at, (g00, g01, g10, g11, w00, w01, w10, w11, j00, j01, _, j11, dj), u_t, v_t in steps:
            gp00, gp01 = g00 * p00 + g01 * p10, g00 * p01 + g01 * p11
            gp10, gp11 = g10 * p00 + g11 * p10, g10 * p01 + g11 * p11
            x00 = gp00 * g00 + gp01 * g01 + w00
            x01 = (gp00 * g10 + gp01 * g11 + w01) + (gp10 * g00 + gp11 * g01 + w10)
            x11 = gp10 * g10 + gp11 * g11 + w11
            r00, r01, r11 = (x00 + x00) / c, x01 / c, (x11 + x11) / c
            dr = r00 * r11 - r01 * r01
            # P = (1 - u + s) R + s det(R) adj(J), s = u / det(I + R J)
            s = u_t / ((1.0 + (r00 * j00 + r11 * j11 + 2.0 * r01 * j01) + dr * dj) or nan)
            vs, dr = v_t + s, s * dr
            p00, p11 = vs * r00 + dr * j11, vs * r11 + dr * j00
            p01 = p10 = vs * r01 - dr * j01
            pack(row, at, r00, r01, r01, r11, p00, p01, p01, p11)
    return rows.transpose(2, 1, 0, 3, 4)


def _gains(Fs, Vs, R) -> tuple[np.ndarray, np.ndarray]:
    """Q = sym(F'RF + V) and the gain A = RF Q^{-1} (T x K x ...) of every
    step and mode, from F and V as T-stacks and the R of a covariance loop,
    in one batched stage.

    RF and F'RF are :func:`_products`, so a column of F that is 0 adds exact
    zeros and leaves the other columns' bits as they are. A Q = RF is solved
    by Gaussian elimination on the rows of Q, without pivoting, as Q is
    symmetric and, where :func:`_check` passes it, positive definite (so its
    pivots need no search; Higham, ch. 10), then back substitution: each
    step one elementwise numpy call over every step, mode and row of RF.
    So each row of A has the bits of its own system at any d, a padded row
    or column adds exact zeros, and r = 1 is one division. A singular Q
    gives inf or NaN in A, and nothing raises.
    """
    F = Fs[:, None]
    RF = _products(R, F)
    FRF = _products(F.swapaxes(2, 3), RF) + Vs[:, None]
    Q = (FRF + FRF.swapaxes(2, 3)) * 0.5
    U, A, r = Q.copy(), RF, Q.shape[-1]
    for i in range(r - 1):
        ratio = U[..., i + 1:, i] / U[..., i, i, None]
        U[..., i + 1:, i + 1:] -= ratio[..., None] * U[..., i, None, i + 1:]
        A[..., i + 1:] -= A[..., i, None] * ratio[..., None, :]
    for i in reversed(range(r)):
        for j in range(i + 1, r):
            A[..., i] -= U[..., i, j, None] * A[..., j]
        A[..., i] /= U[..., i, i, None]
    return Q, A


def _factor(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Cholesky factor L of a stack of matrices X (... x n x n), and
    where (...) an X is not positive definite: where a pivot ratio
    L_ii^2 / X_ii is at most ``_PIVOT_C`` eps or NaN (under ``_run``'s
    errstate the gufunc behind np.linalg.cholesky leaves NaN in the factor of
    a matrix it cannot factor)."""
    chol = _umath_linalg.cholesky_lo(X, signature="d->d")
    pivots = np.diagonal(chol, axis1=-2, axis2=-1) ** 2 / np.diagonal(X, axis1=-2, axis2=-1)
    return chol, ~(pivots > _PIVOT_C * np.finfo(float).eps).all(axis=-1)


def _check(Q: np.ndarray, e: np.ndarray, update: np.ndarray) -> np.ndarray:
    """The Cholesky factor L of the K x T stack of Q, or :class:`FilterError`
    at the earliest step whose records fail a check.

    Per step, in the order they are raised: Q not finite; Q not positive
    definite by the rule of :func:`_factor`; e not finite where a mode
    updates with it (``update``, K x T).
    """
    chol, failed = _factor(Q)
    checks = np.stack([
        ~np.isfinite(Q).all(axis=(0, 2, 3)),
        failed.any(axis=0),
        (update & ~np.isfinite(e).all(axis=(2, 3))).any(axis=0),
    ], axis=1)
    if checks.any():
        k, check = np.argwhere(checks)[0]
        raise FilterError(_STEP_FAILURES[check], t=int(k) + 1)
    return chol


def _scale(chol, e, update, gain, observed, n0) -> tuple[np.ndarray, np.ndarray]:
    """The dof n (K x (T + 1) x p, n0 first) and whitened residuals Z (K x T
    x r x M x p) of every step and mode, from the factors L and residuals e
    that passed :func:`_check`, the schedule (``update`` K x T) and the prior n0.

    A variable's dof grows by its observed count at each step a mode updates,
    and N^{1/2} S N^{1/2} by the Gram matrix C_t = Z'Z of Z = L^{-1} e on the
    columns that the mode moves (``gain``, K x T x 1 x M p): with nn_t =
    outer(sqrt(n_t), sqrt(n_t)), :func:`_stack` builds S_t = (S0 * nn_0 + C_1
    + ... + C_t) / nn_t on first read; Z is r/p its size.
    Z is one forward substitution over the r rows of L for all steps at once:
    row i is e_i less L_ij z_j for j = 0, ..., i - 1 in turn, divided by L_ii.
    L is already triangular, so no LU is run.

    n and Z are allocated here, not in :func:`_run`'s buffer of records:
    every series output keeps a view of n, and of Z until its S is read,
    and a view into the buffer would hold all of it. A copy of a series' Z
    would not do: einsum's sum over r follows Z's layout, so S would round
    differently from the record's stack.
    """
    (K, T, r, Mp), p = e.shape, observed.shape[2]
    n = np.empty((K, T + 1, p))
    n[:, 0] = n0
    np.sum(observed, axis=1, out=n[0, 1:])
    n[1:, 1:] = n[0, 1:]
    n[:, 1:][~update] = 0.0
    np.cumsum(n, axis=1, out=n)
    # Z is exactly 0 at the steps that do not update, whatever e holds there,
    # and _check has left every factor finite with a positive diagonal.
    Z = np.zeros(e.shape)
    np.copyto(Z, e, where=update[:, :, None, None])
    for i in range(r):
        Z[:, :, i] /= chol[:, :, i, i, None]
        Z[:, :, i + 1:] -= chol[:, :, i + 1:, i, None] * Z[:, :, i, None]
    Z *= gain
    return n, Z.reshape(K, T, r, Mp // p, p)


# np.cumsum over t walks each entry of a step down the time axis, against its
# memory layout, while one add per step pays a call per step. Measured on
# einsum plus running sum (2-vCPU Xeon, numpy 2.4; 44, 100 and 2,000 steps, one
# and two modes), the two tie at about this many entries a step in one mode:
# np.cumsum is 1.6-18x faster at 9-144 (the CLI's p = 3, the study's M p^2 = 80)
# and the loop 2-2.5x faster at 1,600 (p = 40: 0.12 against 0.27 ms a block
# of 44 steps, 7.8 against 15.8 ms for 2,000 steps).
_WIDE_STEP = 400


def _sums(Z, sn, S0, carry) -> np.ndarray:
    """The undivided sums N^{1/2} S N^{1/2} (K x T x M x p x p) after each of
    Z's T steps: their Gram matrices summed over t in place, from ``carry``,
    the sum before the first of them, or from S0 * nn_0 when it is None."""
    S = np.einsum("ktrmi,ktrmj->ktmij", Z, Z)
    S[:, 0] += S0 * (sn[:, 0, :, None] * sn[:, 0, None, :])[:, None] if carry is None else carry
    if S[0, 0].size < _WIDE_STEP:
        np.cumsum(S, axis=1, out=S)
    else:
        # the same additions in the same order, a step at a time
        for t in range(1, S.shape[1]):
            np.add(S[:, t - 1], S[:, t], out=S[:, t])
    return S


@np.errstate(all="ignore")
def _stack(Z, sn, started, S0, steps=slice(None), carry=None) -> np.ndarray:
    """The covariance scale S (K x L x M x p x p) after the L ``steps`` of a
    run and every mode, from :func:`_scale`'s Z and sqrt(n) (K x (T + 1) x p,
    n0 first), the steps from each mode's first update on (``started``, K x
    T), S0, and ``carry``, the undivided sum before the first of the steps
    (None at a run's first step). Over all T steps it is the whole stack; over
    the block of steps that holds t it is S_t with the same bits, at the cost
    of that block. Built on read, so under its own errstate."""
    T, p = Z.shape[1], Z.shape[-1]
    start, stop, _ = steps.indices(T)
    S = _sums(Z[:, steps], sn[:, start:stop + 1], S0, carry)
    # Each block of steps is divided by sqrt(n_i) * sqrt(n_j), the same
    # product for S_ij and S_ji, so S stays exactly symmetric. A block's
    # product stack holds at most K x T x p entries (K p x p products if T < p).
    block = max(1, T // p)
    for k in range(start, stop, block):
        s = sn[:, k + 1:min(k + block, stop) + 1]
        S[:, k - start:k - start + block] /= (s[..., :, None] * s[..., None, :])[:, :, None]
    # Steps before a mode's first update keep the prior bit for bit.
    S[~started[:, steps]] = S0
    return S


@np.errstate(all="ignore")
def _starts(Z, sn, S0, L) -> list:
    """The undivided sums before each block of L of Z's steps, None (the
    prior's) first: one pass of :func:`_sums` over the blocks but the last,
    each block from the sum before it, holding one block at a time."""
    starts = [None]
    for a in range(0, Z.shape[1] - L, L):
        starts.append(_sums(Z[:, a:a + L], sn[:, a:a + L + 1], S0, starts[-1])[:, -1].copy())
    return starts


class _SeriesScale:
    """S[key] of mode k, series i of a :func:`_run` record. The whole stack
    (key ``slice(None)``) is the record's, built once for every mode and
    series. A step t is built by :func:`_stack` over its block of L =
    floor(sqrt(T)) steps, the block rule of :func:`_scan`, from the sum
    before the block; the first such read takes those sums from
    :func:`_starts`. The block last built is kept, so a sweep builds each
    block once."""

    def __init__(self, rec: dict, k: int, i: int):
        Z, sn, started, S0 = rec["gram"]
        self._stack, self._k, self._i = rec["S"], k, i
        self._gram = Z[k:k + 1, :, :, i:i + 1], sn[k:k + 1], started[k:k + 1], S0
        self._L = math.isqrt(started.shape[1])
        self._starts = self._block = None

    def __call__(self, key: int | slice) -> np.ndarray:
        if isinstance(key, slice):
            return np.ascontiguousarray(self._stack()[self._k, :, self._i])[key]
        Z, sn, _, S0 = self._gram
        L, b = self._L, key // self._L
        if self._block is None or self._block[0] != b:
            if self._starts is None:
                self._starts = _starts(Z, sn, S0, L)
            steps = slice(b * L, (b + 1) * L)
            self._block = b, _stack(*self._gram, steps, self._starts[b])[0, :, 0]
        return self._block[1][key - b * L]


def _standardize(e, Q, Z, sn, started, S0, obs_cols, std_err) -> np.ndarray:
    """The residuals e (K x T x r x M p) standardized by sqrt(Q_kk S_jj), S
    from the previous posterior (S0 at the first step); NaN where
    ``obs_cols`` marks an entry missing. diag(S) takes :func:`_stack`'s
    additions and divisions on the diagonal alone, so S itself is not built.
    Written into ``std_err``, a view of :func:`_run`'s buffer of records, in
    place: n tiled over the series, then q S_jj, its root, e over it and
    the NaN."""
    K, T, r, M, p = Z.shape
    s = np.empty((K, T + 1, M, p))
    s[:, 0] = s0 = np.diag(S0)
    diag = np.einsum("ktrmi,ktrmi->ktmi", Z, Z, out=s[:, 1:])
    diag[:, 0] += s0 * sn[:, 0, None] ** 2
    np.cumsum(diag, axis=1, out=diag)
    # n tiled over the series, in the place of std_err until std_err is written
    nn = np.square(sn[:, 1:, None], out=std_err.reshape(-1)[:diag.size].reshape(diag.shape))
    np.divide(diag, nn, out=diag)
    diag[~started] = s0
    q = np.diagonal(Q, axis1=-2, axis2=-1)[..., None]
    np.multiply(q, s[:, :-1].reshape(K, T, 1, M * p), out=std_err)
    np.sqrt(std_err, out=std_err)
    np.divide(e, std_err, out=std_err)
    np.copyto(std_err, np.nan, where=~obs_cols)
    return std_err


def _series_output(rec: dict, k: int, i: int) -> FilterOutput:
    """The :class:`FilterOutput` of mode k, series i of a :func:`_run` record."""
    p = rec["observed"].shape[2]
    cols = slice(i * p, (i + 1) * p)
    series = ("a", "f", "e", "std_err", "m")
    return FilterOutput(
        mode=rec["modes"][k], prior=rec["prior"], observed=rec["observed"],
        **{name: np.ascontiguousarray(rec[name][k, :, :, cols]) for name in series},
        **{name: rec[name][k] for name in ("R", "Q", "A", "P", "n")},
        _S=_SeriesScale(rec, k, i),
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
    return tuple((partly + 1).tolist()), _msse(rec["std_err"], observed), corr


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
