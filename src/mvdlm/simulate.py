"""Bivariate local-level simulation and the missing-data replication study.

The generator produces a two-variable random-walk-plus-noise series in which
the observation noise is correlated across variables but the level noise is
not. Gaps are then punched into the series by a missing pattern, and the
replication harness compares the masked-update filter against the classical
discard-the-whole-vector filter over many seeds.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import dlm
from .distributions import MiwParams
from .dlm import ModelSpec, NmiwState
from .errors import DimensionMismatch, DomainError
from .linalg import _count, _real, _shaped

__all__ = [
    "DEFAULT_MISSING_PATTERN",
    "ExperimentSummary",
    "LocalLevelConfig",
    "MissingPattern",
    "apply_missing",
    "default_prior",
    "gen_local_level",
    "local_level_model",
    "replicate_experiment",
]


@dataclass(frozen=True)
class LocalLevelConfig:
    """Length, observation-noise correlation, per-variable variances, seed."""

    T: int
    corr: float = 0.8
    obs_var: tuple[float, float] = (1.0, 1.0)
    level_var: tuple[float, float] = (0.05, 0.05)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "T", _count(self.T, "T"))
        object.__setattr__(self, "seed", _count(self.seed, "seed", least=0))
        object.__setattr__(self, "corr", float(_shaped(self.corr, (), "corr")))
        if not -1.0 < self.corr < 1.0:
            raise DomainError(f"correlation must lie in (-1, 1), got {self.corr}")
        for name in ("obs_var", "level_var"):
            pair = tuple(_shaped(getattr(self, name), (2,), name).tolist())
            # written so that NaN fails too
            if not all(0.0 < x < np.inf for x in pair):
                raise DomainError(f"{name} must be two positive finite variances, got {pair}")
            object.__setattr__(self, name, pair)


def gen_local_level(cfg: LocalLevelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Generate levels and data, each T x 2, at ``cfg.seed`` by ``_draws``.

    levels[t] = levels[t-1] + zeta_t with independent zeta components,
    data[t] = levels[t] + eps_t with corr(eps_1, eps_2) = cfg.corr. The
    starting level is standard normal. Draw order (start, level noise,
    observation noise) is fixed, so a seed pins the whole path.
    """
    return next(_draws(cfg, (cfg.seed,)))


def _draws(cfg: LocalLevelConfig, seeds: Iterable[int]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Levels and data at each seed in turn, from ``cfg`` read and its noise factored once."""
    v1, v2 = cfg.obs_var
    # the product of the roots only where v1 * v2 overflows: elsewhere the
    # root of the product keeps the bits of every earlier run
    c = cfg.corr * (np.sqrt(v1 * v2) if np.isfinite(v1 * v2) else np.sqrt(v1) * np.sqrt(v2))
    L = np.linalg.cholesky(np.array([[v1, c], [c, v2]]))
    level_sd = np.sqrt(np.asarray(cfg.level_var))
    for rng in map(np.random.default_rng, seeds):
        start = rng.standard_normal(2)
        try:
            zeta = rng.standard_normal((cfg.T, 2)) * level_sd
            eps = rng.standard_normal((cfg.T, 2)) @ L.T
        except (ValueError, MemoryError) as exc:  # numpy refuses or fails the T x 2 arrays
            raise DomainError(f"cannot draw a series of T={cfg.T} steps: {exc}") from exc
        levels = start + np.cumsum(zeta, axis=0)
        yield levels, levels + eps


@dataclass(frozen=True)
class MissingPattern:
    """Map from 1-based time index to the set of 1-based missing variables."""

    missing: dict[int, frozenset[int]]

    def __post_init__(self):
        if not isinstance(self.missing, dict):
            raise DomainError(f"a missing pattern must be a dict, got {self.missing!r}")
        clean: dict[int, frozenset[int]] = {}
        for t, variables in self.missing.items():
            t = _count(t, "pattern time")
            if not isinstance(variables, Iterable):
                raise DomainError(f"pattern at t={t} must list its variables, got {variables!r}")
            vs = frozenset(_count(j, "pattern variable") for j in variables)
            if vs:
                clean[t] = vs
        object.__setattr__(self, "missing", clean)


DEFAULT_MISSING_PATTERN = MissingPattern(
    {24: frozenset({2}), 43: frozenset({2}), 60: frozenset({1, 2}), 75: frozenset({1}), 86: frozenset({2})}
)


def apply_missing(data: np.ndarray, pattern: MissingPattern) -> np.ndarray:
    """Mask ... x T x p data (a T x p matrix, or a stack of them) into a
    ... x T x 1 x p observation array (r = 1), NaN where the pattern marks a
    value missing."""
    data = _real(data, ("T", "p"), "data")
    if data.ndim < 2:
        raise DomainError(f"data must be T x p or a stack of T x p, got shape {data.shape}")
    T, p = data.shape[-2:]
    _never_observed(pattern, T, p)
    observed = np.ones((T, p), dtype=bool)
    for t, vs in pattern.missing.items():
        observed[t - 1, [j - 1 for j in vs]] = False
    return np.where(observed, data, np.nan)[..., None, :]


def _never_observed(pattern: MissingPattern, T: int, p: int) -> frozenset[int]:
    """The variables (1-based) that ``pattern`` leaves missing at every t <= T, read
    from it alone (T may be any length), once it names no t > T and no j > p."""
    for t, vs in pattern.missing.items():
        if t > T:
            raise DomainError(f"pattern time {t} exceeds series length {T}")
        if any(j > p for j in vs):
            raise DomainError(f"pattern at t={t} names variables beyond p={p}: {sorted(vs)}")
    every = range(1, p + 1) if len(pattern.missing) == T else ()
    return frozenset(every).intersection(*pattern.missing.values())


def local_level_model(
    p: int = 2,
    v_obs: float = 1.0,
    discount: float | None = 0.5,
    w: float | None = None,
) -> ModelSpec:
    """Local-level model: scalar state row (d = 1), unit design, single series
    of vector observations (r = 1). ``w`` gives an explicit scalar evolution
    scale instead of a discount factor.

    The default discount of 0.5 keeps the filter adaptive enough that the
    residual-based covariance estimate tracks the observation-noise
    correlation closely in the replication study; see ``replicate_experiment``.
    """
    return ModelSpec(
        d=1,
        p=p,
        r=1,
        F=np.array([[1.0]]),
        G=np.array([[1.0]]),
        V=[[v_obs]],
        W=None if w is None else [[w]],
        discount=discount,
    )


def default_prior(p: int = 2, d: int = 1) -> NmiwState:
    """Vague default prior: zero mean, state scale 1e6 I, identity covariance
    scale with one degree of freedom per variable, v = p."""
    return NmiwState(
        m=np.zeros((d, p)), P=1e6 * np.eye(d), miw=MiwParams(S=np.eye(p), n=np.ones(p), v=float(p))
    )


@dataclass(frozen=True, eq=False)
class ExperimentSummary:
    """Replication study results.

    msse_new / msse_classical are (M, p); win_fraction is the fraction of
    replications in which the masked-update filter has componentwise MSSE no
    larger than the classical filter; partial_corr holds the masked-update
    posterior correlation estimates at each partially missing time.
    first_y is replication 0's observations (T x 1 x 2, NaN where the pattern
    marks a value missing), a copy that keeps no stack of all M alive, and
    first_new / first_classical are the two filter runs of it.
    """

    n_replications: int
    partial_times: tuple[int, ...]
    msse_new: np.ndarray
    msse_classical: np.ndarray
    mean_msse_new: np.ndarray
    mean_msse_classical: np.ndarray
    win_fraction: float
    partial_corr: np.ndarray
    mean_partial_corr: float
    first_y: np.ndarray
    first_new: dlm.FilterOutput
    first_classical: dlm.FilterOutput


def replicate_experiment(
    n_replications: int,
    cfg: LocalLevelConfig,
    pattern: MissingPattern,
    model: ModelSpec | None = None,
    prior: NmiwState | None = None,
) -> ExperimentSummary:
    """Run both filter modes over many seeded replications and aggregate.

    Replication i is ``gen_local_level``'s draw at seed ``cfg.seed + i``, bit
    for bit, all drawn by ``_draws`` from ``cfg`` as checked once. Both modes
    filter them together in one batched pass (they share the pattern). The
    correlation estimates come from the masked-update posterior at each
    partially missing time (the classical filter has not updated then).

    The study's own rules are checked before anything is drawn: the model is
    the bivariate local level's shape (p = 2, r = 1), and the pattern names
    no t > T or j > 2 and leaves no variable missing at every t (the study
    could not score it; a model that would fail cannot hide this).
    """
    M = _count(n_replications, "n_replications")
    if model is None:
        model = local_level_model(p=2)
    if (model.p, model.r) != (2, 1):
        raise DimensionMismatch("the study's bivariate local level needs p = 2, r = 1, "
                                f"got p = {model.p}, r = {model.r}")
    if never := _never_observed(pattern, cfg.T, 2):
        raise DomainError(f"pattern leaves variable {min(never)} missing at every t, "
                          "so the study cannot score it")
    if prior is None:
        prior = default_prior(p=2, d=model.d)

    y = np.stack([data for _, data in _draws(cfg, range(cfg.seed, cfg.seed + M))])
    y = apply_missing(y, pattern)
    rec = dlm._run(model, prior, y, dlm._MODES)
    partial_times, (msse_new, msse_classical), corr = dlm._summarize(rec)
    partial_corr = corr[0, :, :, 0]
    first = [dlm._series_output(rec, k, 0) for k in range(2)]
    for out in first:
        out.S  # replication 0's S alone, so the summary keeps no stack of all M

    wins = np.all(msse_new <= msse_classical, axis=1)
    return ExperimentSummary(
        n_replications=M,
        partial_times=partial_times,
        msse_new=msse_new,
        msse_classical=msse_classical,
        mean_msse_new=msse_new.mean(axis=0),
        mean_msse_classical=msse_classical.mean(axis=0),
        win_fraction=float(np.mean(wins)),
        partial_corr=partial_corr,
        mean_partial_corr=float(partial_corr.mean()) if partial_corr.size else float("nan"),
        first_y=y[0].copy(),
        first_new=first[0],
        first_classical=first[1],
    )
