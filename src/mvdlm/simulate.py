"""Bivariate local-level simulation and the missing-data replication study.

The generator produces a two-variable random-walk-plus-noise series in which
the observation noise is correlated across variables but the level noise is
not. Gaps are then punched into the series by a missing pattern, and the
replication harness compares the masked-update filter against the classical
discard-the-whole-vector filter over many seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dlm
from .distributions import MiwParams, _count
from .dlm import ModelSpec, NmiwState
from .errors import DomainError

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
        if not -1.0 < self.corr < 1.0:
            raise DomainError(f"correlation must lie in (-1, 1), got {self.corr}")
        for name, pair in (("obs_var", self.obs_var), ("level_var", self.level_var)):
            # written so that NaN fails too
            if len(pair) != 2 or not all(0.0 < x < np.inf for x in pair):
                raise DomainError(f"{name} must be two positive finite variances, got {pair}")
        object.__setattr__(self, "obs_var", tuple(float(x) for x in self.obs_var))
        object.__setattr__(self, "level_var", tuple(float(x) for x in self.level_var))


def gen_local_level(cfg: LocalLevelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Generate levels and data, each T x 2.

    levels[t] = levels[t-1] + zeta_t with independent zeta components,
    data[t] = levels[t] + eps_t with corr(eps_1, eps_2) = cfg.corr. The
    starting level is standard normal. Draw order (start, level noise,
    observation noise) is fixed, so a seed pins the whole path.
    """
    rng = np.random.default_rng(cfg.seed)
    v1, v2 = cfg.obs_var
    c = cfg.corr * np.sqrt(v1 * v2)
    eps_cov = np.array([[v1, c], [c, v2]])
    L = np.linalg.cholesky(eps_cov)

    start = rng.standard_normal(2)
    zeta = rng.standard_normal((cfg.T, 2)) * np.sqrt(np.asarray(cfg.level_var))
    eps = rng.standard_normal((cfg.T, 2)) @ L.T

    levels = start + np.cumsum(zeta, axis=0)
    data = levels + eps
    return levels, data


@dataclass(frozen=True)
class MissingPattern:
    """Map from 1-based time index to the set of 1-based missing variables."""

    missing: dict[int, frozenset[int]]

    def __post_init__(self):
        clean: dict[int, frozenset[int]] = {}
        for t, variables in self.missing.items():
            t = int(t)
            if t < 1:
                raise DomainError(f"time indices are 1-based, got {t}")
            vs = frozenset(int(j) for j in variables)
            if any(j < 1 for j in vs):
                raise DomainError(f"variable indices are 1-based, got {sorted(vs)}")
            if vs:
                clean[t] = vs
        object.__setattr__(self, "missing", clean)

    def partial_times(self, p: int) -> tuple[int, ...]:
        """Times where some but not all of the p variables are missing."""
        return tuple(sorted(t for t, vs in self.missing.items() if 0 < len(vs) < p))


DEFAULT_MISSING_PATTERN = MissingPattern(
    {24: frozenset({2}), 43: frozenset({2}), 60: frozenset({1, 2}), 75: frozenset({1}), 86: frozenset({2})}
)


def _missing_mask(pattern: MissingPattern, T: int, p: int) -> np.ndarray:
    """T x p observed mask of a pattern over a series of length T."""
    observed = np.ones((T, p), dtype=bool)
    for t, vs in pattern.missing.items():
        if t > T:
            raise DomainError(f"pattern time {t} exceeds series length {T}")
        if any(j > p for j in vs):
            raise DomainError(f"pattern at t={t} names variables beyond p={p}: {sorted(vs)}")
        observed[t - 1, [j - 1 for j in vs]] = False
    return observed


def apply_missing(data: np.ndarray, pattern: MissingPattern) -> np.ndarray:
    """Mask a T x p data matrix into a T x 1 x p observation array (r = 1),
    NaN where the pattern marks a value missing."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DomainError(f"data must be a T x p matrix, got shape {data.shape}")
    return np.where(_missing_mask(pattern, *data.shape), data, np.nan)[:, None, :]


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
    W = None if w is None else np.array([[float(w)]])
    return ModelSpec(
        d=1,
        p=p,
        r=1,
        F=np.array([[1.0]]),
        G=np.array([[1.0]]),
        V=np.array([[float(v_obs)]]),
        W=W,
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
    first_new / first_classical are the two filter runs of replication 0.
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

    Replication i reuses ``cfg`` with seed ``cfg.seed + i``. All replications
    share the missing pattern, so both modes filter them all together in one
    batched pass. The correlation estimates come from the masked-update
    posterior at each partially missing time (the classical filter has not
    updated at those times at all).
    """
    M = _count(n_replications, "n_replications")
    p = 2
    if model is None:
        model = local_level_model(p=p)
    if prior is None:
        prior = default_prior(p=p, d=model.d)
    partial_times = pattern.partial_times(p)

    observed = _missing_mask(pattern, cfg.T, p)[:, None, :]
    y = np.stack([gen_local_level(replace(cfg, seed=cfg.seed + i))[1] for i in range(M)])
    modes = ("new", "classical")
    runs = dict(zip(modes, dlm._run(model, prior, y[:, :, None, :], observed, modes)))
    msse_new, msse_classical = (dlm._msse(rec["std_err"], observed) for rec in runs.values())
    S = runs["new"]["S"][[t - 1 for t in partial_times]]
    partial_corr = dlm._corr(S, 0, 1).T

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
        first_new=dlm._series_output(runs["new"], 0),
        first_classical=dlm._series_output(runs["classical"], 0),
    )
