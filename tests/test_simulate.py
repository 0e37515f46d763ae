"""Data generation and the two-mode replication study."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mvdlm as mv


def test_generator_is_deterministic():
    cfg = mv.LocalLevelConfig(T=50, corr=0.8, seed=7)
    l1, d1 = mv.gen_local_level(cfg)
    l2, d2 = mv.gen_local_level(cfg)
    assert np.array_equal(l1, l2)
    assert np.array_equal(d1, d2)
    _, d3 = mv.gen_local_level(mv.LocalLevelConfig(T=50, corr=0.8, seed=8))
    assert not np.array_equal(d1, d3)


def test_observation_noise_correlation_matches_target():
    cfg = mv.LocalLevelConfig(T=10_000, corr=0.8, seed=11)
    levels, data = mv.gen_local_level(cfg)
    eps = data - levels
    r = np.corrcoef(eps.T)[0, 1]
    assert abs(r - 0.8) < 0.02


def test_zero_correlation_case():
    cfg = mv.LocalLevelConfig(T=10_000, corr=0.0, seed=12)
    levels, data = mv.gen_local_level(cfg)
    eps = data - levels
    assert abs(np.corrcoef(eps.T)[0, 1]) < 0.1


def test_level_innovations_uncorrelated_with_stated_variance():
    cfg = mv.LocalLevelConfig(T=10_000, corr=0.8,
                              level_var=(0.05, 0.2), seed=13)
    levels, _ = mv.gen_local_level(cfg)
    zeta = np.diff(levels, axis=0)
    assert abs(np.corrcoef(zeta.T)[0, 1]) < 0.05
    assert np.var(zeta[:, 0]) == pytest.approx(0.05, rel=0.1)
    assert np.var(zeta[:, 1]) == pytest.approx(0.2, rel=0.1)


def test_observation_variances_match_config():
    cfg = mv.LocalLevelConfig(T=10_000, corr=0.5, obs_var=(1.0, 2.5), seed=14)
    levels, data = mv.gen_local_level(cfg)
    eps = data - levels
    assert np.var(eps[:, 0]) == pytest.approx(1.0, rel=0.1)
    assert np.var(eps[:, 1]) == pytest.approx(2.5, rel=0.1)


def test_observation_correlation_survives_variances_whose_product_overflows():
    # v1 * v2 = 1e400 is not a float, yet each variance and the covariance are
    cfg = mv.LocalLevelConfig(T=10_000, corr=0.8, obs_var=(1e200, 1e200), seed=15)
    levels, data = mv.gen_local_level(cfg)
    eps = (data - levels) / 1e100
    assert np.isfinite(eps).all()
    assert abs(np.corrcoef(eps.T)[0, 1] - 0.8) < 0.02
    assert np.var(eps[:, 0]) == pytest.approx(1.0, rel=0.1)


@pytest.mark.parametrize("kw", [
    dict(obs_var=(np.nan, 1.0), level_var=(np.inf, 0.1)),
    dict(obs_var=(1.0, np.inf)),
    dict(level_var=(0.05, np.nan)),
    dict(obs_var=(-np.inf, 1.0)),
], ids=["nan-and-inf", "obs-inf", "level-nan", "obs-minus-inf"])
def test_config_rejects_non_finite_variances(kw):
    with pytest.raises(mv.DomainError, match="positive finite variances"):
        mv.LocalLevelConfig(T=5, **kw)


def test_config_validation():
    with pytest.raises(mv.DomainError):
        mv.LocalLevelConfig(T=0)
    with pytest.raises(mv.DomainError):
        mv.LocalLevelConfig(T=10, corr=1.0)
    with pytest.raises(mv.DomainError):
        mv.LocalLevelConfig(T=10, obs_var=(1.0, -1.0))
    with pytest.raises(mv.DomainError):
        mv.LocalLevelConfig(T=10, level_var=(0.0, 0.1))


def test_config_rejects_non_integral_length_and_seed():
    for bad in (dict(T=10.7), dict(T=10, seed=2.5), dict(T=10, seed=-0.5)):
        with pytest.raises(mv.DomainError):
            mv.LocalLevelConfig(**bad)
    cfg = mv.LocalLevelConfig(T=10.0, seed=3.0)
    assert (type(cfg.T), type(cfg.seed)) == (int, int)
    _, data = mv.gen_local_level(cfg)
    assert np.array_equal(data, mv.gen_local_level(mv.LocalLevelConfig(T=10, seed=3))[1])


@pytest.mark.parametrize("draw", [
    lambda: mv.replicate_experiment(2.5, mv.LocalLevelConfig(T=10), mv.MissingPattern({})),
    lambda: mv.sample_miw(mv.MiwParams(S=np.eye(2), n=np.ones(2), v=2.0),
                          np.random.default_rng(0), size=2.5),
    lambda: mv.sample_matrix_normal(
        mv.MatrixNormalParams(M=np.zeros((1, 2)), P=np.eye(1), Sigma=np.eye(2)),
        np.random.default_rng(0), size=2.5),
], ids=["replicate_experiment", "sample_miw", "sample_matrix_normal"])
def test_counts_must_be_integral(draw):
    # a count of 2.5 used to run or draw 2
    with pytest.raises(mv.DomainError, match="must be a positive integer, got 2.5"):
        draw()


@pytest.mark.parametrize("draw", [
    lambda: mv.LocalLevelConfig(T=True),
    lambda: mv.LocalLevelConfig(T=10, seed=False),
    lambda: mv.LocalLevelConfig(T="3"),
    lambda: mv.ModelSpec(d=True, p=2, r=1, F=np.eye(1), G=np.eye(1), V=np.eye(1), discount=0.9),
    lambda: mv.replicate_experiment(True, mv.LocalLevelConfig(T=10), mv.MissingPattern({})),
    lambda: mv.sample_miw(mv.MiwParams(S=np.eye(2), n=np.ones(2), v=2.0),
                          np.random.default_rng(0), size=True),
    lambda: mv.sample_matrix_normal(
        mv.MatrixNormalParams(M=np.zeros((1, 2)), P=np.eye(1), Sigma=np.eye(2)),
        np.random.default_rng(0), size=np.True_),
], ids=["T-true", "seed-false", "T-string", "ModelSpec-d-true", "replicate_experiment-true",
        "sample_miw-true", "sample_matrix_normal-numpy-true"])
def test_counts_reject_truth_values_and_strings(draw):
    # a truth value used to count as 1 (or 0), and a string raised a bare TypeError
    with pytest.raises(mv.DomainError, match="must be a (positive|non-negative) integer, got"):
        draw()


# ---------------------------------------------------------------------------
# missing-value pattern application
# ---------------------------------------------------------------------------

def test_empty_pattern_all_observed_and_values_preserved():
    cfg = mv.LocalLevelConfig(T=20, seed=15)
    _, data = mv.gen_local_level(cfg)
    values = mv.apply_missing(data, mv.MissingPattern({}))
    assert values.shape == (20, 1, 2)
    assert np.array_equal(values[:, 0], data)  # nothing is NaN


def test_default_pattern_classification():
    # {24:{2}, 43:{2}, 60:{1,2}, 75:{1}, 86:{2}} - time 60 is fully missing,
    # the rest are partial; times are 1-based, variables 1-based.
    pat = mv.DEFAULT_MISSING_PATTERN
    cfg = mv.LocalLevelConfig(T=100, seed=16)
    _, data = mv.gen_local_level(cfg)
    values = mv.apply_missing(data, pat)
    assert values.shape == (100, 1, 2)
    observed = ~np.isnan(values)
    assert int((~observed).sum()) == 6
    assert not observed[59].any()              # t=60: nothing observed
    for t, j_missing in ((24, 1), (43, 1), (86, 1), (75, 0)):
        row = observed[t - 1, 0]
        assert not row[j_missing]
        assert row[1 - j_missing]
    assert mv.replicate_experiment(1, cfg, pat).partial_times == (24, 43, 75, 86)
    # all unmasked entries preserved bit-exactly
    assert np.array_equal(values[:, 0][observed[:, 0]], data[observed[:, 0]])


def test_pattern_validation():
    cfg = mv.LocalLevelConfig(T=10, seed=17)
    _, data = mv.gen_local_level(cfg)
    with pytest.raises(mv.DomainError):
        mv.apply_missing(data, mv.MissingPattern({11: frozenset({1})}))
    with pytest.raises(mv.DomainError):
        mv.apply_missing(data, mv.MissingPattern({3: frozenset({5})}))
    # each used to be truncated or coerced: to {24: {2}}, {1: {1}} and {24: {2}}
    for bad in ({24.5: [2.7]}, {24: [2.7]}, {True: [True]}, {24: [True]}, {"24": ["2"]},
                {24: ["2"]}, {0: [1]}, {24: [0]}, {float("nan"): [1]},
                # a scalar entry and a list of pairs used to raise TypeError / AttributeError
                {24: 2}, {24: 2.0}, [(1, [2])], None):
        with pytest.raises(mv.DomainError):
            mv.MissingPattern(bad)
    assert mv.MissingPattern({24.0: [2.0], np.int64(3): [np.int64(1)]}).missing == {
        24: frozenset({2}), 3: frozenset({1})}


# ---------------------------------------------------------------------------
# replication harness
# ---------------------------------------------------------------------------

def test_partial_times_are_sorted_and_skip_full_gaps():
    # keys out of order, one fully missing step (t=10) and an empty entry
    pattern = mv.MissingPattern({40: [1], 10: [1, 2], 5: [2], 33: [], 20: [2]})
    s = mv.replicate_experiment(3, mv.LocalLevelConfig(T=50, seed=4), pattern)
    assert s.partial_times == (5, 20, 40)
    assert s.partial_corr.shape == (3, 3)


def test_study_rejects_a_pattern_that_never_observes_a_variable():
    # the study has no MSSE for such a variable, so it raises rather than
    # report NaN, and names the variable as the pattern numbers it
    pattern = mv.MissingPattern({t: [2] for t in range(1, 21)})
    with pytest.raises(mv.DomainError, match="pattern leaves variable 2 missing at every t"):
        mv.replicate_experiment(2, mv.LocalLevelConfig(T=20, seed=5), pattern)


def test_study_rejects_a_never_observed_variable_before_a_failing_model_runs():
    # the input error is raised before the run, so a model whose forecast
    # scale fails at t = 1 cannot hide it
    pattern = mv.MissingPattern({t: [2] for t in range(1, 11)})
    with pytest.raises(mv.DomainError, match="pattern leaves variable 2 missing at every t"):
        mv.replicate_experiment(3, mv.LocalLevelConfig(T=10), pattern,
                                model=mv.local_level_model(v_obs=-1e9))


def test_study_rejects_a_model_of_another_shape_before_it_draws():
    # T is too long to draw: the shape rule is raised first
    cfg = mv.LocalLevelConfig(T=10**18)
    for p, r in ((3, 1), (2, 2)):
        model = mv.ModelSpec(d=1, p=p, r=r, F=np.ones((1, r)), G=np.eye(1), V=np.eye(r),
                             discount=0.5)
        with pytest.raises(mv.DimensionMismatch, match=f"p = 2, r = 1, got p = {p}, r = {r}"):
            mv.replicate_experiment(2, cfg, mv.MissingPattern({}), model=model)


def test_single_replication_no_missing_modes_identical():
    cfg = mv.LocalLevelConfig(T=40, corr=0.8, seed=18)
    summary = mv.replicate_experiment(1, cfg, mv.MissingPattern({}))
    assert summary.n_replications == 1
    assert summary.win_fraction == 1.0
    assert np.array_equal(summary.msse_new, summary.msse_classical)
    assert summary.partial_times == ()
    assert summary.partial_corr.shape == (1, 0)


SMALL_PATTERN = mv.MissingPattern({12: frozenset({2}), 30: frozenset({1}),
                                   41: frozenset({1, 2})})


def test_replication_summary_is_deterministic():
    cfg = mv.LocalLevelConfig(T=60, corr=0.8, seed=19)
    s1 = mv.replicate_experiment(5, cfg, SMALL_PATTERN)
    s2 = mv.replicate_experiment(5, cfg, SMALL_PATTERN)
    assert np.array_equal(s1.msse_new, s2.msse_new)
    assert np.array_equal(s1.msse_classical, s2.msse_classical)
    assert np.array_equal(s1.partial_corr, s2.partial_corr)
    assert s1.win_fraction == s2.win_fraction
    assert s1.mean_partial_corr == s2.mean_partial_corr


def test_replications_vary_with_seed_offset():
    cfg = mv.LocalLevelConfig(T=60, corr=0.8, seed=19)
    s = mv.replicate_experiment(3, cfg, SMALL_PATTERN)
    assert s.partial_times == (12, 30)
    assert not np.array_equal(s.msse_new[0], s.msse_new[1])


def test_hundred_replications_recover_noise_correlation():
    cfg = mv.LocalLevelConfig(T=100, corr=0.8, seed=0)
    summary = mv.replicate_experiment(100, cfg, mv.DEFAULT_MISSING_PATTERN)
    assert summary.partial_times == (24, 43, 75, 86)
    assert summary.msse_new.shape == (100, 2)
    assert summary.partial_corr.shape == (100, 4)
    assert 0.7 <= summary.mean_partial_corr <= 0.9
    assert np.all(np.isfinite(summary.msse_new))
    assert np.all(np.isfinite(summary.msse_classical))
    assert 0.0 <= summary.win_fraction <= 1.0
    assert np.allclose(summary.mean_msse_new, summary.msse_new.mean(axis=0))
    assert np.allclose(summary.mean_msse_classical,
                       summary.msse_classical.mean(axis=0))


def _rel_close(got, want, tol=1e-10):
    got, want = np.asarray(got), np.asarray(want)
    scale = float(np.nanmax(np.abs(want))) if want.size else 0.0
    return got.shape == want.shape and np.allclose(
        got, want, rtol=tol, atol=tol * scale, equal_nan=True)


def test_study_summary_keeps_no_scale_stack_of_all_replications():
    # the S stack of 400 replications takes 2.6 MB; replication 0's two runs
    # hold 6.4 kB of it
    cfg = mv.LocalLevelConfig(T=100, corr=0.8, seed=3)
    tracemalloc.start()
    try:
        summary = mv.replicate_experiment(400, cfg, mv.DEFAULT_MISSING_PATTERN)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert summary.first_new.S.shape == (100, 2, 2)
    assert held < 0.5e6, held


def test_batched_study_matches_separate_filter_runs():
    M = 20
    cfg = mv.LocalLevelConfig(T=100, corr=0.8, seed=3)
    pattern = mv.DEFAULT_MISSING_PATTERN
    summary = mv.replicate_experiment(M, cfg, pattern)
    model, prior = mv.local_level_model(p=2), mv.default_prior(p=2)
    studies = {"new": (summary.msse_new, summary.first_new),
               "classical": (summary.msse_classical, summary.first_classical)}
    for i in range(M):
        _, data = mv.gen_local_level(replace(cfg, seed=cfg.seed + i))
        observations = mv.apply_missing(data, pattern)
        for mode, (study_msse, first) in studies.items():
            out = mv.filter(model, observations, prior, mode=mode)
            assert _rel_close(study_msse[i], mv.msse(out)), (i, mode)
            if mode == "new":
                corr = [mv.correlation_estimate(out.states[t - 1], 0, 1)
                        for t in summary.partial_times]
                assert _rel_close(summary.partial_corr[i], corr), i
            if i == 0:
                for name in ("f", "m", "S", "n"):
                    assert _rel_close(getattr(first, name), getattr(out, name)), (mode, name)
