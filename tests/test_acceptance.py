"""End-to-end acceptance checks, one test per criterion.

Each test evaluates its criterion at the stated tolerance, registers a
PASS/FAIL line for the end-of-run report, and then asserts. Tolerances and
instance counts are part of the contract and are not to be loosened.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import mvdlm as mv

import oracles
from conftest import record_criterion


def random_spd(rng, n, scale=1.0):
    B = rng.standard_normal((n, n))
    return scale * (B @ B.T + (n + 0.5) * np.eye(n))


def random_miw(rng, p, extra_dof=0.0):
    return mv.MiwParams(
        S=random_spd(rng, p),
        n=rng.uniform(2.0 + extra_dof, 8.0 + extra_dof, size=p),
        v=float(rng.uniform(p, p + 3.0)),
    )


# ---------------------------------------------------------------------------
# 1. conjugacy identity
# ---------------------------------------------------------------------------

def test_criterion_1_conjugacy_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    combos = [(p, r) for p in (1, 2, 3) for r in (1, 2)]
    worst = 0.0
    for i in range(50):
        p, r = combos[i % len(combos)]
        prior = random_miw(rng, p)
        m = rng.standard_normal((r, p))
        P = random_spd(rng, r)
        Y = m + rng.standard_normal((r, p))
        post = mv.miw_conditional_update(m, P, prior, Y)
        log_marg = mv.mt_log_density(
            Y, mv.MtParams(f=m, Q=P, S=prior.S, n=prior.n, v=prior.v))
        for _ in range(10):
            Sigma = random_spd(rng, p)
            lhs = (mv.matrix_normal_log_density(
                       Y, mv.MatrixNormalParams(M=m, P=P, Sigma=Sigma))
                   + mv.miw_log_density(Sigma, prior)
                   - log_marg)
            rhs = mv.miw_log_density(Sigma, post)
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and elapsed < 10.0
    record_criterion(1, "conjugacy identity", ok,
                     f"max abs error {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. reduction to the classical special cases
# ---------------------------------------------------------------------------

def test_criterion_2_classical_reductions():
    rng = np.random.default_rng(102)
    worst_iw = worst_t = worst_ig = 0.0
    # equal degrees of freedom: plain inverted Wishart with parameter n*S
    for p in (1, 2, 3):
        for _ in range(10):
            S = random_spd(rng, p)
            n = float(rng.uniform(1.0, 9.0))
            params = mv.MiwParams(S=S, n=np.full(p, n), v=float(p))
            Sigma = random_spd(rng, p)
            got = mv.miw_log_density(Sigma, params)
            ref = oracles.iw_logpdf(Sigma, n * S, n + 2.0 * p)
            worst_iw = max(worst_iw, abs(got - ref))
    # scalar matrix-t: univariate Student-t with df = 2v - 2 + n
    for _ in range(20):
        f = float(rng.standard_normal())
        q = float(rng.uniform(0.2, 4.0))
        s = float(rng.uniform(0.2, 4.0))
        n = float(rng.uniform(1.5, 10.0))
        v = float(rng.uniform(1.0, 4.0))
        df = 2.0 * v - 2.0 + n
        params = mv.MtParams(f=np.array([[f]]), Q=np.array([[q]]),
                             S=np.array([[s]]), n=np.array([n]), v=v)
        y = f + float(rng.standard_normal()) * math.sqrt(q)
        ref = oracles.student_t_logpdf(y, df=df, loc=f,
                                       scale=math.sqrt(n * s * q / df))
        worst_t = max(worst_t, abs(mv.mt_log_density(np.array([[y]]), params) - ref))
    # scalar modified inverted Wishart: inverted gamma IG(n/2, n*s/2)
    for _ in range(20):
        s = float(rng.uniform(0.2, 4.0))
        n = float(rng.uniform(1.0, 10.0))
        params = mv.MiwParams(S=np.array([[s]]), n=np.array([n]), v=1.0)
        x = float(rng.uniform(0.2, 5.0))
        ref = oracles.ig_logpdf(x, shape=n / 2.0, rate=n * s / 2.0)
        worst_ig = max(worst_ig, abs(mv.miw_log_density(np.array([[x]]), params) - ref))
    ok = worst_iw < 1e-10 and worst_t < 1e-10 and worst_ig < 1e-10
    record_criterion(2, "classical reductions", ok,
                     f"IW {worst_iw:.2e}, Student-t {worst_t:.2e}, IG {worst_ig:.2e}")
    assert worst_iw < 1e-10
    assert worst_t < 1e-10
    assert worst_ig < 1e-10


# ---------------------------------------------------------------------------
# 3. quadrature normalization
# ---------------------------------------------------------------------------

def test_criterion_3_unit_mass_by_quadrature():
    errs = {}
    errs["iw"] = abs(oracles.quad_unit_mass(
        lambda x: mv.iw_log_density(np.array([[x]]), np.array([[1.8]]), 6.0),
        0.0, np.inf) - 1.0)
    miw = mv.MiwParams(S=np.array([[0.9]]), n=np.array([4.0]), v=1.5)
    errs["miw"] = abs(oracles.quad_unit_mass(
        lambda x: mv.miw_log_density(np.array([[x]]), miw), 0.0, np.inf) - 1.0)
    mt = mv.MtParams(f=np.array([[0.4]]), Q=np.array([[1.6]]),
                     S=np.array([[0.8]]), n=np.array([3.0]), v=2.0)
    errs["mt"] = abs(oracles.quad_unit_mass(
        lambda y: mv.mt_log_density(np.array([[y]]), mt), -np.inf, np.inf) - 1.0)
    mn = mv.MatrixNormalParams(M=np.array([[0.3]]), P=np.array([[2.0]]),
                               Sigma=np.array([[0.7]]))
    errs["matrix-normal"] = abs(oracles.quad_unit_mass(
        lambda y: mv.matrix_normal_log_density(np.array([[y]]), mn),
        -np.inf, np.inf) - 1.0)
    ok = all(e < 1e-6 for e in errs.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in errs.items())
    record_criterion(3, "unit mass by quadrature", ok, detail)
    for k, e in errs.items():
        assert e < 1e-6, k


# ---------------------------------------------------------------------------
# 4. marginalization
# ---------------------------------------------------------------------------

def test_criterion_4_marginalization():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(2, 5))
        q = int(rng.integers(1, p))
        params = random_miw(rng, p, extra_dof=6.0)
        full = mv.miw_mean(params)
        marg = mv.miw_mean(mv.miw_marginal_block(params, q))
        denom = max(1.0, float(np.abs(full[:q, :q]).max()))
        worst = max(worst, float(np.abs(marg - full[:q, :q]).max()) / denom)
    params = random_miw(rng, 3, extra_dof=8.0)
    draws = mv.sample_miw(params, np.random.default_rng(105), size=200_000)
    block = draws[:, :2, :2]
    mc = block.mean(axis=0)
    se = block.std(axis=0, ddof=1) / math.sqrt(len(block))
    expected = mv.miw_mean(mv.miw_marginal_block(params, 2))
    z = float(np.abs((mc - expected) / se).max())
    ok = worst < 1e-12 and z <= 3.0
    record_criterion(4, "marginalization", ok,
                     f"mean mismatch {worst:.1e}, Monte-Carlo max |z| {z:.2f}")
    assert worst < 1e-12
    assert z <= 3.0


# ---------------------------------------------------------------------------
# 5. filter equivalences
# ---------------------------------------------------------------------------

def _random_system(rng, d, p, r, T):
    Fs = rng.standard_normal((T, d, r))
    Gs = np.eye(d) + 0.1 * rng.standard_normal((T, d, d))
    Vs = [random_spd(rng, r, 0.5) for _ in range(8)]
    Ws = [random_spd(rng, d, 0.05) for _ in range(8)]
    model = mv.ModelSpec(d=d, p=p, r=r,
                         F=lambda t: Fs[t - 1], G=lambda t: Gs[t - 1],
                         V=lambda t: Vs[t % 8], W=lambda t: Ws[t % 8])
    prior = mv.NmiwState(m=rng.standard_normal((d, p)),
                         P=random_spd(rng, d),
                         miw=mv.MiwParams(S=np.eye(p) + 0.1,
                                          n=np.ones(p), v=float(p)))
    return model, prior


def test_criterion_5_filter_equivalences():
    rng = np.random.default_rng(106)
    issues = []

    # (i) bit-identical modes over 1e3 random fully observed steps
    model, prior = _random_system(rng, d=2, p=3, r=2, T=1000)
    data = [mv.MaskedObservation.from_values(rng.standard_normal((2, 3)))
            for _ in range(1000)]
    new = mv.filter(model, data, prior, mode="new")
    cls = mv.filter(model, data, prior, mode="classical")
    bit_identical = (
        all(np.array_equal(getattr(new, nm), getattr(cls, nm))
            for nm in ("a", "R", "f", "Q", "A", "e"))
        and all(np.array_equal(s1.m, s2.m) and np.array_equal(s1.P, s2.P)
                and np.array_equal(s1.miw.S, s2.miw.S)
                and np.array_equal(s1.miw.n, s2.miw.n)
                for s1, s2 in zip(new.states, cls.states)))
    if not bit_identical:
        issues.append("modes differ without missing data")

    # (ii) fully missing step is an exact no-op
    model2, prior2 = _random_system(rng, d=2, p=3, r=1, T=20)
    data2 = [mv.MaskedObservation.from_values(rng.standard_normal((1, 3)))
             for _ in range(20)]
    data2[7] = mv.MaskedObservation.from_values(np.full((1, 3), np.nan))
    for mode in ("new", "classical"):
        out2 = mv.filter(model2, data2, prior2, mode=mode)
        st, prev = out2.states[7], out2.states[6]
        if not (np.array_equal(st.m, out2.a[7])
                and np.array_equal(st.miw.S, prev.miw.S)
                and np.array_equal(st.miw.n, prev.miw.n)):
            issues.append(f"full-missing step not a no-op in mode {mode}")

    # (iii) scalar filter against the independent univariate oracle
    T = 300
    y = rng.standard_normal(T).cumsum() * 0.2 + rng.standard_normal(T)
    obs = rng.random(T) > 0.2
    model3 = mv.ModelSpec(d=1, p=1, r=1, F=np.eye(1), G=np.eye(1),
                          V=np.array([[0.9]]), discount=0.9)
    prior3 = mv.NmiwState(m=np.zeros((1, 1)), P=np.array([[50.0]]),
                          miw=mv.MiwParams(S=np.array([[1.2]]),
                                           n=np.array([2.0]), v=1.0))
    data3 = [mv.MaskedObservation.from_values(
                 np.array([[y[t] if obs[t] else np.nan]])) for t in range(T)]
    out3 = mv.filter(model3, data3, prior3)
    ref = oracles.scalar_dlm_filter(y, obs, v=0.9, m0=0.0, p0=50.0, s0=1.2,
                                    n0=2.0, delta=0.9)
    scalar_err = max(
        float(np.abs([s.m[0, 0] for s in out3.states] - np.array(ref.m)).max()),
        float(np.abs([s.P[0, 0] for s in out3.states] - np.array(ref.p)).max()),
        float(np.abs([s.miw.S[0, 0] for s in out3.states] - np.array(ref.s)).max()),
        abs(float(mv.msse(out3)[0]) - oracles.scalar_msse(ref)))
    if scalar_err >= 1e-12:
        issues.append(f"scalar oracle mismatch {scalar_err:.2e}")

    # (iv) missing columns of the posterior mean equal the prior mean exactly,
    # and (v) degree-of-freedom bookkeeping counts observed entries exactly
    model4, prior4 = _random_system(rng, d=2, p=4, r=1, T=200)
    data4 = []
    for _ in range(200):
        row = rng.standard_normal((1, 4))
        mask = rng.random((1, 4)) < 0.3
        data4.append(mv.MaskedObservation.from_values(np.where(mask, np.nan, row)))
    out4 = mv.filter(model4, data4, prior4, mode="new")
    col_exact = True
    for t in range(200):
        st = out4.states[t]
        for j in range(4):
            if not out4.observed[t][0, j]:
                col_exact &= bool(np.array_equal(st.m[:, j], out4.a[t][:, j]))
    if not col_exact:
        issues.append("missing columns of m differ from prior")
    counts = sum(o.observed.sum(axis=0) for o in data4).astype(float)
    if not np.array_equal(out4.states[-1].miw.n - prior4.miw.n, counts):
        issues.append("dof bookkeeping mismatch")

    ok = not issues
    record_criterion(5, "filter equivalences", ok,
                     "; ".join(issues) if issues else
                     f"bit-identical, no-op, scalar oracle {scalar_err:.1e}")
    assert ok, issues


# ---------------------------------------------------------------------------
# 6. replication study of the bivariate missing-data experiment
# ---------------------------------------------------------------------------

def _block(mt, ts, cols):
    """The forecast laws ``mt`` (a T-stack) of the steps ``ts``, on the block of
    the variables ``cols``: the covariance law with them moved to the front,
    marginalized to its leading block (criterion 4)."""
    p = mt.S.shape[-1]
    perm = list(cols) + [k for k in range(p) if k not in cols]
    front = mv.MiwParams(S=mt.S[ts][:, perm][:, :, perm], n=mt.n[ts][:, perm], v=mt.v[ts])
    block = mv.miw_marginal_block(front, len(cols))
    return mv.MtParams(f=mt.f[ts][:, :, cols], Q=mt.Q[ts], S=block.S, n=block.n, v=block.v)


def _variable_log_scores(out, y):
    """One-step log predictive score of each observed entry, T x p (NaN where
    missing), under the marginal that ``out`` forecast for it: the 1 x 1 block
    of the forecast law with variable j moved to the front, which is a
    Student-t with df = 2v - 2 + n and scale sqrt(n s q / df) (criterion 2)."""
    mt, scores = out.marginals, np.full(y.shape, np.nan)
    for j in range(y.shape[1]):
        ts = np.flatnonzero(out.observed[:, 0, j])
        block = _block(mt, ts, [j])
        df = 2.0 * block.v - 2.0 + block.n[:, 0]
        scale = np.sqrt(block.n[:, 0] * block.S[:, 0, 0] * block.Q[:, 0, 0] / df)
        scores[ts, j] = oracles.student_t_logpdf(y[ts, j], df=df, loc=block.f[:, 0, 0],
                                                 scale=scale)
    return scores


def _block_log_density(mt, y, ts, cols):
    """Matrix-t log density of the entries ``cols`` of the r = 1 observations
    y[ts] under the block of the forecast laws ``mt`` with those variables in
    front, one entry per step."""
    return mv.mt_log_density(y[ts][:, None, cols], _block(mt, ts, cols))


def _joint_log_score(out, y):
    """Summed one-step log predictive density of each step's observed block,
    one stacked density per observed pattern."""
    mt, observed = out.marginals, out.observed[:, 0]
    total = 0.0
    for pattern in np.unique(observed, axis=0):
        ts = np.flatnonzero((observed == pattern).all(axis=1))
        if pattern.any():
            total += _block_log_density(mt, y, ts, np.flatnonzero(pattern)).sum()
    return total


def _mean_se(x):
    return x.mean(axis=0), x.std(axis=0, ddof=1) / math.sqrt(len(x))


def test_criterion_6_replication_study():
    # MSSE standardizes each mode's errors by that mode's own covariance
    # estimate, so it calibrates itself towards 1 and cannot rank the modes.
    # The modes are compared by a proper scoring rule instead: the one-step
    # log predictive score of the same observed entries under each mode's
    # forecast. MSSE is still reported.
    M = 200
    pattern = mv.DEFAULT_MISSING_PATTERN
    cfg = mv.LocalLevelConfig(T=100, corr=0.8, seed=0)
    started = time.perf_counter()
    summary = mv.replicate_experiment(M, cfg, pattern)
    elapsed = time.perf_counter() - started

    # re-run the study's replications to score each mode's forecasts
    model = mv.local_level_model(p=2)
    prior = mv.default_prior(p=2)
    modes = {"new": summary.msse_new, "classical": summary.msse_classical}
    var_score = {mode: np.empty((M, 2)) for mode in modes}
    joint_score = {mode: np.empty(M) for mode in modes}
    same_runs = True
    scorer_err = 0.0
    for i in range(M):
        _, data = mv.gen_local_level(replace(cfg, seed=cfg.seed + i))
        observations = mv.apply_missing(data, pattern)
        for mode, study_msse in modes.items():
            out = mv.filter(model, observations, prior, mode=mode)
            same_runs &= bool(np.allclose(mv.msse(out), study_msse[i],
                                          rtol=1e-9, atol=0.0))
            scores = _variable_log_scores(out, data)
            var_score[mode][i] = np.nansum(scores, axis=0)
            joint_score[mode][i] = _joint_log_score(out, data)
            if i == 0:
                # second path: the matrix-t density of the permuted 1 x 1
                # block, at 0-based steps around the missing times 24, 60, 75
                for t in (0, 23, 24, 59, 74, 75, 99):
                    for j in np.flatnonzero(out.observed[t, 0]):
                        ref = _block_log_density(out.marginals, data, [t], [j])[0]
                        scorer_err = max(scorer_err, abs(scores[t, j] - ref))

    var_gain = var_score["new"] - var_score["classical"]
    gain, gain_se = _mean_se(var_gain)
    summed_wins = float(np.mean(var_gain.sum(axis=1) > 0.0))
    joint_diff = joint_score["new"] - joint_score["classical"]
    joint_gain, joint_se = _mean_se(joint_diff)

    scorer_ok = scorer_err < 1e-10
    a_ok = bool(np.all(gain > 0.0))
    b_ok = summed_wins >= 0.70
    c_ok = 0.7 <= summary.mean_partial_corr <= 0.9
    runtime_ok = elapsed < 60.0
    detail = (
        f"mean MSSE new {np.round(summary.mean_msse_new, 4).tolist()}, "
        f"classical {np.round(summary.mean_msse_classical, 4).tolist()}; "
        f"scorer vs matrix-t {scorer_err:.1e}; "
        f"(a) log-score gain per variable "
        + ", ".join(f"{g:+.3f} ± {se:.3f}" for g, se in zip(gain, gain_se))
        + f" > 0: {'PASS' if a_ok else 'FAIL'}; "
        f"(b) summed log-score win fraction {summed_wins:.3f} >= 0.70: "
        f"{'PASS' if b_ok else 'FAIL'}; "
        f"joint-block log-score gain {joint_gain:+.3f} ± {joint_se:.3f} "
        f"(win fraction {np.mean(joint_diff > 0.0):.3f}, not asserted); "
        f"(c) mean partial-missing correlation {summary.mean_partial_corr:.3f} "
        f"in [0.7, 0.9]: {'PASS' if c_ok else 'FAIL'}; {elapsed:.1f}s")
    record_criterion(6, "replication study",
                     same_runs and scorer_ok and a_ok and b_ok and c_ok and runtime_ok,
                     detail)
    assert runtime_ok
    assert same_runs, "re-run replications do not reproduce the study's MSSE"
    assert scorer_ok, detail
    assert c_ok, detail
    assert a_ok, detail
    assert b_ok, detail


# ---------------------------------------------------------------------------
# 7. numerical robustness over a long run
# ---------------------------------------------------------------------------

def test_criterion_7_long_run_robustness():
    rng = np.random.default_rng(107)
    T = 10_000
    d, p, r = 2, 2, 2
    Fs = rng.standard_normal((T, d, r))
    Gs = np.eye(d) + 0.05 * rng.standard_normal((T, d, d))
    Vs = [random_spd(rng, r, 0.5) for _ in range(8)]
    model = mv.ModelSpec(d=d, p=p, r=r, F=lambda t: Fs[t - 1],
                         G=lambda t: Gs[t - 1], V=lambda t: Vs[t % 8],
                         discount=0.95)
    prior = mv.NmiwState(m=np.zeros((d, p)), P=10.0 * np.eye(d),
                         miw=mv.MiwParams(S=np.eye(p), n=np.ones(p), v=float(p)))
    data = []
    for _ in range(T):
        row = rng.standard_normal((r, p))
        mask = rng.random((r, p)) < 0.1
        data.append(mv.MaskedObservation.from_values(np.where(mask, np.nan, row)))
    out = mv.filter(model, data, prior, mode="new")
    ridge_p = 1e-12 * np.eye(d)
    ridge_s = 1e-12 * np.eye(p)
    failures = 0
    for P, S in zip(out.P, out.S):
        try:
            np.linalg.cholesky(P + ridge_p)
            np.linalg.cholesky(S + ridge_s)
        except np.linalg.LinAlgError:
            failures += 1
    finite = all(np.isfinite(a).all() for a in (out.f, out.Q, out.m, out.S))
    ok = failures == 0 and bool(finite)
    record_criterion(7, "long-run numerical robustness", ok,
                     f"{T} steps, {failures} factorization failures, "
                     f"finite={bool(finite)}")
    assert failures == 0
    assert finite
