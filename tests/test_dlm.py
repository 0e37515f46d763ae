"""Filtering layer: evolution, forecasting, masked updates, diagnostics.

The masked-update recursions are checked against an independently written
univariate filter, against exact no-op/bit-identity requirements, and
against bookkeeping identities that must hold exactly (not just to
floating-point tolerance).
"""
import math
import warnings

import numpy as np
import pytest

import mvdlm as mv

import oracles


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def scalar_model(v=1.0, delta=None, w=None):
    W = None if w is None else np.array([[float(w)]])
    return mv.ModelSpec(d=1, p=1, r=1, F=np.array([[1.0]]), G=np.array([[1.0]]),
                        V=np.array([[v]]), W=W, discount=delta)


def scalar_prior(m0=0.0, p0=100.0, s0=1.0, n0=1.0):
    return mv.NmiwState(
        m=np.array([[m0]]), P=np.array([[p0]]),
        miw=mv.MiwParams(S=np.array([[s0]]), n=np.array([n0]), v=1.0))


def random_model(rng, d, p, r, use_discount=False):
    """Time-varying random system matrices, deterministic per seed."""
    T_MAX = 12_000
    Fs = rng.standard_normal((T_MAX, d, r))
    Gs = np.eye(d) + 0.1 * rng.standard_normal((T_MAX, d, d))
    Vs, Ws = [], []
    for _ in range(8):  # cycle a few SPD matrices instead of T_MAX factorizations
        B = rng.standard_normal((r, r))
        Vs.append(B @ B.T + r * np.eye(r))
        C = rng.standard_normal((d, d))
        Ws.append(0.1 * (C @ C.T) + 0.05 * np.eye(d))
    kwargs = dict(discount=0.95) if use_discount else dict(
        W=lambda t: Ws[t % 8])
    return mv.ModelSpec(d=d, p=p, r=r,
                        F=lambda t: Fs[t - 1], G=lambda t: Gs[t - 1],
                        V=lambda t: Vs[t % 8], **kwargs)


def random_prior(rng, d, p):
    B = rng.standard_normal((d, d))
    return mv.NmiwState(
        m=rng.standard_normal((d, p)),
        P=B @ B.T + d * np.eye(d),
        miw=mv.MiwParams(S=np.eye(p) + 0.1, n=rng.uniform(2.0, 5.0, size=p),
                         v=float(p)))


def random_data(rng, T, r, p, missing_rate=0.0):
    obs = []
    for _ in range(T):
        y = rng.standard_normal((r, p))
        if missing_rate > 0:
            mask = rng.random((r, p)) < missing_rate
            y = np.where(mask, np.nan, y)
        obs.append(mv.MaskedObservation.from_values(y))
    return obs


def states_bit_identical(s1, s2):
    return (np.array_equal(s1.m, s2.m) and np.array_equal(s1.P, s2.P)
            and np.array_equal(s1.miw.S, s2.miw.S)
            and np.array_equal(s1.miw.n, s2.miw.n) and s1.miw.v == s2.miw.v)


# ---------------------------------------------------------------------------
# one step of the recursion, read from the records of a T = 1 run
# ---------------------------------------------------------------------------

def one_step(state, G, F, V, y, W=None, discount=None):
    """Run ``filter`` for one step from ``state`` and return its output."""
    (d, p), r = state.m.shape, np.shape(F)[1]
    model = mv.ModelSpec(d=d, p=p, r=r, F=F, G=G, V=V, W=W, discount=discount)
    return mv.filter(model, [mv.MaskedObservation.from_values(y)], state)


def test_evolve_identity_is_exact():
    rng = np.random.default_rng(30)
    state = random_prior(rng, 3, 2)
    out = one_step(state, np.eye(3), np.ones((3, 1)), np.eye(1), np.ones((1, 2)),
                   W=np.zeros((3, 3)))
    assert np.array_equal(out.a[0], state.m)
    assert np.array_equal(out.R[0], state.P)


def test_evolve_literal():
    state = mv.NmiwState(m=np.array([[1.0], [2.0]]),
                         P=np.array([[2.0, 0.5], [0.5, 1.0]]),
                         miw=mv.MiwParams(S=np.eye(1), n=np.array([3.0]), v=1.0))
    G = np.array([[1.0, 1.0], [0.0, 1.0]])
    W = 0.1 * np.eye(2)
    out = one_step(state, G, np.array([[1.0], [0.0]]), np.eye(1), np.ones((1, 1)), W=W)
    a, R = out.a[0], out.R[0]
    assert np.allclose(a, G @ state.m)
    assert np.allclose(R, G @ state.P @ G.T + W)
    assert np.array_equal(R, R.T)


def test_discount_noise_unit_discount_is_zero():
    P = np.array([[2.0, 0.3], [0.3, 1.0]])
    state = mv.NmiwState(m=np.zeros((2, 1)), P=P,
                         miw=mv.MiwParams(S=np.eye(1), n=np.array([3.0]), v=1.0))
    out = one_step(state, np.eye(2), np.ones((2, 1)), np.eye(1), np.ones((1, 1)),
                   discount=1.0)
    assert np.array_equal(out.R[0], P)


def test_discount_scales_evolved_covariance():
    rng = np.random.default_rng(31)
    state = random_prior(rng, 2, 2)
    G = np.array([[0.9, 0.2], [0.0, 1.1]])
    delta = 0.8
    out = one_step(state, G, np.ones((2, 1)), np.eye(1), np.ones((1, 2)), discount=delta)
    assert np.allclose(out.R[0], (G @ state.P @ G.T) / delta, atol=1e-12)


def test_forecast_scalars():
    out = mv.filter(scalar_model(v=0.5, w=0.0), [np.array([[1.0]])],
                    scalar_prior(m0=2.0, p0=3.0))
    assert out.f[0][0, 0] == pytest.approx(2.0)
    assert out.Q[0][0, 0] == pytest.approx(3.5)
    assert out.A[0][0, 0] == pytest.approx(3.0 / 3.5)


def test_update_full_matches_standard_formulas():
    rng = np.random.default_rng(32)
    d, p, r = 2, 3, 2
    state = random_prior(rng, d, p)
    F = rng.standard_normal((d, r))
    V = np.eye(r) * 0.5
    y = rng.standard_normal((r, p))
    out = one_step(state, np.eye(d), F, V, y, W=np.zeros((d, d)))
    a, R, Q = out.a[0], out.R[0], out.Q[0]
    assert np.array_equal(a, state.m) and np.array_equal(R, state.P)
    A = R @ F @ np.linalg.inv(Q)
    e = y - F.T @ a
    assert np.allclose(out.m[0], a + A @ e, atol=1e-12)
    assert np.allclose(out.P[0], R - A @ Q @ A.T, atol=1e-12)
    # scale update matches the distribution-layer conditional update
    ref = mv.miw_conditional_update(out.f[0], Q, state.miw, y)
    assert np.allclose(out.S[0], ref.S, atol=1e-12)
    assert np.allclose(out.n[0], ref.n)


def test_from_values_treats_only_nan_as_missing():
    obs = mv.MaskedObservation.from_values(np.array([[1.0, np.nan]]))
    assert obs.observed.tolist() == [[True, False]]
    for bad in (np.inf, -np.inf):
        with pytest.raises(mv.DomainError):
            mv.MaskedObservation.from_values(np.array([[1.0, bad]]))


# ---------------------------------------------------------------------------
# the T x r x p observation array that filter takes
# ---------------------------------------------------------------------------

def test_filter_rejects_malformed_input():
    rng = np.random.default_rng(60)
    model, prior = random_model(rng, 2, 3, 2), random_prior(rng, 2, 3)
    values = rng.standard_normal((5, 2, 3))
    with pytest.raises(mv.DimensionMismatch):
        mv.filter(model, rng.standard_normal((5, 2, 4)), prior)
    with pytest.raises(mv.DimensionMismatch):  # ragged list
        mv.filter(model, [values[0], values[1, :, :2]], prior)
    for empty in ([], np.empty((0, 2, 3))):
        with pytest.raises(mv.DomainError):
            mv.filter(model, empty, prior)
    for bad in (np.inf, -np.inf):
        y = values.copy()
        y[3, 1, 2] = bad
        with pytest.raises(mv.DomainError):
            mv.filter(model, y, prior)


def test_filter_input_forms_give_identical_records():
    rng = np.random.default_rng(61)
    model, prior = random_model(rng, 2, 3, 2), random_prior(rng, 2, 3)
    values = rng.standard_normal((30, 2, 3))
    observed = rng.random(values.shape) >= 0.3
    observed[7] = False
    array = np.where(observed, values, np.nan)
    forms = {
        # unobserved cells keep finite values here; the mask alone decides
        "observations": [mv.MaskedObservation(y=y, observed=o)
                         for y, o in zip(values, observed)],
        "arrays": list(array),
    }
    ref = mv.filter(model, array, prior)
    for form, data in forms.items():
        out = mv.filter(model, data, prior)
        for name in ("a", "R", "f", "Q", "A", "e", "std_err", "observed",
                     "m", "P", "S", "n"):
            assert np.array_equal(getattr(out, name), getattr(ref, name),
                                  equal_nan=True), (form, name)


# ---------------------------------------------------------------------------
# scalar filter against the independent univariate implementation
# ---------------------------------------------------------------------------

Y6 = [1.0, 1.4, 0.0, 0.9, 1.8, 1.1]
OBS6 = [True, True, False, True, True, True]


def masked_scalar_series():
    return [mv.MaskedObservation.from_values(
                np.array([[y if o else np.nan]]))
            for y, o in zip(Y6, OBS6)]


@pytest.mark.parametrize("variant,kw,frozen", [
    ("discount", dict(delta=0.9),
     dict(m=1.251425952500454, p=0.2524038685728917,
          s=0.2552107735791718, n=6.0, msse=0.33332162105881225)),
    ("explicit-w", dict(w=0.3),
     dict(m=1.2657417486540565, p=0.4304775672293139,
          s=0.2477488103264421, n=6.0, msse=0.30840973254811627)),
])
def test_scalar_filter_matches_independent_oracle(variant, kw, frozen):
    model = scalar_model(v=1.0, **kw)
    out = mv.filter(model, masked_scalar_series(), scalar_prior(), mode="new")
    ref = oracles.scalar_dlm_filter(Y6, OBS6, v=1.0, m0=0.0, p0=100.0,
                                    s0=1.0, n0=1.0, **kw)
    for t in range(6):
        assert out.f[t][0, 0] == pytest.approx(ref.f[t], abs=1e-12)
        assert out.Q[t][0, 0] == pytest.approx(ref.q[t], abs=1e-12)
        assert out.states[t].m[0, 0] == pytest.approx(ref.m[t], abs=1e-12)
        assert out.states[t].P[0, 0] == pytest.approx(ref.p[t], abs=1e-12)
        assert out.states[t].miw.S[0, 0] == pytest.approx(ref.s[t], abs=1e-12)
        assert out.states[t].miw.n[0] == pytest.approx(ref.n[t], abs=1e-12)
        if OBS6[t]:
            assert out.std_err[t][0, 0] == pytest.approx(ref.std_err[t], abs=1e-12)
        else:
            assert math.isnan(out.std_err[t][0, 0])
    # frozen end-state literals guard both implementations at once
    assert out.states[-1].m[0, 0] == pytest.approx(frozen["m"], abs=1e-12)
    assert out.states[-1].P[0, 0] == pytest.approx(frozen["p"], abs=1e-12)
    assert out.states[-1].miw.S[0, 0] == pytest.approx(frozen["s"], abs=1e-12)
    assert out.states[-1].miw.n[0] == pytest.approx(frozen["n"], abs=1e-12)
    assert mv.msse(out)[0] == pytest.approx(frozen["msse"], abs=1e-12)


def test_scalar_filter_random_streams_match_oracle():
    rng = np.random.default_rng(33)
    for case in range(5):
        T = 60
        y = rng.standard_normal(T).cumsum() * 0.3 + rng.standard_normal(T)
        obs = rng.random(T) > 0.25
        obs[0] = True
        delta = float(rng.uniform(0.6, 0.99))
        model = scalar_model(v=0.8, delta=delta)
        data = [mv.MaskedObservation.from_values(
                    np.array([[y[t] if obs[t] else np.nan]])) for t in range(T)]
        out = mv.filter(model, data, scalar_prior(m0=0.3, p0=25.0, s0=0.7, n0=2.0))
        ref = oracles.scalar_dlm_filter(y, obs, v=0.8, m0=0.3, p0=25.0,
                                        s0=0.7, n0=2.0, delta=delta)
        assert np.allclose([s.m[0, 0] for s in out.states], ref.m, atol=1e-12)
        assert np.allclose([s.P[0, 0] for s in out.states], ref.p, atol=1e-12)
        assert np.allclose([s.miw.S[0, 0] for s in out.states], ref.s, atol=1e-12)
        assert np.allclose([s.miw.n[0] for s in out.states], ref.n, atol=1e-12)
        assert mv.msse(out)[0] == pytest.approx(oracles.scalar_msse(ref), abs=1e-12)


# ---------------------------------------------------------------------------
# exact structural invariants of the masked update
# ---------------------------------------------------------------------------

def test_modes_bit_identical_without_missing_data():
    rng = np.random.default_rng(34)
    model = random_model(rng, d=3, p=3, r=2)
    prior = random_prior(rng, 3, 3)
    data = random_data(rng, 400, 2, 3, missing_rate=0.0)
    new = mv.filter(model, data, prior, mode="new")
    cls = mv.filter(model, data, prior, mode="classical")
    for name in ("a", "R", "f", "Q", "A", "e", "observed"):
        assert np.array_equal(getattr(new, name), getattr(cls, name)), name
    assert np.array_equal(new.std_err, cls.std_err, equal_nan=True)
    assert all(states_bit_identical(s1, s2)
               for s1, s2 in zip(new.states, cls.states))
    assert np.array_equal(mv.msse(new), mv.msse(cls))


def test_fully_missing_step_is_exact_noop():
    rng = np.random.default_rng(35)
    model = random_model(rng, d=2, p=3, r=1)
    prior = random_prior(rng, 2, 3)
    data = random_data(rng, 10, 1, 3)
    data[4] = mv.MaskedObservation.from_values(np.full((1, 3), np.nan))
    for mode in ("new", "classical"):
        out = mv.filter(model, data, prior, mode=mode)
        st = out.states[4]
        assert np.array_equal(st.m, out.a[4])
        assert np.array_equal(st.P, out.R[4]) or np.array_equal(st.P, st.P.T)
        prev = out.states[3]
        assert np.array_equal(st.miw.S, prev.miw.S)
        assert np.array_equal(st.miw.n, prev.miw.n)


def test_masked_columns_carry_prior_forward_exactly():
    rng = np.random.default_rng(36)
    model = random_model(rng, d=2, p=4, r=1)
    prior = random_prior(rng, 2, 4)
    data = random_data(rng, 120, 1, 4, missing_rate=0.3)
    out = mv.filter(model, data, prior, mode="new")
    n_prev = prior.miw.n
    for t in range(120):
        observed = out.observed[t][0]
        st = out.states[t]
        for j in range(4):
            if not observed[j]:
                assert np.array_equal(st.m[:, j], out.a[t][:, j]), (t, j)
                assert st.miw.n[j] == n_prev[j], (t, j)
        n_prev = st.miw.n


def test_dof_bookkeeping_counts_observed_entries_exactly():
    rng = np.random.default_rng(37)
    for r in (1, 3):
        model = random_model(rng, d=2, p=3, r=r)
        prior = random_prior(rng, 2, 3)
        # integer-valued starting dof so the running float sums stay exact
        prior = mv.NmiwState(m=prior.m, P=prior.P,
                             miw=mv.MiwParams(S=prior.miw.S,
                                              n=np.array([1.0, 2.0, 3.0]),
                                              v=prior.miw.v))
        data = random_data(rng, 80, r, 3, missing_rate=0.25)
        out = mv.filter(model, data, prior, mode="new")
        counts = sum(obs.observed.sum(axis=0) for obs in data).astype(float)
        assert np.array_equal(out.states[-1].miw.n - prior.miw.n, counts)


def test_classical_mode_discards_partial_information_entirely():
    rng = np.random.default_rng(38)
    model = random_model(rng, d=2, p=3, r=1)
    prior = random_prior(rng, 2, 3)
    data = random_data(rng, 10, 1, 3)
    y = np.asarray(data[5].y).copy()
    y[0, 1] = np.nan
    data[5] = mv.MaskedObservation.from_values(y)
    out = mv.filter(model, data, prior, mode="classical")
    st, prev = out.states[5], out.states[4]
    assert np.array_equal(st.m, out.a[5])
    assert np.array_equal(st.miw.S, prev.miw.S)
    assert np.array_equal(st.miw.n, prev.miw.n)


def test_permutation_equivariance_is_exact():
    rng = np.random.default_rng(39)
    p = 3
    perm = np.array([2, 0, 1])
    model = mv.local_level_model(p=p, discount=0.9)
    S0 = np.array([[1.0, 0.3, 0.1], [0.3, 2.0, -0.2], [0.1, -0.2, 1.5]])
    n0 = np.array([1.0, 2.0, 3.0])
    m0 = np.array([[0.5, -0.2, 1.0]])
    prior = mv.NmiwState(m=m0, P=np.array([[50.0]]),
                         miw=mv.MiwParams(S=S0, n=n0, v=float(p)))
    prior_p = mv.NmiwState(m=m0[:, perm], P=np.array([[50.0]]),
                           miw=mv.MiwParams(S=S0[np.ix_(perm, perm)], n=n0[perm],
                                            v=float(p)))
    data = random_data(rng, 60, 1, p, missing_rate=0.2)
    data_p = [mv.MaskedObservation.from_values(np.asarray(o.y)[:, perm])
              for o in data]
    out = mv.filter(model, data, prior, mode="new")
    out_p = mv.filter(model, data_p, prior_p, mode="new")
    for t in range(60):
        assert np.array_equal(out.states[t].m[:, perm], out_p.states[t].m)
        assert np.array_equal(out.states[t].miw.S[np.ix_(perm, perm)],
                              out_p.states[t].miw.S)
        assert np.array_equal(out.states[t].miw.n[perm], out_p.states[t].miw.n)
    assert np.array_equal(mv.msse(out)[perm], mv.msse(out_p))


def test_filter_is_deterministic():
    rng = np.random.default_rng(40)
    model = random_model(rng, d=2, p=2, r=1)
    prior = random_prior(rng, 2, 2)
    data = random_data(rng, 50, 1, 2, missing_rate=0.2)
    o1 = mv.filter(model, data, prior, mode="new")
    o2 = mv.filter(model, data, prior, mode="new")
    assert np.array_equal(o1.std_err, o2.std_err, equal_nan=True)
    assert all(states_bit_identical(a, b) for a, b in zip(o1.states, o2.states))


def test_all_observed_filter_equals_chained_full_updates():
    # Each step's m, P, S and n against the one-step formulas of the masked
    # update, chained from the filter's previous posterior: once with every
    # entry observed, and once with one replicate of variable 1 missing at
    # some steps and a fully missing first and middle step.
    rng = np.random.default_rng(41)
    d, p, r = 2, 2, 2
    model = random_model(rng, d, p, r)
    prior = random_prior(rng, d, p)
    full = np.array([obs.y for obs in random_data(rng, 25, r, p)])
    masked = full.copy()
    masked[[3, 7, 8, 15, 21], 0, 1] = np.nan
    masked[[0, 12]] = np.nan
    for values in (full, masked):
        out = mv.filter(model, values, prior, mode="new")
        S, n = prior.miw.S, prior.miw.n
        for k, y in enumerate(values):
            observed = ~np.isnan(y)
            a, R, Q, A = out.a[k], out.R[k], out.Q[k], out.A[k]
            w = observed.all(axis=0).astype(float)
            e = np.where(observed, y - model.F_at(k + 1).T @ a, 0.0)
            assert np.allclose(out.m[k], a + (A @ e) * w, atol=1e-12), k
            assert np.allclose(out.P[k], R - (A @ Q @ A.T) * w.mean(), atol=1e-12), k
            if observed.any():
                n_new = n + observed.sum(axis=0)
                S = (S * np.sqrt(np.outer(n, n)) + e.T @ np.linalg.solve(Q, e) * np.outer(w, w)
                     ) / np.sqrt(np.outer(n_new, n_new))
                n = n_new
            assert np.allclose(out.S[k], S, atol=1e-12), k
            assert np.array_equal(out.n[k], n), k
            S = out.S[k]
    assert np.array_equal(out.S[0], prior.miw.S)


def test_non_updating_step_with_non_finite_residual_leaves_s_unchanged():
    # G = 1e10 at t = 3 only: a = G m overflows there, and so does e at the
    # observed entry of the partly missing y_3, which classical mode skips.
    model = mv.ModelSpec(d=1, p=2, r=1, F=np.eye(1), V=np.eye(1), discount=0.9,
                         G=lambda t: np.array([[1e10 if t == 3 else 1.0]]))
    prior = mv.NmiwState(m=np.full((1, 2), 1e300), P=np.array([[1e-6]]),
                         miw=mv.MiwParams(S=np.array([[1.0, 0.3], [0.3, 2.0]]),
                                          n=np.array([2.0, 3.0]), v=2.0))
    data = np.array([[[1e300, 1e300]], [[1e300, 1e300]], [[1e300, np.nan]]])
    out = mv.filter(model, data, prior, mode="classical")
    assert not np.isfinite(out.e[2]).all()
    assert np.isfinite(out.S[1]).all()
    assert np.array_equal(out.S[2], out.S[1])
    assert np.array_equal(out.n[2], out.n[1])


def test_states_and_marginals_views_follow_the_stacked_arrays():
    rng = np.random.default_rng(43)
    model = random_model(rng, d=2, p=3, r=2)
    prior = random_prior(rng, 2, 3)
    data = random_data(rng, 8, 2, 3)
    y = np.asarray(data[2].y).copy()
    y[0, 1] = np.nan
    data[2] = mv.MaskedObservation.from_values(y)  # partly missing
    data[5] = mv.MaskedObservation.from_values(np.full((2, 3), np.nan))  # fully missing
    out = mv.filter(model, data, prior, mode="new")

    assert len(out.states) == len(out.marginals) == out.T == 8
    assert states_bit_identical(out.states[-1], out.states[out.T - 1])
    with pytest.raises(IndexError):
        out.states[out.T]
    states = list(out.states)
    assert len(states) == out.T
    for t, st in enumerate(states):
        assert np.array_equal(st.m, out.m[t]) and np.array_equal(st.P, out.P[t])
        assert np.array_equal(st.miw.S, out.S[t]) and np.array_equal(st.miw.n, out.n[t])
        assert st.miw.v == prior.miw.v
    assert np.array_equal(out.n[2], out.n[1] + [2.0, 1.0, 2.0])
    assert np.array_equal(out.S[5], out.S[4]) and np.array_equal(out.n[5], out.n[4])

    marginals = list(out.marginals)
    assert all(isinstance(mt, mv.MtParams) for mt in marginals)
    assert np.array_equal(marginals[0].S, prior.miw.S)
    assert np.array_equal(marginals[0].n, prior.miw.n)
    for t in range(1, out.T):
        assert np.array_equal(marginals[t].S, states[t - 1].miw.S), t
        assert np.array_equal(marginals[t].n, states[t - 1].miw.n), t
    for t, mt in enumerate(marginals):
        assert np.array_equal(mt.f, out.f[t]) and np.array_equal(mt.Q, out.Q[t])
        assert mt.v == prior.miw.v


def test_positive_semidefinite_states_under_long_random_run():
    rng = np.random.default_rng(42)
    model = random_model(rng, d=3, p=2, r=2, use_discount=True)
    prior = random_prior(rng, 3, 2)
    data = random_data(rng, 2000, 2, 2, missing_rate=0.15)
    out = mv.filter(model, data, prior, mode="new")
    for t in (0, 499, 999, 1499, 1999):
        st = out.states[t]
        np.linalg.cholesky(st.P + 1e-12 * np.eye(3))
        np.linalg.cholesky(st.miw.S + 1e-12 * np.eye(2))
        assert np.all(np.isfinite(st.m))


# ---------------------------------------------------------------------------
# summary diagnostics
# ---------------------------------------------------------------------------

def test_msse_zero_for_perfectly_forecast_constant():
    c = 2.5
    model = scalar_model(v=1.0, delta=1.0)
    prior = scalar_prior(m0=c, p0=1e-9)
    data = [mv.MaskedObservation.from_values(np.array([[c]])) for _ in range(20)]
    out = mv.filter(model, data, prior)
    assert np.array_equal(mv.msse(out), np.zeros(1))


def test_msse_near_one_when_model_matches_generator():
    # Local level data filtered with the matching explicit evolution noise:
    # standardized errors should average close to 1 per component.
    vals = []
    model = mv.local_level_model(p=2, v_obs=1.0, discount=None, w=0.05)
    for seed in range(30):
        cfg = mv.LocalLevelConfig(T=100, corr=0.8, seed=1000 + seed)
        _, data = mv.gen_local_level(cfg)
        obs = [mv.MaskedObservation.from_values(row.reshape(1, 2)) for row in data]
        out = mv.filter(model, obs, mv.default_prior())
        vals.append(mv.msse(out))
    mean = np.mean(vals, axis=0)
    assert np.all(np.abs(mean - 1.0) < 0.35)


def test_msse_requires_each_component_observed():
    model = mv.local_level_model(p=2, discount=0.9)
    data = [mv.MaskedObservation.from_values(np.array([[1.0, np.nan]]))
            for _ in range(5)]
    out = mv.filter(model, data, mv.default_prior())
    with pytest.raises(mv.DomainError):
        mv.msse(out)


def test_correlation_estimate_values_and_invariance():
    miw = mv.MiwParams(S=np.diag([2.0, 3.0]), n=np.array([4.0, 4.0]), v=2.0)
    state = mv.NmiwState(m=np.zeros((1, 2)), P=np.eye(1), miw=miw)
    assert mv.correlation_estimate(state, 0, 1) == 0.0
    miw = mv.MiwParams(S=np.array([[1.0, 0.8], [0.8, 1.0]]),
                       n=np.array([4.0, 4.0]), v=2.0)
    state = mv.NmiwState(m=np.zeros((1, 2)), P=np.eye(1), miw=miw)
    assert mv.correlation_estimate(state, 0, 1) == pytest.approx(0.8, abs=1e-15)
    # rescaling S by a positive diagonal leaves the estimate unchanged
    D = np.diag([3.7, 0.2])
    miw2 = mv.MiwParams(S=D @ miw.S @ D, n=miw.n, v=2.0)
    state2 = mv.NmiwState(m=np.zeros((1, 2)), P=np.eye(1), miw=miw2)
    assert mv.correlation_estimate(state2, 0, 1) == pytest.approx(
        mv.correlation_estimate(state, 0, 1), abs=1e-14)


def test_correlation_estimate_errors():
    state = mv.default_prior()
    with pytest.raises(mv.DomainError):
        mv.correlation_estimate(state, 1, 1)


def test_filter_error_carries_time_index():
    bad_v = lambda t: (np.array([[-1.0]]) if t == 3 else np.array([[1.0]]))
    model = mv.ModelSpec(d=1, p=2, r=1, F=np.array([[1.0]]), G=np.array([[1.0]]),
                         V=bad_v, discount=0.9)
    data = [mv.MaskedObservation.from_values(np.array([[0.1, 0.2]]))
            for _ in range(5)]
    with pytest.raises(mv.FilterError) as exc:
        mv.filter(model, data, mv.default_prior())
    assert exc.value.t == 3
    assert "t=3" in str(exc.value)
    assert "forecast scale Q" in str(exc.value)


def test_forecast_failure_before_a_later_bad_input_wins():
    # V makes Q non-positive-definite at t = 3; F is NaN at t = 4
    model = mv.ModelSpec(d=1, p=2, r=1, G=np.eye(1), discount=0.9,
                         F=lambda t: np.array([[np.nan if t == 4 else 1.0]]),
                         V=lambda t: np.array([[-1e9 if t == 3 else 1.0]]))
    data = np.full((6, 1, 2), 0.5)
    with pytest.raises(mv.FilterError) as exc:
        mv.filter(model, data, mv.default_prior())
    assert exc.value.t == 3
    assert "forecast scale Q" in str(exc.value)


def test_input_callable_raising_a_domain_error_fails_at_its_step():
    def V(t):
        if t == 4:
            raise mv.DomainError("no observation scale this late")
        return np.eye(1)

    model = mv.ModelSpec(d=1, p=2, r=1, F=np.eye(1), G=np.eye(1), V=V, discount=0.9)
    with pytest.raises(mv.FilterError) as exc:
        mv.filter(model, np.full((6, 1, 2), 0.5), mv.default_prior())
    assert exc.value.t == 4
    assert str(exc.value) == "t=4: no observation scale this late"


@pytest.mark.parametrize("m0,p0,message", [
    (0.0, 1e308, "forecast scale Q is not finite"),
    (1e308, 1.0, "forecast residual e is not finite"),
])
def test_overflow_is_filter_error_naming_the_quantity(m0, p0, message):
    model = mv.ModelSpec(d=1, p=1, r=1, F=np.eye(1), G=10.0 * np.eye(1), V=np.eye(1),
                         W=0.1 * np.eye(1))
    exc = filter_error(model, [np.array([[0.0]])] * 2, scalar_prior(m0=m0, p0=p0))
    assert exc.t == 1
    assert message in str(exc)


def filter_error(model, data, prior, modes=("new",)):
    """The FilterError of a run in ``modes``, checking that no warning escapes."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(mv.FilterError) as exc:
            mv.dlm._filter(model, data, prior, modes)
    assert [str(w.message) for w in caught] == []
    return exc.value


def test_exactly_singular_q_is_not_positive_definite():
    # P = 0 and V = 0 make Q = 0, which the gain solve cannot invert
    model = scalar_model(v=0.0, delta=1.0)
    exc = filter_error(model, np.ones((3, 1, 1)), scalar_prior(p0=0.0))
    assert str(exc) == "t=1: forecast scale Q is not positive definite"


def test_earlier_residual_failure_wins_over_a_later_indefinite_q():
    # y - f overflows at t = 2 (nothing is observed at t = 1); V makes Q
    # negative at t = 4, a step the loop still computes
    model = mv.ModelSpec(d=1, p=1, r=1, F=np.eye(1), G=np.eye(1), W=0.1 * np.eye(1),
                         V=lambda t: np.array([[-10.0 if t == 4 else 1.0]]))
    data = np.array([np.nan, 1e308, 0.0, 0.0, 0.0]).reshape(5, 1, 1)
    exc = filter_error(model, data, scalar_prior(m0=-1e308, p0=1e-6))
    assert str(exc) == "t=2: forecast residual e is not finite"


def test_non_finite_q_wins_over_a_non_finite_residual_at_the_same_step():
    # G = 1e200 at t = 2 overflows both the prior mean and R
    model = mv.ModelSpec(d=1, p=1, r=1, F=np.eye(1), V=np.eye(1), W=0.1 * np.eye(1),
                         G=lambda t: np.array([[1e200 if t == 2 else 1.0]]))
    exc = filter_error(model, np.zeros((3, 1, 1)), scalar_prior(m0=1e200, p0=1.0))
    assert str(exc) == "t=2: forecast scale Q is not finite"


@pytest.mark.parametrize("modes", [("new", "classical"), ("classical", "new")])
def test_two_mode_run_fails_only_where_a_mode_updates(modes):
    # y1 - f overflows at t = 2, where y2 is missing: the new mode updates
    # with that residual and fails, the classical mode skips the step
    model = mv.ModelSpec(d=1, p=2, r=1, F=np.eye(1), G=np.eye(1), V=np.eye(1), discount=0.9)
    prior = mv.NmiwState(m=np.array([[-1e308, 0.0]]), P=np.array([[1e-6]]),
                         miw=mv.MiwParams(S=np.eye(2), n=np.ones(2), v=2.0))
    data = np.array([[np.nan, np.nan], [1e308, np.nan], [1.0, 2.0]])[:, None, :]
    exc = filter_error(model, data, prior, modes)
    assert str(exc) == "t=2: forecast residual e is not finite"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = mv.filter(model, data, prior, mode="classical")
    assert caught == []
    assert np.isinf(out.e[1, 0, 0]) and np.array_equal(out.m[1], out.a[1])


@pytest.mark.parametrize("name", ["F", "G", "V", "W"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_model_input_is_filter_error_at_its_time(name, bad):
    kw = dict(F=np.array([[1.0]]), G=np.array([[1.0]]), V=np.array([[1.0]]),
              W=np.array([[0.1]]))
    good = kw[name]
    kw[name] = lambda t: np.full((1, 1), bad) if t == 3 else good
    model = mv.ModelSpec(d=1, p=2, r=1, **kw)
    data = [np.array([[0.1, 0.2]]) for _ in range(5)]
    with pytest.raises(mv.FilterError) as exc:
        mv.filter(model, data, mv.default_prior())
    assert exc.value.t == 3
    assert f"{name} at t=3 must be finite" in str(exc.value)


def test_malformed_callable_value_is_filter_error_at_its_time():
    model = mv.ModelSpec(d=1, p=2, r=1, F=np.eye(1), V=np.eye(1), discount=0.9,
                         G=lambda t: np.eye(2 if t in (3, 5) else 1))
    with pytest.raises(mv.FilterError) as exc:
        mv.filter(model, np.full((6, 1, 2), 0.5), mv.default_prior())
    assert str(exc.value) == "t=3: G at t=3 must have shape (1, 1), got (2, 2)"


def test_other_exception_from_a_callable_propagates_before_the_loop():
    # every callable is evaluated for all t before the first step, so this
    # error wins over the non-positive-definite Q at t = 2
    def F(t):
        if t == 5:
            raise ZeroDivisionError("F")
        return np.eye(1)

    model = mv.ModelSpec(d=1, p=2, r=1, F=F, G=np.eye(1), V=np.array([[-1.0]]),
                         discount=0.9)
    with pytest.raises(ZeroDivisionError):
        mv.filter(model, np.full((6, 1, 2), 0.5), mv.default_prior())


@pytest.mark.parametrize("field", ["m", "P", "S", "n", "v"])
def test_non_finite_prior_is_rejected(field):
    prior = mv.default_prior()
    parts = dict(m=prior.m.copy(), P=prior.P.copy(), S=prior.miw.S.copy(),
                 n=prior.miw.n.copy(), v=prior.miw.v)
    if field == "v":
        parts["v"] = np.inf
    else:
        parts[field].flat[0] = np.inf
    bad = mv.NmiwState(m=parts["m"], P=parts["P"],
                       miw=mv.MiwParams(S=parts["S"], n=parts["n"], v=parts["v"]))
    data = [np.array([[0.1, 0.2]]) for _ in range(3)]
    with pytest.raises(mv.DomainError, match="prior"):
        mv.filter(mv.local_level_model(), data, bad)


def test_model_spec_requires_exactly_one_noise_specification():
    kw = dict(d=1, p=1, r=1, F=np.eye(1), G=np.eye(1), V=np.eye(1))
    with pytest.raises(mv.ConfigError):
        mv.ModelSpec(W=np.eye(1), discount=0.9, **kw)
    with pytest.raises(mv.ConfigError):
        mv.ModelSpec(**kw)
    with pytest.raises(mv.DomainError):
        mv.ModelSpec(discount=1.5, **kw)
    with pytest.raises(mv.DomainError):
        mv.ModelSpec(discount=0.0, **kw)


def test_model_spec_checks_constant_inputs_once_at_construction():
    kw = dict(d=1, p=2, r=1, F=np.eye(1), G=np.eye(1), V=np.eye(1), discount=0.9)
    with pytest.raises(mv.DomainError, match="V must be finite"):
        mv.ModelSpec(**{**kw, "V": np.array([[np.nan]])})
    with pytest.raises(mv.DimensionMismatch, match=r"F must have shape \(1, 1\)"):
        mv.ModelSpec(**{**kw, "F": np.ones((2, 1))})
    model = mv.ModelSpec(**{**kw, "F": [[2.0]]})
    assert model.F_at(1) is model.F_at(7)
    assert model.F.dtype == float
