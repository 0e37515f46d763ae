"""Exact properties of the filter recursion over random small systems.

Dimensions d, p, r range over 1..3 and the observation masks are drawn by
hypothesis; the system matrices and data come from a seeded numpy generator.
Every property is exact (bit for bit), not a tolerance, except where a
property compares two computations that round differently: the batched
series against single-series runs, and the blocked mean scan against the
sequential mean recursion.
"""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mvdlm as mv

import oracles

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def systems(draw):
    """(model, prior, values, mask): a random system and a T x r x p mask."""
    d, p, r = (draw(st.integers(1, 3)) for _ in range(3))
    T = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Fs = rng.standard_normal((T, d, r))
    Gs = np.eye(d) + 0.1 * rng.standard_normal((T, d, d))
    B = rng.standard_normal((r, r))
    C = rng.standard_normal((d, d))
    noise = (dict(discount=float(rng.uniform(0.7, 1.0))) if draw(st.booleans())
             else dict(W=0.1 * (C @ C.T) + 0.05 * np.eye(d)))
    model = mv.ModelSpec(d=d, p=p, r=r, F=lambda t: Fs[t - 1], G=lambda t: Gs[t - 1],
                         V=B @ B.T + r * np.eye(r), **noise)
    P0 = rng.standard_normal((d, d))
    S0 = rng.standard_normal((p, p))
    # integer-valued starting dof keeps the running dof sums exact
    prior = mv.NmiwState(
        m=rng.standard_normal((d, p)), P=P0 @ P0.T + d * np.eye(d),
        miw=mv.MiwParams(S=S0 @ S0.T + p * np.eye(p),
                         n=rng.integers(1, 5, size=p).astype(float), v=float(p)))
    values = rng.standard_normal((T, r, p))
    mask = draw(arrays(bool, (T, r, p)))
    return model, prior, values, mask


def observations(values, mask):
    return [mv.MaskedObservation.from_values(np.where(m, y, np.nan))
            for y, m in zip(values, mask)]


def previous(out, name, k):
    """S or n before step k: the previous posterior, or the prior at k = 0."""
    if k > 0:
        return getattr(out, name)[k - 1]
    return {"S": out.prior.miw.S, "n": out.prior.miw.n}[name]


STACKS = ("a", "R", "f", "Q", "A", "e", "observed", "m", "P", "S", "n")


@SETTINGS
@given(systems())
def test_modes_bit_identical_when_nothing_is_missing(system):
    model, prior, values, _ = system
    data = observations(values, np.ones(values.shape, dtype=bool))
    new = mv.filter(model, data, prior, mode="new")
    cls = mv.filter(model, data, prior, mode="classical")
    for name in STACKS:
        assert np.array_equal(getattr(new, name), getattr(cls, name)), name
    assert np.array_equal(new.std_err, cls.std_err, equal_nan=True)


@SETTINGS
@given(systems(), st.data())
def test_fully_missing_step_is_exact_noop(system, draw):
    model, prior, values, mask = system
    k = draw.draw(st.integers(0, len(values) - 1))
    mask = mask.copy()
    mask[k] = False
    data = observations(values, mask)
    for mode in ("new", "classical"):
        out = mv.filter(model, data, prior, mode=mode)
        assert np.array_equal(out.m[k], out.a[k])
        assert np.array_equal(out.P[k], out.R[k])
        assert np.array_equal(out.S[k], previous(out, "S", k))
        assert np.array_equal(out.n[k], previous(out, "n", k))


@SETTINGS
@given(systems(), st.data())
def test_permutation_of_variables_is_exactly_equivariant(system, draw):
    model, prior, values, mask = system
    p = prior.p
    perm = np.array(draw.draw(st.permutations(range(p))))
    miw = prior.miw
    prior_p = mv.NmiwState(m=prior.m[:, perm], P=prior.P,
                           miw=mv.MiwParams(S=miw.S[np.ix_(perm, perm)], n=miw.n[perm],
                                            v=miw.v))
    out = mv.filter(model, observations(values, mask), prior)
    out_p = mv.filter(model, observations(values[:, :, perm], mask[:, :, perm]), prior_p)
    for name in ("a", "f", "e", "m", "observed"):
        assert np.array_equal(getattr(out, name)[:, :, perm], getattr(out_p, name)), name
    for name in ("R", "Q", "A", "P"):
        assert np.array_equal(getattr(out, name), getattr(out_p, name)), name
    assert np.array_equal(out.n[:, perm], out_p.n)
    assert np.array_equal(out.S[:, perm][:, :, perm], out_p.S)
    assert np.array_equal(out.std_err[:, :, perm], out_p.std_err, equal_nan=True)


@SETTINGS
@given(systems())
def test_dof_grow_by_the_observed_counts(system):
    model, prior, values, mask = system
    out = mv.filter(model, observations(values, mask), prior, mode="new")
    counts = np.cumsum(mask.sum(axis=1), axis=0)
    assert np.array_equal(out.n - prior.miw.n, counts)


def _rel_close(got, want, tol=1e-10):
    scale = float(np.nanmax(np.abs(want))) if np.isfinite(want).any() else 0.0
    return np.allclose(got, want, rtol=tol, atol=tol * scale, equal_nan=True)


@SETTINGS
@given(systems(), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from([("new",), ("classical",), ("new", "classical")]))
def test_batched_series_match_single_series_runs(system, M, seed, modes):
    model, prior, values, mask = system
    # M series sharing one mask, NaN where it is False
    ys = np.random.default_rng(seed).standard_normal((M,) + values.shape)
    y = np.where(mask, ys, np.nan)
    records = mv.dlm._run(model, prior, y, modes)
    for k, mode in enumerate(modes):
        # a mode filtered beside another gets the bits it gets alone
        alone = mv.dlm._run(model, prior, y, (mode,))
        for i in range(M):
            batched = mv.dlm._series_output(records, k, i)
            single = mv.filter(model, observations(ys[i], mask), prior, mode=mode)
            exact = mv.dlm._series_output(alone, 0, i)
            assert batched.mode == mode
            for name in STACKS + ("std_err",):
                got = getattr(batched, name)
                assert np.array_equal(got, getattr(exact, name), equal_nan=True), (i, name)
                assert _rel_close(got, getattr(single, name)), (i, name)


@SETTINGS
@given(systems(), st.sampled_from(["new", "classical"]))
def test_posterior_scales_stay_positive_semidefinite(system, mode):
    model, prior, values, mask = system
    out = mv.filter(model, observations(values, mask), prior, mode=mode)
    for name in ("P", "S"):
        eig = np.linalg.eigvalsh(getattr(out, name))
        assert np.all(eig[:, 0] >= -1e-12 * eig[:, -1]), name


# T where the mean scan's last block is full (L^2), one step long (L^2 + 1) or
# one step short (L^2 - 1), and the primes, where no block length divides T
SCAN_LENGTHS = sorted({L * L + s for L in range(1, 10) for s in (-1, 0, 1)} - {0}
                      | {n for n in range(2, 81) if all(n % k for k in range(2, math.isqrt(n) + 1))})


def random_run(d, p, r, M, T, rate, seed):
    """(model, prior, Fs, Gs, observed, y): a random time-varying system, a
    T x r x p mask with partly missing entries and fully missing steps, and
    M series y (M x T x r x p, NaN where the mask is False)."""
    rng = np.random.default_rng(seed)
    Fs = rng.standard_normal((T, d, r))
    Gs = np.eye(d) + 0.1 * rng.standard_normal((T, d, d))
    B, C = rng.standard_normal((r, r)), rng.standard_normal((d, d))
    noise = (dict(discount=float(rng.uniform(0.7, 1.0))) if rng.random() < 0.5
             else dict(W=0.1 * (C @ C.T) + 0.05 * np.eye(d)))
    model = mv.ModelSpec(d=d, p=p, r=r, F=lambda t: Fs[t - 1], G=lambda t: Gs[t - 1],
                         V=B @ B.T + r * np.eye(r), **noise)
    P0 = rng.standard_normal((d, d))
    prior = mv.NmiwState(m=rng.standard_normal((d, p)), P=P0 @ P0.T + d * np.eye(d),
                         miw=mv.MiwParams(S=np.eye(p), n=np.ones(p), v=float(p)))
    # partly missing entries and fully missing steps
    observed = rng.random((T, r, p)) >= rate
    observed[rng.random(T) < 0.15] = False
    y = np.where(observed, 3.0 * rng.standard_normal((M, T, r, p)), np.nan)
    return model, prior, Fs, Gs, observed, y


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
       st.one_of(st.sampled_from(SCAN_LENGTHS), st.integers(1, 80)),
       st.sampled_from([("new",), ("classical",), ("new", "classical")]),
       st.sampled_from([0.0, 0.2, 0.6]), st.integers(0, 2**32 - 1))
def test_mean_scan_matches_the_sequential_recursion(d, p, r, M, T, modes, rate, seed):
    model, prior, Fs, Gs, observed, y = random_run(d, p, r, M, T, rate, seed)
    rec = mv.dlm._run(model, prior, y, modes)
    _, _, gain, obs_cols = mv.dlm._schedule(observed, modes, M)
    want = oracles.sequential_means(Fs, Gs, rec["A"].swapaxes(0, 1), prior.m,
                                    y.transpose(1, 2, 0, 3).reshape(T, r, M * p), obs_cols, gain)
    for name, w in zip("afem", want):
        err = np.abs(rec[name].swapaxes(0, 1) - w).max()
        assert err <= 1e-13 * np.abs(w).max(), (name, err)
    assert not rec["e"][:, ~obs_cols].any()
    # a column that a mode does not move at a step keeps its prior mean bit for bit
    still = np.broadcast_to(~gain.swapaxes(0, 1), rec["m"].shape)
    assert np.array_equal(rec["m"][still], rec["a"][still])


def same_bits(x, y):
    """Equal arrays, NaN where the other is NaN, and the same sign bit at every
    entry that is not NaN (so 0.0 and -0.0 differ)."""
    number = ~(np.isnan(x) | np.isnan(y))
    return np.array_equal(x, y, equal_nan=True) and np.array_equal(
        np.signbit(x[number]), np.signbit(y[number]))


@SETTINGS
@given(st.integers(1, 2), st.integers(1, 30), st.booleans(), st.booleans(),
       st.sampled_from(["runs", "signed zeros", "overflows", "zero Q"]), st.integers(0, 2**32 - 1))
def test_one_row_step_has_the_bits_of_the_padded_two_row_step(d, T, varying, use_w, kind, seed):
    # the r = 1 step of _covariance_small against the r = 2 step on the same
    # model padded with a zero second column of F and V = diag(v, 1), in both
    # modes; a model that fails has the same records up to its first failing
    # step, where Q fails alike
    rng = np.random.default_rng(seed)
    Fs, Gs = rng.standard_normal((T, d, 1)), np.eye(d) + 0.3 * rng.standard_normal((T, d, d))
    if not varying:
        Fs, Gs = np.broadcast_to(Fs[0], Fs.shape), np.broadcast_to(Gs[0], Gs.shape)
    Vs = rng.uniform(0.1, 2.0, (T, 1, 1))
    C = rng.standard_normal((T, d, d))
    Ws = 0.1 * C @ C.swapaxes(1, 2) + 0.05 * np.eye(d) if use_w else None
    c = 2.0 if use_w else 2.0 * rng.uniform(0.7, 1.0)
    B = rng.standard_normal((d, d))
    P0 = B @ B.T + np.eye(d)
    if kind == "signed zeros":  # -0.0 off the diagonals of G, W and P0 and in F's
        # second row: the padding's +0 terms then decide the sign of P's zeros
        off, first = ~np.eye(d, dtype=bool), np.arange(d)[:, None] == 0
        Fs, Gs = np.where(first, np.abs(Fs), -0.0), np.where(off, -0.0, np.abs(Gs))
        P0 = np.where(off, -0.0, P0)
        Ws = None if Ws is None else np.where(off, -0.0, Ws)
    elif kind == "overflows":  # R grows by about 1e8 a step until it overflows
        Gs, P0 = 1e4 * Gs, 1e270 * P0
    elif kind == "zero Q":  # P = 0, W = 0 and V = 0 make Q exactly 0 at the first step
        Vs, Ws, P0 = 0.0 * Vs, None, 0.0 * P0
    observed = rng.random((T, 1, 3)) < 0.7
    _, u, _, _ = mv.dlm._schedule(observed, ("new", "classical"), 1)
    one = mv.dlm._covariance_small(Fs, Gs, Vs, Ws, c, P0, u)
    F2 = np.concatenate([Fs, np.zeros((T, d, 1))], axis=2)
    V2 = np.zeros((T, 2, 2))
    V2[:, 0, 0], V2[:, 1, 1] = Vs[:, 0, 0], 1.0
    with np.errstate(all="ignore"):
        R, Q, A, P = mv.dlm._covariance_small(F2, Gs, V2, Ws, c, P0, u)
    two = R, Q[..., :1, :1], A[..., :1], P
    q = two[1][..., 0, 0]
    failing = np.flatnonzero(~(np.isfinite(q) & (q > 0)).all(axis=1))
    t = failing[0] if failing.size else T
    assert t == T or kind not in ("runs", "signed zeros"), t
    for name, x, y in zip("RQAP", one, two):
        assert x.shape == y.shape, name
        assert same_bits(x[:t], y[:t]), name
    for name, x, y in zip("RQ", one, two):
        assert same_bits(x[:t + 1], y[:t + 1]), name


def _first_failure(Q):
    """(t, message) of the first step whose Q (K x T x r x r) fails
    ``_check``, or (T, None)."""
    K, T, r = Q.shape[:3]
    try:
        with np.errstate(all="ignore"):
            mv.dlm._check(Q, np.zeros((K, T, r, 1)), np.zeros((K, T), dtype=bool))
    except mv.FilterError as exc:
        return exc.t - 1, str(exc)
    return T, None


@SETTINGS
@given(st.integers(1, 2), st.integers(1, 30), st.booleans(), st.booleans(),
       st.sampled_from(["runs", "signed zeros", "overflows", "zero Q"]), st.integers(0, 2**32 - 1))
def test_scalar_state_step_has_the_bits_of_the_padded_two_row_state(r, T, varying, use_w, kind, seed):
    # the d = 1 step of _covariance_small against the d = 2 step on the same
    # model padded with zeros in the second row and column of F, G, W and P0,
    # in both modes; a model that fails has the same records up to its first
    # failing step, where R is the same and Q fails the same check (the
    # records of a failing run are never returned)
    rng = np.random.default_rng(seed)
    Fs, Gs = rng.standard_normal((T, 1, r)), 1.0 + 0.3 * rng.standard_normal((T, 1, 1))
    B = rng.standard_normal((T, r, r))
    Vs = B @ B.swapaxes(1, 2) + 0.1 * np.eye(r)
    Ws = rng.uniform(0.01, 0.5, (T, 1, 1)) if use_w else None
    c = 2.0 if use_w else 2.0 * rng.uniform(0.7, 1.0)
    P0 = rng.uniform(0.5, 2.0, (1, 1))
    if kind == "signed zeros":  # -0.0 in G, W, P0, F and off V's diagonal, each at random
        Fs, Gs = (np.where(rng.random(X.shape) < 0.5, -0.0, X) for X in (Fs, Gs))
        Vs = np.where(np.eye(r, dtype=bool), 1.0, np.where(rng.random(Vs.shape) < 0.5, -0.0, 0.0))
        P0 = -0.0 * P0 if rng.random() < 0.5 else P0
        Ws = None if Ws is None else np.where(rng.random(Ws.shape) < 0.5, -0.0, Ws)
    elif kind == "overflows":  # R grows by about 1e8 a step until it overflows
        Gs, P0 = 1e4 * Gs, 1e270 * P0
    elif kind == "zero Q":  # P = 0, W = 0 and V = 0 make Q exactly 0 at the first step
        Vs, Ws, P0 = 0.0 * Vs, None, 0.0 * P0
    if not varying:  # constant inputs, as ModelSpec stacks them: stride 0 in time
        Fs, Gs, Vs = (np.broadcast_to(X[0], X.shape) for X in (Fs, Gs, Vs))
        Ws = None if Ws is None else np.broadcast_to(Ws[0], Ws.shape)
    observed = rng.random((T, r, 3)) < 0.7
    _, u, _, _ = mv.dlm._schedule(observed, ("new", "classical"), 1)
    one = mv.dlm._covariance_small(Fs, Gs, Vs, Ws, c, P0, u)

    def pad(X, cols=1):
        return None if X is None else np.pad(X, [(0, 0)] * (X.ndim - 2) + [(0, 1), (0, cols)])

    R, Q, A, P = mv.dlm._covariance_small(pad(Fs, 0), pad(Gs), Vs, pad(Ws), c, pad(P0), u)
    two = R[..., :1, :1], Q, A[..., :1, :], P[..., :1, :1]
    t, message = _first_failure(two[1].swapaxes(0, 1))
    assert _first_failure(one[1].swapaxes(0, 1)) == (t, message)
    assert t == T or kind not in ("runs", "signed zeros"), t
    for name, x, y in zip("RQAP", one, two):
        assert x.shape == y.shape, name
        assert same_bits(x[:t], y[:t]), name
    assert same_bits(one[0][:t + 1], two[0][:t + 1])


@SETTINGS
@given(st.integers(1, 2), st.integers(1, 2), st.integers(1, 30), st.booleans(),
       st.sampled_from(["runs", "overflows"]), st.integers(0, 2**32 - 1))
def test_constant_inputs_read_once_have_the_bits_of_inputs_read_per_step(d, r, T, use_w, kind, seed):
    # _covariance_small converts constant F, G, V and W (stride 0 in time, as
    # ModelSpec stacks them) to floats once; each of its four (d, r) steps then
    # has the bits of the same inputs materialized a step at a time
    rng = np.random.default_rng(seed)
    B, C = rng.standard_normal((r, r)), rng.standard_normal((d, d))
    F, G = rng.standard_normal((d, r)), np.eye(d) + 0.3 * rng.standard_normal((d, d))
    V, W = B @ B.T + 0.1 * np.eye(r), (0.1 * C @ C.T + 0.05 * np.eye(d) if use_w else None)
    c = 2.0 if use_w else 2.0 * rng.uniform(0.7, 1.0)
    P0 = C @ C.T + np.eye(d)
    if kind == "overflows":
        G, P0 = 1e4 * G, 1e270 * P0
    constant = [None if X is None else np.broadcast_to(X, (T,) + X.shape) for X in (F, G, V, W)]
    _, u, _, _ = mv.dlm._schedule(rng.random((T, r, 3)) < 0.7, ("new", "classical"), 1)
    once = mv.dlm._covariance_small(*constant, c, P0, u)
    per_step = mv.dlm._covariance_small(*(None if X is None else X.copy() for X in constant), c, P0, u)
    for name, x, y in zip("RQAP", once, per_step):
        assert same_bits(x, y), name


# the widest p whose state block (p^2 entries a step) takes np.cumsum; with
# M = 2 the whole stack (2 p^2 entries a step in each mode) adds a step at a time
P_STRADDLE = math.isqrt(mv.dlm._WIDE_STEP - 1)
assert P_STRADDLE ** 2 < mv.dlm._WIDE_STEP <= 2 * P_STRADDLE ** 2


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
       st.one_of(st.sampled_from(SCAN_LENGTHS), st.integers(1, 80)), st.integers(0, 12),
       st.sampled_from([0.0, 0.2, 0.6]), st.integers(0, 2**32 - 1))
@example(d=2, p=P_STRADDLE, r=2, M=2, T=50, lead=3, rate=0.2, seed=7)
def test_a_state_read_has_the_bits_of_the_stack(d, p, r, M, T, lead, rate, seed):
    # a state read before S builds S_t in its block of steps alone; read
    # forward, in reverse or by slice, each on a fresh output, and after S is
    # read, it has the bits of S[t]
    model, prior, _, _, _, y = random_run(d, p, r, M, T, rate, seed)
    y[:, :lead] = np.nan  # steps before the first update
    rec = mv.dlm._run(model, prior, y, ("new", "classical"))

    def states(k, i):
        return mv.dlm._series_output(rec, k, i).states

    reads = {(k, i): (list(states(k, i)), list(reversed(states(k, i)))[::-1],
                      states(k, i)[::-2], states(k, i)[T // 2::3])
             for k in range(2) for i in range(M)}
    stack = rec["S"]()
    for (k, i), (forward, reverse, back, mid) in reads.items():
        S, out = stack[k, :, i], mv.dlm._series_output(rec, k, i)
        assert np.array_equal(out.S, S)
        for t in range(T):
            want = S[t].tobytes()
            assert forward[t].miw.S.tobytes() == want, (k, i, t)
            assert reverse[t].miw.S.tobytes() == want, (k, i, t)
            assert out.states[t].miw.S.tobytes() == want, (k, i, t)
        for got, steps in ((back, range(T - 1, -1, -2)), (mid, range(T // 2, T, 3))):
            assert [s.miw.S.tobytes() for s in got] == [S[t].tobytes() for t in steps], (k, i)


def test_a_failing_property_does_not_stop_the_suite(pytester, pytestconfig):
    # Hypothesis reports a failing property through libcst, which warns that
    # mypy_extensions.TypedDict is deprecated. The suite's filterwarnings turn
    # warnings into errors, and unless that one is ignored the run stops with
    # INTERNALERROR before the tests after the failing one.
    filters = "".join(f"\n    {entry}" for entry in pytestconfig.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings ={filters}\n")
    pytester.makepyfile(test_two="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """)
    pytester.runpytest_subprocess("-p", "no:cacheprovider").assert_outcomes(failed=1, passed=1)
