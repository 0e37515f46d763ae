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
from hypothesis import given, settings
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


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
       st.one_of(st.sampled_from(SCAN_LENGTHS), st.integers(1, 80)),
       st.sampled_from([("new",), ("classical",), ("new", "classical")]),
       st.sampled_from([0.0, 0.2, 0.6]), st.integers(0, 2**32 - 1))
def test_mean_scan_matches_the_sequential_recursion(d, p, r, M, T, modes, rate, seed):
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
    rec = mv.dlm._run(model, prior, y, modes)
    _, _, gain, _, obs_cols = mv.dlm._schedule(observed, modes, M)
    want = oracles.sequential_means(Fs, Gs, rec["A"].swapaxes(0, 1), prior.m,
                                    y.transpose(1, 2, 0, 3).reshape(T, r, M * p), obs_cols, gain)
    for name, w in zip("afem", want):
        err = np.abs(rec[name].swapaxes(0, 1) - w).max()
        assert err <= 1e-13 * np.abs(w).max(), (name, err)
    assert not rec["e"][:, ~obs_cols].any()
    # a column that a mode does not move at a step keeps its prior mean bit for bit
    still = np.broadcast_to(~gain.swapaxes(0, 1), rec["m"].shape)
    assert np.array_equal(rec["m"][still], rec["a"][still])


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
