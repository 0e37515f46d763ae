"""Filtering layer: evolution, forecasting, masked updates, diagnostics.

The masked-update recursions are checked against an independently written
univariate filter, against exact no-op/bit-identity requirements, and
against bookkeeping identities that must hold exactly (not just to
floating-point tolerance).
"""
import copy
import math
import pickle
import re
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("hidden", [2.0, -0.0, np.inf, np.nan])
def test_masked_observation_array_has_nan_at_unobserved_entries(hidden):
    obs = mv.MaskedObservation(y=[[1.0, hidden]], observed=[[True, False]])
    assert np.array_equal(obs.y, [[1.0, np.nan]], equal_nan=True)  # NaN, whatever was given
    values = np.asarray(obs)
    assert values[0, 0] == 1.0 and np.isnan(values[0, 1])


# ---------------------------------------------------------------------------
# one conversion rule for every numeric input
# ---------------------------------------------------------------------------

# numpy reads none of these as real numbers, so none may become NaN (a missing
# entry), 1.0 or a bare OverflowError or TypeError. A truth value stands alone
# or fills an all-bool array: numpy reads [True, 1.0] as floats.
NOT_NUMBERS = {"none": None, "nan-text": "nan", "truth": True, "complex": 1j,
               "huge-int": 10**400, "dict": {}}


def holding(bad, shape):
    """An input of ``shape`` that holds ``bad``: all truth values for True,
    else ones with ``bad`` in the first entry."""
    if bad is True:
        return np.ones(shape, dtype=bool) if shape else True
    cells = np.ones(math.prod(shape), dtype=object)
    cells[0] = bad
    return cells.reshape(shape).tolist()


_LAW = dict(S=np.eye(2), n=np.ones(2), v=2.0)
_SPEC = dict(d=1, p=2, r=1, F=np.eye(1), G=np.eye(1), V=np.eye(1), discount=0.9)
NUMERIC_INPUTS = {
    "MaskedObservation.from_values": ((1, 2), mv.MaskedObservation.from_values),
    "MaskedObservation": ((1, 2), lambda x: mv.MaskedObservation(
        y=x, observed=np.ones((1, 2), dtype=bool))),
    "ModelSpec F": ((1, 1), lambda x: mv.ModelSpec(**{**_SPEC, "F": x})),
    "ModelSpec discount": ((), lambda x: mv.ModelSpec(**{**_SPEC, "discount": x})),
    "NmiwState m": ((1, 2), lambda x: mv.NmiwState(m=x, P=np.eye(1), miw=mv.MiwParams(**_LAW))),
    "MiwParams S": ((2, 2), lambda x: mv.MiwParams(**{**_LAW, "S": x})),
    "MiwParams n": ((2,), lambda x: mv.MiwParams(**{**_LAW, "n": x})),
    "MiwParams v": ((), lambda x: mv.MiwParams(**{**_LAW, "v": x})),
    "MtParams f": ((1, 2), lambda x: mv.MtParams(f=x, Q=np.eye(1), **_LAW)),
    "mt_log_density Y": ((1, 2), lambda x: mv.mt_log_density(
        x, mv.MtParams(f=np.zeros((1, 2)), Q=np.eye(1), **_LAW))),
    "symmetrize": ((2, 2), mv.symmetrize),
    "cholesky_lower": ((2, 2), mv.cholesky_lower),
    "iw_log_density Sigma": ((2, 2), lambda x: mv.iw_log_density(x, np.eye(2), 10.0)),
    "iw_log_density R": ((2, 2), lambda x: mv.iw_log_density(np.eye(2), x, 10.0)),
    "miw_log_density Sigma": ((2, 2), lambda x: mv.miw_log_density(x, mv.MiwParams(**_LAW))),
    "miw_conditional_update P": ((1, 1), lambda x: mv.miw_conditional_update(
        np.zeros((1, 2)), x, mv.MiwParams(**_LAW), np.ones((1, 2)))),
    "IgParams shape": ((), lambda x: mv.IgParams(shape=x, scale=1.0)),
    "IgParams scale": ((), lambda x: mv.IgParams(shape=1.0, scale=x)),
}


@pytest.mark.parametrize("site, kind", [
    (site, kind) for site in NUMERIC_INPUTS for kind in NOT_NUMBERS
    if (site, kind) != ("ModelSpec discount", "none")  # None means no discount
])
def test_input_numpy_does_not_read_as_real_numbers_is_rejected(site, kind):
    shape, build = NUMERIC_INPUTS[site]
    bad = NOT_NUMBERS[kind]
    with pytest.raises(mv.DimensionMismatch, match="the values do not form a"):
        build(holding(bad, shape))


@pytest.mark.parametrize("bad", list(NOT_NUMBERS.values()), ids=list(NOT_NUMBERS))
def test_callable_value_that_is_not_a_number_is_filter_error_at_its_time(bad):
    # a bare value; a bool array among float arrays is the next test's case
    model = mv.ModelSpec(**{**_SPEC, "F": lambda t: bad if t == 2 else np.eye(1)})
    with pytest.raises(mv.FilterError) as exc:
        mv.filter(model, np.full((4, 1, 2), 0.5), mv.default_prior())
    assert exc.value.t == 2
    assert str(exc.value).startswith(
        "t=2: F at t=2: the values do not form a 1 x 1 array of real numbers")


@pytest.mark.parametrize("truth_t, other_t, other", [
    (2, None, None), (2, 3, "raise"), (2, 3, "nan"), (3, 2, "raise"), (3, 2, "nan"),
])
def test_callable_truth_values_among_numbers_are_filter_error_at_their_time(
        truth_t, other_t, other):
    # numpy reads a bool array stacked with float arrays as floats, so such a
    # value is checked by itself; the earliest of it, a raised error and a
    # non-finite value is raised, at its t
    def F(t):
        if t == truth_t:
            return np.array([[True]])
        if t == other_t and other == "raise":
            raise mv.DomainError("no design this late")
        return np.array([[np.nan if t == other_t else 1.0]])

    model = mv.ModelSpec(**{**_SPEC, "F": F})
    with pytest.raises(mv.FilterError) as exc:
        mv.filter(model, np.full((4, 1, 2), 0.5), mv.default_prior())
    if other_t is None or truth_t < other_t:
        assert exc.value.t == truth_t
        assert str(exc.value) == (
            f"t={truth_t}: F at t={truth_t}: the values do not form a 1 x 1 array of real "
            "numbers (numpy reads them as bool)")
    else:
        assert exc.value.t == other_t
        assert str(exc.value) == f"t={other_t}: " + (
            "no design this late" if other == "raise" else f"F at t={other_t} must be finite")


@pytest.mark.parametrize("container", [list, tuple])
def test_step_of_truth_values_among_steps_of_numbers_is_rejected(container):
    # numpy promotes a bool step stacked with float steps to floats, so the
    # step is checked by itself, and named
    steps = container([np.ones((1, 2)), np.ones((1, 2), dtype=bool)])
    with pytest.raises(mv.DimensionMismatch,
                       match="^observations: step 2 is read as bool, not real numbers$"):
        mv.filter(mv.local_level_model(), steps, mv.default_prior())
    # a truth value beside a number inside one step is read as a number
    out = mv.filter(mv.local_level_model(), container([[[True, 0.5]]]), mv.default_prior())
    assert out.e[0].tolist() == [[1.0, 0.5]]


@pytest.mark.parametrize("container", [list, tuple])
def test_steps_of_masked_observations_are_read_through_their_values(container):
    # a list or tuple of MaskedObservation steps is read from their y arrays:
    # the array numpy's __array__ protocol gives, NaN positions included
    rng = np.random.default_rng(67)
    values = rng.standard_normal((9, 2, 3))
    values[rng.random(values.shape) < 0.3] = np.nan
    values[4] = np.nan
    steps = container(mv.MaskedObservation.from_values(y) for y in values)
    got = mv.dlm._observations(steps)
    want = np.asarray(steps)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape == (9, 2, 3)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.isnan(got), np.isnan(values))
    # a bool step among them is still checked by itself, and named
    mixed = container([*steps[:2], np.ones((2, 3), dtype=bool)])
    with pytest.raises(mv.DimensionMismatch,
                       match="^observations: step 3 is read as bool, not real numbers$"):
        mv.dlm._observations(mixed)
    # steps of the wrong r or p, or of two shapes, keep their messages
    model, prior = mv.local_level_model(), mv.default_prior()
    for shape in ((2, 2), (1, 3)):
        wrong = container(mv.MaskedObservation.from_values(np.ones(shape)) for _ in range(3))
        with pytest.raises(mv.DimensionMismatch, match=re.escape(
                f"data has r={shape[0]}, p={shape[1]} but the model declares r=1, p=2")):
            mv.filter(model, wrong, prior)
    ragged = container([mv.MaskedObservation.from_values(np.ones((1, 2))),
                        mv.MaskedObservation.from_values(np.ones((2, 2)))])
    with pytest.raises(mv.DimensionMismatch, match=re.escape(
            "observations: the values do not form a T x r x p array of real numbers "
            "(setting an array element with a sequence.")):
        mv.filter(model, ragged, prior)


# a mask is truth values: numpy reads none of these as such, so none may mark
# an entry missing (None, as False) or observed ("no", NaN, 2, 0.5, as True)
NOT_TRUTH_VALUES = {"none": None, "text": "no", "nan": np.nan, "two": 2, "half": 0.5}


@pytest.mark.parametrize("bad", list(NOT_TRUTH_VALUES.values()), ids=list(NOT_TRUTH_VALUES))
def test_mask_that_is_not_truth_values_is_rejected(bad):
    with pytest.raises(mv.DimensionMismatch, match="mask: the values do not form a 1 x 2 array "
                                                   "of truth values"):
        mv.MaskedObservation(y=[[1.0, 2.0]], observed=[[True, bad]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["shape", "scale"])
def test_ig_params_reject_non_finite_parameters(name, bad):
    with pytest.raises(mv.DomainError, match=f"{name} must be finite"):
        mv.IgParams(**{"shape": 2.0, "scale": 1.0, name: bad})


def test_real_numbers_of_any_width_are_read_as_float():
    # ints, unsigned ints and float32 are real numbers: read as float64
    obs = mv.MaskedObservation.from_values(np.array([[1, 2]], dtype=np.uint8))
    assert obs.y.dtype == float and obs.y.tolist() == [[1.0, 2.0]]
    model = mv.ModelSpec(**{**_SPEC, "F": [[2]], "discount": np.float32(0.5)})
    assert model.F.dtype == float and model.discount == 0.5
    ig = mv.IgParams(shape=np.int8(2), scale=np.float32(0.5))
    assert (type(ig.shape), type(ig.scale)) == (float, float) and ig == mv.IgParams(2.0, 0.5)


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
            e = np.where(observed, y - model.F(k + 1).T @ a, 0.0)
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


def s_oracle_inputs(case):
    """Model, prior and T x r x p data of one case of the S oracle test."""
    T, p, r = {"p40-r1": (120, 40, 1), "r2": (60, 3, 2), "r3": (50, 3, 3),
               "late-first-update": (40, 3, 2),
               "classical-never-updates": (30, 3, 2), "T1": (1, 3, 2),
               "T-not-block-multiple": (100, 3, 1)}[case]
    rng = np.random.default_rng(80)
    model, prior = random_model(rng, 2, p, r, use_discount=True), random_prior(rng, 2, p)
    y = rng.standard_normal((T, r, p))
    y[rng.random(y.shape) < 0.1] = np.nan
    if case == "late-first-update":
        y[:4] = np.nan
    if case == "classical-never-updates":
        y[np.arange(T), 0, np.arange(T) % p] = np.nan
    return model, prior, y


@pytest.mark.parametrize("case", ["p40-r1", "r2", "r3", "late-first-update",
                                  "classical-never-updates", "T1", "T-not-block-multiple"])
def test_s_matches_the_cumulative_sum_oracle_exactly(case):
    model, prior, y = s_oracle_inputs(case)
    rec = mv.dlm._run(model, prior, y[None], ("new", "classical"))
    both = [mv.dlm._series_output(rec, k, 0) for k in range(2)]
    for mode, joint in zip(("new", "classical"), both):
        single = mv.filter(model, y, prior, mode=mode)
        want = oracles.s_stack(single.e, single.Q, single.observed, single.n,
                               prior.miw.S, prior.miw.n)
        # a state read before S builds its block of steps alone (at p = 40 a
        # step holds 1,600 entries, added a step at a time; np.cumsum at p = 3)
        got = [state.miw.S for state in reversed(single.states)][::-1]
        assert "S" not in single.__dict__
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), mode
        assert np.array_equal(single.S, want), mode
        assert np.array_equal(joint.S, want), mode
    if case == "late-first-update":
        assert np.array_equal(both[0].S[:4], np.broadcast_to(prior.miw.S, (4, 3, 3)))
    if case == "classical-never-updates":
        assert np.array_equal(both[1].n, np.broadcast_to(prior.miw.n, (30, 3)))


@pytest.mark.parametrize("case", ["p40-r1", "r2", "r3", "late-first-update",
                                  "classical-never-updates"])
def test_std_err_reads_the_diagonal_of_the_previous_scale(case):
    # std_err is computed from diag(S) alone; it must have the bits of the
    # full stack's diagonal, in every mode and series of a batched run
    model, prior, y = s_oracle_inputs(case)
    ys = np.where(np.isnan(y), np.nan, np.random.default_rng(83).standard_normal((3,) + y.shape))
    rec = mv.dlm._run(model, prior, ys, ("new", "classical"))
    for k in range(2):
        for i in range(3):
            out = mv.dlm._series_output(rec, k, i)
            prev = np.concatenate([prior.miw.S[None], out.S[:-1]])
            s = np.diagonal(prev, axis1=1, axis2=2)[:, None, :]
            q = np.diagonal(out.Q, axis1=1, axis2=2)[:, :, None]
            want = np.where(out.observed, out.e / np.sqrt(q * s), np.nan)
            assert np.array_equal(out.std_err, want, equal_nan=True), (k, i)


def test_s_stack_is_built_once_per_record_and_shared():
    model, prior, y = s_oracle_inputs("r2")
    rec = mv.dlm._run(model, prior, y[None], ("new", "classical"))
    outs = [mv.dlm._series_output(rec, k, 0) for k in range(2)]
    stack = rec["S"]()
    assert rec["S"]() is stack
    for out in outs:
        assert out.S is out.S
        assert np.shares_memory(out.S, stack)
        # a replaced output reads the same stack, and keeps every other record
        moved = replace(out, std_err=out.std_err[..., :2])
        assert np.shares_memory(moved.S, stack) and moved.e is out.e


def test_filter_output_pickles_and_copies_with_its_s():
    model, prior, y = s_oracle_inputs("r2")
    out = mv.filter(model, y, prior)
    for back in (pickle.loads(pickle.dumps(out)), copy.deepcopy(out)):
        assert np.array_equal(back.S, out.S) and not np.shares_memory(back.S, out.S)
        assert np.array_equal(back.std_err, out.std_err, equal_nan=True)
        assert np.array_equal(replace(back, mode="x").S, out.S)


def test_marginals_are_built_once_and_pickle_with_the_output():
    model, prior, y = s_oracle_inputs("r2")
    out = mv.filter(model, y, prior)
    mt = out.marginals
    assert out.marginals is mt
    for back in (pickle.loads(pickle.dumps(out)), copy.deepcopy(out)):
        assert back.marginals is back.marginals
        for name in ("f", "Q", "S", "n", "v"):
            assert np.array_equal(getattr(back.marginals, name), getattr(mt, name)), name
    # a replaced output builds its own law from its own records
    moved = replace(out, f=out.f + 1.0)
    assert np.array_equal(moved.marginals.f, out.f + 1.0)


def test_filter_that_reads_no_s_holds_no_s_stack():
    # at p = 100 the T x p x p stack alone takes 160 MB
    T, p = 2_000, 100
    rng = np.random.default_rng(84)
    model, prior = random_model(rng, 2, p, 1, use_discount=True), random_prior(rng, 2, p)
    y = rng.standard_normal((T, 1, p))
    y[rng.random(y.shape) < 0.1] = np.nan
    tracemalloc.start()
    try:
        out = mv.filter(model, y, prior)
        held, peak = tracemalloc.get_traced_memory()
        # the last state builds its block of steps alone, not the stack
        tracemalloc.reset_peak()
        final = out.states[-1]
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.T == T
    assert peak < 40e6, (held, peak)
    assert final.miw.S.shape == (p, p)
    assert read_peak < 40e6, (held, read_peak)
    assert "S" not in out.__dict__


def test_series_records_share_one_buffer_that_bounds_a_filter_peak():
    # the wide_filter benchmark's shape: d = 2, p = 40, r = 1, T = 2,000
    T, p = 2_000, 40
    rng = np.random.default_rng(87)
    model, prior = random_model(rng, 2, p, 1, use_discount=True), random_prior(rng, 2, p)
    y = rng.standard_normal((T, 1, p))
    y[rng.random(y.shape) < 0.1] = np.nan
    tracemalloc.start()
    try:
        out = mv.filter(model, y, prior)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    records = (out.a, out.f, out.e, out.m, out.std_err)
    buffer = out.a.base
    assert all(np.shares_memory(x, buffer) for x in records)
    # every output keeps a view of n: in the buffer, it would hold all of it
    assert not np.shares_memory(out.n, buffer)
    # The peak is 1.76 times the records' 4.48 MB (numpy 2.4), and was 1.89
    # when each record had an array of its own and std_err took four
    # temporaries. The bound leaves 0.4 MB, less than one more T x p array
    # (0.64 MB).
    assert peak < 1.85 * sum(x.nbytes for x in records), peak


def test_series_output_of_a_batched_run_holds_no_more_than_its_scale_inputs():
    # 400 replications of the study in both modes; replication 0's output of
    # the first mode outlives the record, with its S unread
    cfg = mv.LocalLevelConfig(T=100, corr=0.8, seed=3)
    y = np.stack([mv.gen_local_level(replace(cfg, seed=cfg.seed + i))[1] for i in range(400)])
    y = mv.apply_missing(y, mv.DEFAULT_MISSING_PATTERN)
    model, prior = mv.local_level_model(p=2), mv.default_prior(p=2)
    tracemalloc.start()
    try:
        out = mv.dlm._series_output(mv.dlm._run(model, prior, y, ("new", "classical")), 0, 0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # 1.33 MB held, as when each record had an array of its own: the 1.28 MB
    # Z of every replication and mode, which its S builds from on first read.
    # The buffer of a, f, e, m and std_err is freed; held by a view, it would
    # add 6.4 MB.
    assert held < 1.4e6, held
    assert out.S.shape == (100, 2, 2)


def test_reading_s_after_an_overflowing_run_warns_nothing():
    # S_12 adds -inf at t = 1 and +inf at t = 2; the stack, built on first
    # read, keeps the run's silence on values that overflow
    model = mv.ModelSpec(d=1, p=2, r=1, F=np.eye(1), G=np.eye(1), V=np.eye(1), discount=0.9)
    prior = mv.NmiwState(m=np.zeros((1, 2)), P=np.array([[1e-6]]),
                         miw=mv.MiwParams(S=np.eye(2), n=np.ones(2), v=2.0))
    out = mv.filter(model, [[[1e200, -1e200]], [[1e200, 1e200]]], prior)
    assert np.isnan(out.S[1, 0, 1]) and np.isinf(out.S[1, 0, 0])


def eliminate(Q, b) -> list:
    """x of Q x = b on Python floats, by Gaussian elimination on the rows of
    Q without pivoting, then back substitution, in the order of the gain
    stage's elementwise steps."""
    U, x, r = Q.tolist(), b.tolist(), len(b)
    for i in range(r - 1):
        for k in range(i + 1, r):
            ratio = U[k][i] / U[i][i]
            for j in range(i + 1, r):
                U[k][j] -= ratio * U[i][j]
            x[k] -= x[i] * ratio
    for i in reversed(range(r)):
        for j in range(i + 1, r):
            x[i] -= U[i][j] * x[j]
        x[i] /= U[i][i]
    return x


@pytest.mark.parametrize("d, r, p", [(3, 1, 3), (1, 2, 3), (2, 2, 3), (3, 3, 3),
                                     (2, 2, 1), (3, 2, 1), (2, 3, 1), (3, 3, 1)],
                         ids=["3-1", "1-2", "2-2", "3-3", "2-2-p1", "3-2-p1", "2-3-p1", "3-3-p1"])
def test_gain_has_the_bits_of_the_solve(monkeypatch, d, r, p):
    # the batched stage's gain solves its Q for each row of RF, summed over
    # the rows of F in row order, as that row's own system, with the bits of
    # the same elimination on Python floats, on the R of either covariance
    # loop (the numpy loop is forced at d <= 2); the mean pass's A e reads
    # that A
    monkeypatch.setattr(mv.dlm, "_covariance_small", mv.dlm._covariance_numpy)
    rng = np.random.default_rng(81)
    model, prior = random_model(rng, d, p, r, use_discount=True), random_prior(rng, d, p)
    y = rng.standard_normal((50, r, p))
    y[rng.random(y.shape) < 0.2] = np.nan
    gain = mv.dlm._schedule(~np.isnan(y), MODES, 1)[2]
    rec = mv.dlm._run(model, prior, y[None], MODES)
    for k in range(50):
        R, F = rec["R"][:, k], model.F(k + 1)
        RF = R[..., 0, None] * F[0]
        for i in range(1, d):
            RF += R[..., i, None] * F[i]
        want = np.array([[eliminate(Q, row) for row in rows] for Q, rows in zip(rec["Q"][:, k], RF)])
        assert np.array_equal(rec["A"][:, k], want), k
        m = rec["a"][:, k] + want @ np.where(gain[k], rec["e"][:, k], 0.0)
        assert np.array_equal(rec["m"][:, k], m), k


@pytest.mark.parametrize("d, r, pivot", [(1, 1, False), (2, 1, False), (1, 2, False),
                                         (2, 2, False), (1, 2, True), (2, 2, True)],
                         ids=["1", "2", "1-r2", "2-r2", "1-r2-pivot", "2-r2-pivot"])
def test_python_pass_gain_is_the_exact_gain(d, r, pivot):
    # the gain of the batched stage on the Python-float loop's R, held to the
    # exact recursion, also where an LU with partial pivoting swaps the rows
    # of Q. The pivot models are near rank 1 in F'RF by design, so they take
    # P0 of order 1: at P0 up to 1e3 cond(Q) reaches 2e4, and the gains err
    # by 2.4e-13.
    for seed in range(3):
        rng = np.random.default_rng([81, seed])
        inputs, model, prior, y = exact_case(rng, d, r, 1.0 if pivot else None, pivot)
        rec = mv.dlm._run(model, prior, y[None], MODES)
        if pivot:
            Q = rec["Q"]
            assert (np.abs(Q[..., 0, 1]) > np.abs(Q[..., 0, 0])).all(), seed
        for k, mode in enumerate(MODES):
            want = oracles.exact_filter(**inputs, mode=mode)["A"]
            for t, A in enumerate(want):
                assert relative_error(rec["A"][k, t], A) <= GAIN_BOUND, (seed, mode, t)


def test_private_lapack_gufuncs_keep_the_contract_the_kernel_reads():
    # _covariance_numpy and _factor call numpy.linalg._umath_linalg, a
    # private module, where np.linalg would raise; a numpy that changes it
    # fails here by name, not as a wrong FilterError
    lapack = mv.dlm._umath_linalg
    rng = np.random.default_rng(84)
    X = rng.standard_normal((4, 3, 3))
    Q = X @ X.swapaxes(1, 2) + np.eye(3)
    B = rng.standard_normal((4, 2, 3)).swapaxes(1, 2)  # a transposed layout, as in the kernel
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    singular = np.ones((2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            gain = lapack.solve(Q, B)
            chol = lapack.cholesky_lo(Q, signature="d->d")
            failed = lapack.cholesky_lo(indefinite, signature="d->d")
            unsolved = lapack.solve(singular, np.eye(2))
    assert np.array_equal(gain, np.linalg.solve(Q, B))
    assert np.array_equal(chol, np.linalg.cholesky(Q))
    assert np.isnan(failed).any()
    assert np.isnan(unsolved).all()


# ---------------------------------------------------------------------------
# every record against the exact rational recursion
# ---------------------------------------------------------------------------

MODES = ("new", "classical")
# (d, r) of the exact-oracle models. The Python-float covariance loop runs
# those with d <= 2 and the numpy loop the rest; the bounds below keep the
# split by the models they were set on, d <= 2 with r <= 2 and the rest (the
# (2, 3) model of seed 15 has a mean that cancels, kappa 3e5 in conditioning()).
EXACT_SHAPES = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3), (3, 2), (2, 3)]
EXACT_RECORDS = ("a", "R", "f", "Q", "A", "e", "m", "P", "n", "S")
# Worst normwise relative error of any record at any step over the models of
# test_every_record_is_close_to_the_exact_recursion. On the models outside
# d, r <= 2 it was 2.0e-12 (in f), and the bound is 10 times that; it is
# 5.3e-13 with the information form. The bound of the d, r <= 2 models was
# set at 10 times 1.5e-14 (in e), the worst on the r = 1 ones before their
# Python-float step existed; with the 2 x 2 gain by elimination it was
# 6.0e-14, and with the information form it is 1.2e-14.
EXACT_BOUNDS = {"python": 1.5e-13, "numpy": 2e-11}
# 10 times the worst gain error over the r = 1 models of
# test_python_pass_gain_is_the_exact_gain before the pass, 5.4e-15; over all
# its models, r = 2 and the pivot ones too, the worst is now 1.2e-14 (at
# d = 2, r = 2, a pivot model), from the batched stage's elimination on the
# information form's R
GAIN_BOUND = 5.4e-14
# Runs through the two covariance loops differ by at most 3.1e-14 (normwise
# relative, any record, step and mode) on the models of
# test_python_pass_matches_the_numpy_step, r = 1 and r = 2, and by 8.1e-15 on
# those of test_both_passes_agree_where_a_pivoting_lu_would_swap; the bound
# leaves a margin of 16.
PASS_BOUND = 5e-13


def on_grid(a):
    """``a`` rounded to a multiple of 2^-12: exact in floats and short as a
    fraction, which keeps the oracle's numbers small."""
    return np.round(np.asarray(a, dtype=float) * 4096.0) / 4096.0


def exact_case(rng, d, r, P0_scale=None, pivot=False):
    """Oracle inputs, model, prior and data (T x r x p, NaN where missing) of
    a random model with d x r design and p, T drawn: partly missing entries
    and one fully missing step, W or a discount, every input on the 2^-12
    grid. P0 is SPD with entries of order ``P0_scale``, log-uniform in
    [0.1, 1e3] when None. With ``pivot`` (r = 2), F's second column is about
    three times its first and V is [[1/4, 3/4], [3/4, 4]], so that
    |q01| > |q00|: an LU with partial pivoting would swap the rows of Q."""
    p = int(rng.integers(1, 4))
    T = int(rng.integers(6, 11)) if d * r <= 2 else 6
    F = on_grid(rng.standard_normal((T, d, r)))
    G = on_grid(np.eye(d) + 0.2 * rng.standard_normal((T, d, d)))
    B = rng.standard_normal((T, r, r))
    V = on_grid(B @ B.swapaxes(1, 2) / r + 0.5 * np.eye(r))
    if pivot:
        F[..., 1] = on_grid(3.0 * F[..., 0] + 0.1 * F[..., 1])
        V = np.tile([[0.25, 0.75], [0.75, 4.0]], (T, 1, 1))
    W, delta = None, None
    if rng.random() < 0.5:
        C = rng.standard_normal((T, d, d))
        W = on_grid(0.1 * C @ C.swapaxes(1, 2) / d + 0.05 * np.eye(d))
    else:
        delta = on_grid(rng.uniform(0.8, 1.0))
    y = on_grid(2.0 * rng.standard_normal((T, r, p)))
    y[rng.random(y.shape) < 0.25] = np.nan
    y[rng.integers(T)] = np.nan
    scale = 10.0 ** rng.uniform(-1.0, 3.0) if P0_scale is None else P0_scale
    B0 = rng.standard_normal((d, d))
    P0 = on_grid(scale * (B0 @ B0.T / d + np.eye(d)))
    m0 = on_grid(rng.standard_normal((d, p)))
    B1 = rng.standard_normal((p, p))
    S0 = on_grid(B1 @ B1.T / p + np.eye(p))
    n0 = rng.choice([1.0, 2.25, 4.0, 6.25], size=p)
    inputs = dict(F=F, G=G, V=V, W=W, delta=delta, y=y, m0=m0, P0=P0, S0=S0, n0=n0)
    stack = lambda a: (lambda t: a[t - 1])
    model = mv.ModelSpec(d=d, p=p, r=r, F=stack(F), G=stack(G), V=stack(V),
                         W=None if W is None else stack(W), discount=delta)
    prior = mv.NmiwState(m=m0, P=P0, miw=mv.MiwParams(S=S0, n=n0, v=float(p)))
    return inputs, model, prior, y


def relative_error(got, want) -> float:
    """||got - want|| / ||want|| in the Frobenius norm, ``want`` exact (nested
    Fractions, rounded to floats here); 0 when both are 0, inf when only
    ``want`` is 0."""
    want = np.array(want, dtype=float)
    diff, scale = np.linalg.norm(np.asarray(got) - want), np.linalg.norm(want)
    return 0.0 if diff == 0.0 else math.inf if scale == 0.0 else float(diff / scale)


def exact_runs(inputs) -> list[dict]:
    """:func:`oracles.exact_filter` of the model in each of ``MODES``."""
    return [oracles.exact_filter(**inputs, mode=mode) for mode in MODES]


def exact_errors(inputs, model, prior, y, exact=None) -> dict[str, float]:
    """Worst normwise relative error of each record of a two-mode run, over
    the steps and modes, against :func:`oracles.exact_filter` (``exact``, its
    :func:`exact_runs`, when given). S is compared with the exact
    N^{1/2} S N^{1/2} divided by sqrt(n_i) sqrt(n_j) in floats."""
    rec = mv.dlm._run(model, prior, y[None], MODES)
    S = rec["S"]()[:, :, 0]
    worst = dict.fromkeys(EXACT_RECORDS, 0.0)
    for k, run in enumerate(exact or exact_runs(inputs)):
        for t in range(len(y)):
            root = np.sqrt(np.array(run["n"][t], dtype=float))
            want_S = np.array(run["SN"][t], dtype=float) / (root[:, None] * root[None, :])
            for name in EXACT_RECORDS:
                got = S[k, t] if name == "S" else rec[name][k, t]
                want = want_S if name == "S" else run[name][t]
                worst[name] = max(worst[name], relative_error(got, want))
    return worst


def conditioning(inputs, exact) -> float:
    """kappa = kappa_cov * kappa_mean of a model, read from its exact records
    in both modes (``exact``, from :func:`exact_runs`), Frobenius norms, max
    over the steps and modes:

    - kappa_cov = max(||R|| / ||P||, cond_2 Q): the cancellation in
      P = R - u A Q A' and the conditioning of the gain's solve;
    - kappa_mean, the cancellation in each sum of the mean step:
      ||G|| ||m_{t-1}|| / ||a||, ||F|| ||a|| / ||f||,
      (||y_o|| + ||f_o||) / ||e|| over the observed entries o, and
      (||a|| + ||m - a||) / ||m||, each at the steps where its record is
      not 0.

    The gain's error, of order eps kappa_cov, reaches the mean through A e,
    and each cancellation of the mean step scales it up, so the product
    bounds the error of every record."""
    norm = partial(np.linalg.norm, axis=(-2, -1))

    def ratio(num, den):
        # a record that is exactly 0 at a step has no error there to scale
        return (num[den > 0.0] / den[den > 0.0]).max(initial=1.0)

    F, G, y = inputs["F"], inputs["G"], inputs["y"]
    observed = ~np.isnan(y)
    cov = mean = 1.0
    for run in exact:
        R, P, Q, a, f, e, m = (np.array(run[name], dtype=float) for name in "RPQafem")
        before = np.concatenate([inputs["m0"][None], m[:-1]])
        spread = norm(np.where(observed, y, 0.0)) + norm(np.where(observed, f, 0.0))
        cov = max(cov, ratio(norm(R), norm(P)), np.linalg.cond(Q).max())
        mean = max(mean, ratio(norm(G) * norm(before), norm(a)), ratio(norm(F) * norm(a), norm(f)),
                   ratio(spread, norm(e)), ratio(norm(a) + norm(m - a), norm(m)))
    return cov * mean


def test_every_record_is_close_to_the_exact_recursion():
    # 24 models, three of each (d, r) in EXACT_SHAPES, both covariance loops,
    # and two r = 2 models whose Q an LU with partial pivoting would swap
    worst = dict.fromkeys(EXACT_BOUNDS, 0.0)
    cases = [exact_case(np.random.default_rng([86, seed]), *EXACT_SHAPES[seed % len(EXACT_SHAPES)])
             for seed in range(24)]
    cases += [exact_case(np.random.default_rng([86, 24 + d]), d, 2, 1.0, pivot=True) for d in (1, 2)]
    for seed, (inputs, model, prior, y) in enumerate(cases):
        errors = exact_errors(inputs, model, prior, y)
        assert errors["n"] == 0.0, seed
        path = "python" if model.r <= 2 and model.d <= 2 else "numpy"
        worst[path] = max(worst[path], *errors.values())
    assert all(worst[path] <= EXACT_BOUNDS[path] for path in worst), worst


# error / (eps kappa) of any record of a model, kappa its conditioning(): the
# worst over 3,000 models drawn like the property's (exact_case at seeds
# [90, i], d and r uniform in 1..3, the test's P0) was 71.7 before the
# covariance update took its information form (in Q at d = 3, r = 1, kappa
# 32; the p99 was 3.1 and the median 0.077), and is 35.2 after it (p99 2.5,
# median 0.052). The bound keeps a margin of 2.1 over the first.
SCALED_BOUND = 150


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3))
def test_every_drawn_record_is_within_its_conditioning(seed, d, r):
    # the exact-oracle bar over drawn models, both modes: each record's error
    # scales with the model's conditioning, not with a fixed set of models
    inputs, model, prior, y = exact_case(np.random.default_rng(seed), d, r)
    exact = exact_runs(inputs)
    errors = exact_errors(inputs, model, prior, y, exact)
    assert errors["n"] == 0.0
    scaled = max(errors.values()) / (np.finfo(float).eps * conditioning(inputs, exact))
    assert scaled <= SCALED_BOUND, (scaled, errors)


def test_vague_prior_gain_on_the_csv_model_is_exact_to_rounding():
    # mvdlm filter's benchmark model (d = 1, r = 2, P0 = 1e6) over its first
    # 12 steps, both modes: with nothing to cancel in P = (1 - u) R +
    # u (I + R J)^{-1} R, P and Q are exact to rounding. The subtraction
    # R - u A Q A' lost digits at the first update: 1.7e-10 in P, 8.1e-11 in Q.
    rng = np.random.default_rng(93)
    T, p, r = 12, 3, 2
    y = np.cumsum(0.2 * rng.standard_normal((T, 1, p)), axis=0) + rng.standard_normal((T, r, p))
    y[rng.random(y.shape) < 0.1] = np.nan
    assert (np.isnan(y).any(axis=(1, 2)) & ~np.isnan(y).all(axis=(1, 2))).any()
    inputs = dict(F=np.ones((T, 1, r)), G=np.ones((T, 1, 1)), V=np.tile(np.eye(r), (T, 1, 1)),
                  delta=0.9, y=y, m0=np.zeros((1, p)), P0=np.array([[1e6]]), S0=np.eye(p),
                  n0=np.ones(p))
    model = mv.ModelSpec(d=1, p=p, r=r, F=np.ones((1, r)), G=np.eye(1), V=np.eye(r), discount=0.9)
    prior = mv.NmiwState(m=np.zeros((1, p)), P=np.array([[1e6]]),
                         miw=mv.MiwParams(S=np.eye(p), n=np.ones(p), v=float(p)))
    rec = mv.dlm._run(model, prior, y[None], MODES)
    for k, exact in enumerate(exact_runs(inputs)):
        for t in range(T):
            for name in ("P", "Q"):
                assert relative_error(rec[name][k, t], exact[name][t]) <= 1e-14, (k, t, name)


def test_both_passes_agree_where_a_pivoting_lu_would_swap(monkeypatch):
    # the two pivot models of test_every_record_is_close_to_the_exact_recursion,
    # whose Q an LU with partial pivoting would swap at every step, through
    # both covariance loops: the Python-float loop's 2 x 2 adjugate and the
    # numpy loop's solve
    for d in (1, 2):
        _, model, prior, y = exact_case(np.random.default_rng([86, 24 + d]), d, 2, 1.0, pivot=True)
        python = mv.dlm._run(model, prior, y[None], MODES)
        with monkeypatch.context() as patch:
            patch.setattr(mv.dlm, "_covariance_small", mv.dlm._covariance_numpy)
            numpy = mv.dlm._run(model, prior, y[None], MODES)
        Q = python["Q"]
        assert (np.abs(Q[..., 0, 1]) > np.abs(Q[..., 0, 0])).all(), d
        assert np.array_equal(python["n"], numpy["n"])
        for name in ("a", "R", "f", "Q", "A", "e", "m", "P", "std_err", "S"):
            # NaN marks the same missing entries of std_err in both
            got, want = (np.nan_to_num(rec[name]() if name == "S" else rec[name])
                         for rec in (python, numpy))
            for k, t in np.ndindex(got.shape[:2]):
                assert relative_error(got[k, t], want[k, t]) <= PASS_BOUND, (d, name, k, t)


@pytest.mark.parametrize("d, r", [(1, 1), (2, 1), (1, 2), (2, 2)], ids=["1", "2", "1-r2", "2-r2"])
@pytest.mark.parametrize("use_discount", [False, True], ids=["W", "discount"])
def test_python_pass_matches_the_numpy_step(monkeypatch, d, r, use_discount):
    # the same models through both covariance loops, both modes, with partly
    # and fully missing steps; _run takes _covariance_small at d <= 2
    rng = np.random.default_rng(87)
    T = 300
    model, prior = random_model(rng, d, 3, r, use_discount), random_prior(rng, d, 3)
    y = rng.standard_normal((T, r, 3))
    y[rng.random(y.shape) < 0.2] = np.nan
    y[::25] = np.nan
    update = mv.dlm._schedule(~np.isnan(y), MODES, 1)[0]
    assert update.all(axis=1).any() and (update[:, 0] & ~update[:, 1]).any()
    assert (~update).all(axis=1).any()
    python = mv.dlm._run(model, prior, y[None], MODES)
    monkeypatch.setattr(mv.dlm, "_covariance_small", mv.dlm._covariance_numpy)
    numpy = mv.dlm._run(model, prior, y[None], MODES)
    assert np.array_equal(python["n"], numpy["n"])
    worst = 0.0
    for got, want in [(python[name], numpy[name]) for name in
                      ("a", "R", "f", "Q", "A", "e", "m", "P", "std_err")] + [
                      (python["S"](), numpy["S"]())]:
        # NaN marks the same missing entries of std_err in both
        diff, scale = (np.linalg.norm(np.nan_to_num(x).reshape(2, T, -1), axis=2)
                       for x in (got - want, want))
        errors = np.divide(diff, scale, out=np.where(diff > 0.0, np.inf, 0.0), where=scale > 0.0)
        worst = max(worst, errors.max())
    assert worst <= PASS_BOUND, worst


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

    assert len(out.states) == out.T == 8
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

    # the forecast laws are one law of T-stacks: f, Q, and (S, n) of the
    # previous state, or of the prior at the first step
    mt = out.marginals
    assert isinstance(mt, mv.MtParams)
    assert np.array_equal(mt.f, out.f) and np.array_equal(mt.Q, out.Q)
    assert np.array_equal(mt.S[0], prior.miw.S) and np.array_equal(mt.n[0], prior.miw.n)
    assert np.array_equal(mt.S[1:], out.S[:-1]) and np.array_equal(mt.n[1:], out.n[:-1])
    assert np.array_equal(mt.v, np.full(out.T, prior.miw.v))
    # its density at step t is that of the one-step law, bit for bit
    Y = rng.standard_normal(out.f.shape)
    stacked = mv.mt_log_density(Y, mt)
    assert stacked.shape == (out.T,)
    for t, prev in enumerate([prior] + states[:-1]):
        one = mv.MtParams(f=out.f[t], Q=out.Q[t], S=prev.miw.S, n=prev.miw.n, v=prev.miw.v)
        assert stacked[t] == mv.mt_log_density(Y[t], one), t

    # a slice of the states gives a tuple of the items read one index at a time
    for key in (slice(1, None), slice(None, None, -1), slice(-2, None)):
        got, want = out.states[key], states[key]
        assert isinstance(got, tuple) and len(got) == len(want) > 0
        assert all(states_bit_identical(a, b) for a, b in zip(got, want)), key


def count_shaped(monkeypatch) -> list:
    """The names of the values that ``linalg._shaped`` reads from now on, in
    every module that calls it."""
    calls = []
    for module in (mv.linalg, mv.distributions, mv.dlm):
        monkeypatch.setattr(module, "_shaped", lambda *args, _shaped=module._shaped, **kw:
                            calls.append(args[-1]) or _shaped(*args, **kw))
    return calls


def test_states_are_not_checked_again_and_have_the_bits_of_checked_ones(monkeypatch):
    # a state is built from records the run has checked, without the
    # constructors' checks; its fields have the bits of the checked
    # construction, read forward or in reverse, before or after S is read
    rng = np.random.default_rng(71)
    model, prior = random_model(rng, d=2, p=3, r=1), random_prior(rng, 2, 3)
    data = random_data(rng, 30, 1, 3, missing_rate=0.2)
    ref, before, reverse, after = (mv.filter(model, data, prior) for _ in range(4))
    checked = [mv.NmiwState(m=ref.m[t], P=ref.P[t],
                            miw=mv.MiwParams(S=ref.S[t], n=ref.n[t], v=prior.miw.v))
               for t in range(ref.T)]
    after.S
    calls = count_shaped(monkeypatch)
    sweeps = {"before S": list(before.states),
              "in reverse": [reverse.states[t] for t in range(ref.T - 1, -1, -1)][::-1],
              "after S": list(after.states)}
    assert calls == []
    for sweep, states in sweeps.items():
        for t, (got, want) in enumerate(zip(states, checked)):
            assert type(got) is mv.NmiwState and type(got.miw) is mv.MiwParams
            assert states_bit_identical(got, want), (sweep, t)
            assert type(got.miw.v) is float and got.d == 2 and got.p == 3


@pytest.mark.parametrize("r", [1, 2, 3])
def test_forecast_laws_are_not_checked_again_and_have_the_bits_of_checked_ones(monkeypatch, r):
    # the law of T-stacks is built from the run's records without MtParams's
    # checks: the batched stage leaves Q, and the run S, exactly symmetric at
    # every r, so every field has the bits of the checked construction
    rng = np.random.default_rng(73)
    model, prior = random_model(rng, d=2, p=3, r=r), random_prior(rng, 2, 3)
    out = mv.filter(model, random_data(rng, 30, r, 3, missing_rate=0.2), prior)
    miw = prior.miw
    want = mv.MtParams(f=out.f, Q=out.Q, S=np.concatenate([miw.S[None], out.S[:-1]]),
                       n=np.concatenate([miw.n[None], out.n[:-1]]), v=np.full(out.T, miw.v))
    calls = count_shaped(monkeypatch)
    got = out.marginals
    assert calls == [] and type(got) is mv.MtParams
    for name in ("f", "Q", "S", "n", "v"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name


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


@pytest.mark.parametrize("T", [20, 50, 101, 400])
@pytest.mark.parametrize("delta", [1.0, 0.9])
@pytest.mark.parametrize("p0", [1e-9, 1.0])
def test_constant_at_the_prior_mean_stays_exact_across_blocks(T, delta, p0):
    # a constant series at the prior mean is a fixed point of every step: the
    # mean pass, which runs in blocks of floor(sqrt(T)) steps, must keep it
    # exactly across each block boundary too, so every residual is 0
    model = scalar_model(v=1.0, delta=delta)
    for c in np.random.default_rng([T, 98]).uniform(-1e3, 1e3, size=4):
        out = mv.filter(model, np.full((T, 1, 1), c), scalar_prior(m0=c, p0=p0))
        assert not out.e.any(), c
        assert np.array_equal(mv.msse(out), np.zeros(1)), c


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


@pytest.mark.parametrize("p, r, M", [(2, 1, 20), (3, 2, 1), (3, 2, 3)],
                         ids=["study", "csv", "csv-3-series"])
def test_msse_of_a_stacked_run_has_the_bits_of_each_series(p, r, M):
    # _msse of the M series side by side (the study's path) against msse of
    # one series taken out (filter's path): the mean over one contiguous row
    # per series keeps np.mean's pairwise summation the same in both
    rng = np.random.default_rng(88)
    model = mv.ModelSpec(d=1, p=p, r=r, F=np.ones((1, r)), G=np.eye(1), V=np.eye(r),
                         discount=0.7)
    y = rng.standard_normal((M, 100, r, p))
    y[:, rng.random((100, r, p)) < 0.1] = np.nan
    rec = mv.dlm._run(model, mv.default_prior(p), y, MODES)
    stacked = mv.dlm._msse(rec["std_err"], rec["observed"])
    for k in range(2):
        for i in range(M):
            assert np.array_equal(stacked[k, i], mv.msse(mv.dlm._series_output(rec, k, i))), (k, i)


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
    # a bool, a fraction or a string is not an index
    for i, j in [(True, 0), (0.5, 1), ("0", 1)]:
        with pytest.raises(mv.DomainError):
            mv.correlation_estimate(state, i, j)


def test_filter_error_carries_time_index():
    # W makes R, and so Q, negative at t = 3
    bad_w = lambda t: (np.array([[-10.0]]) if t == 3 else np.array([[0.1]]))
    model = mv.ModelSpec(d=1, p=2, r=1, F=np.array([[1.0]]), G=np.array([[1.0]]),
                         V=np.eye(1), W=bad_w)
    data = [mv.MaskedObservation.from_values(np.array([[0.1, 0.2]]))
            for _ in range(5)]
    with pytest.raises(mv.FilterError) as exc:
        mv.filter(model, data, mv.default_prior())
    assert exc.value.t == 3
    assert "t=3" in str(exc.value)
    assert "forecast scale Q" in str(exc.value)


def test_bad_input_is_raised_before_an_earlier_forecast_failure():
    # G makes Q overflow at t = 3; F is NaN at t = 4. The inputs are checked
    # at entry, so F's error is raised before the loop runs.
    model = mv.ModelSpec(d=1, p=2, r=1, V=np.eye(1), discount=0.9,
                         F=lambda t: np.array([[np.nan if t == 4 else 1.0]]),
                         G=lambda t: np.array([[1e200 if t == 3 else 1.0]]))
    data = np.full((6, 1, 2), 0.5)
    with pytest.raises(mv.FilterError) as exc:
        mv.filter(model, data, mv.default_prior())
    assert exc.value.t == 4
    assert str(exc.value) == "t=4: F at t=4 must be finite"


def test_inputs_are_checked_f_before_g():
    # G is bad at the earlier step, but F is stacked and checked first
    model = mv.ModelSpec(d=1, p=2, r=1, V=np.eye(1), discount=0.9,
                         F=lambda t: np.array([[np.nan if t == 5 else 1.0]]),
                         G=lambda t: np.array([[np.inf if t == 3 else 1.0]]))
    with pytest.raises(mv.FilterError) as exc:
        mv.filter(model, np.full((6, 1, 2), 0.5), mv.default_prior())
    assert str(exc.value) == "t=5: F at t=5 must be finite"


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
            mv.dlm._run(model, prior, np.asarray(data, dtype=float)[None], modes)
    assert [str(w.message) for w in caught] == []
    return exc.value


def test_exactly_singular_q_is_not_positive_definite():
    # P = 0 and V = 0 would make Q = 0; V = 0 is not a covariance, and the
    # entry rule on V fails the run at its first step
    model = scalar_model(v=0.0, delta=1.0)
    exc = filter_error(model, np.ones((3, 1, 1)), scalar_prior(p0=0.0))
    assert str(exc) == "t=1: observation scale V is not positive definite"


@pytest.mark.parametrize("d", [1, 3])
def test_q_that_an_lu_finds_exactly_singular_fails_at_its_step(d):
    # W = -1.5 at t = 2 makes R = 0.5 - 1.5 = -1 in the first state row, so
    # Q = F'RF + V = 0 exactly there while V is a covariance: np.linalg.solve
    # would raise on such a Q, the gain stage's elimination gives inf or NaN,
    # and the checks report the step
    W = lambda t: np.diag([-1.5 if t == 2 else 0.0] + [0.0] * (d - 1))
    model = mv.ModelSpec(d=d, p=1, r=1, F=np.eye(d)[:, :1], G=np.eye(d), V=np.eye(1), W=W)
    prior = mv.NmiwState(m=np.zeros((d, 1)), P=np.eye(d),
                         miw=mv.MiwParams(S=np.eye(1), n=np.ones(1), v=1.0))
    for modes in (("new",), MODES):
        exc = filter_error(model, np.ones((3, 1, 1)), prior, modes)
        assert str(exc) == "t=2: forecast scale Q is not positive definite"


def count_small_pass(monkeypatch, run=None) -> list:
    """Patch ``_covariance_small`` to run ``run`` (itself by default) and
    append to the returned list at each call, so a test sees which loop ran."""
    run, calls = run or mv.dlm._covariance_small, []
    monkeypatch.setattr(mv.dlm, "_covariance_small", lambda *args: calls.append(1) or run(*args))
    return calls


@pytest.mark.parametrize("d, r", [(1, 1), (2, 1), (1, 2), (2, 2)], ids=["1", "2", "1-r2", "2-r2"])
@pytest.mark.parametrize("p0, v, message", [
    (1e308, 1.0, "t=1: forecast scale Q is not finite"),
    (0.0, 0.0, "t=1: observation scale V is not positive definite"),
], ids=["overflow", "zero"])
def test_python_pass_failures_are_raised_at_their_step(monkeypatch, d, r, p0, v, message):
    # G P G' overflows to inf in the Python-float loop, and the numpy loop
    # raises the same error at the same t; V = 0 fails the entry rule on V
    # before either loop runs
    model = mv.ModelSpec(d=d, p=2, r=r, F=np.ones((d, r)), G=10.0 * np.eye(d),
                         V=v * np.eye(r), discount=1.0)
    prior = mv.NmiwState(m=np.zeros((d, 2)), P=p0 * np.eye(d),
                         miw=mv.MiwParams(S=np.eye(2), n=np.ones(2), v=2.0))
    for run in (None, mv.dlm._covariance_numpy):
        calls = count_small_pass(monkeypatch, run)
        for modes in (("new",), MODES):
            assert str(filter_error(model, np.ones((3, r, 2)), prior, modes)) == message
        assert calls == ([1, 1] if v else [])


# Rank 1: an LU with partial pivoting finds it exactly singular, and
# elimination without pivoting finds a second pivot of 1.04 eps of V_11. It
# passes the Cholesky factorization, with a pivot ratio L_11^2 / V_11 of
# 1.56 eps, so the pivot-ratio rule alone tells it from a covariance.
V_LU_SINGULAR = np.array([[0.003305626623116044, -0.0049834247877285605],
                          [-0.0049834247877285605, 0.007512803303700776]])


# V's that are not covariances: V = 0, the rank-1 V_LU_SINGULAR that
# Cholesky still factors, and an indefinite V
NOT_POSITIVE_DEFINITE_V = {
    "zero": np.zeros((2, 2)),
    "lu-singular": V_LU_SINGULAR,
    "indefinite": np.array([[1.0, 2.0], [2.0, 1.0]]),
}


@pytest.mark.parametrize("form", ["constant", "callable"])
@pytest.mark.parametrize("kind", list(NOT_POSITIVE_DEFINITE_V))
def test_observation_scale_that_is_not_positive_definite_fails_at_its_first_step(form, kind):
    # the entry rule on V, _check's pivot-ratio rule, before the covariance
    # loops: a constant V fails at t = 1, a callable's at the first t it
    # returns one, in one mode or two
    bad = NOT_POSITIVE_DEFINITE_V[kind]
    V, t = (bad, 1) if form == "constant" else ((lambda t: bad if t >= 3 else np.eye(2)), 3)
    model = mv.ModelSpec(d=1, p=2, r=2, F=np.ones((1, 2)), G=np.eye(1), V=V, discount=0.9)
    for modes in (("new",), MODES):
        exc = filter_error(model, np.ones((5, 2, 2)), mv.default_prior(), modes)
        assert str(exc) == f"t={t}: observation scale V is not positive definite"
    with pytest.raises(mv.FilterError) as exc:
        mv.filter(model, np.ones((5, 2, 2)), mv.default_prior())
    assert exc.value.t == t


@pytest.mark.parametrize("kind", list(NOT_POSITIVE_DEFINITE_V))
def test_j_stage_fails_a_t_stack_of_v_at_its_first_bad_step(kind):
    # a T-stack of V, as _run stacks a callable, with the bad V at t = 4 only
    Vs = np.tile(np.eye(2), (6, 1, 1))
    Vs[3] = NOT_POSITIVE_DEFINITE_V[kind]
    with pytest.raises(mv.FilterError) as exc, np.errstate(all="ignore"):
        mv.dlm._information(np.ones((6, 1, 2)), Vs)
    assert str(exc.value) == "t=4: observation scale V is not positive definite"


def test_j_stage_reads_constant_inputs_once_with_the_bits_of_each_step():
    # B and J of constant F and V hold one step, with the bits of every
    # step of the same inputs materialized
    rng = np.random.default_rng(94)
    X = rng.standard_normal((3, 3))
    F, V = rng.standard_normal((2, 3)), X @ X.T + np.eye(3)
    once = mv.dlm._information(np.broadcast_to(F, (5, 2, 3)), np.broadcast_to(V, (5, 3, 3)))
    per_step = mv.dlm._information(np.tile(F, (5, 1, 1)), np.tile(V, (5, 1, 1)))
    for x, y in zip(once, per_step):
        assert len(x) == 1 and len(y) == 5
        assert x.tobytes() * 5 == y.tobytes()
    J = per_step[1]
    assert np.array_equal(J, J.swapaxes(1, 2))
    assert np.allclose(J, F @ np.linalg.solve(V, F.T), rtol=1e-13)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_an_asymmetric_v_acts_as_its_symmetric_part(d):
    # the J stage factors (V + V')/2, the V that Q = sym(F'RF + V) reads, so a
    # fully observed step keeps P = R - A Q A' for the Q and A a run returns,
    # in either covariance loop. Read by its lower triangle, V would be I.
    V = np.array([[1.0, 0.9], [0.0, 1.0]])
    rng = np.random.default_rng(95)
    F, G = rng.standard_normal((d, 2)), np.eye(d) + 0.1 * rng.standard_normal((d, d))
    prior = mv.NmiwState(m=np.zeros((d, 1)), P=np.eye(d),
                         miw=mv.MiwParams(S=np.eye(1), n=np.ones(1), v=1.0))
    y = rng.standard_normal((6, 2, 1))
    records = []
    for scale in (V, 0.5 * (V + V.T)):
        model = mv.ModelSpec(d=d, p=1, r=2, F=F, G=G, V=scale, discount=0.9)
        records.append(mv.dlm._run(model, prior, y[None], ("new",)))
    R, Q, A, P = (records[0][name][0] for name in "RQAP")
    for t in range(6):
        assert relative_error(P[t], R[t] - A[t] @ Q[t] @ A[t].T) <= 1e-13, t
        for name in "RQAP":
            assert relative_error(records[0][name][0, t], records[1][name][0, t]) <= 1e-13, (name, t)


# c of the failure rule as dlm._PIVOT_C documents it: Q fails where a pivot
# ratio of its Cholesky factor is at most c eps
PIVOT_C = 64


def pivot_ratio_v(r, ratio):
    """[[1, rho], [rho, 1]] with 1 - rho^2 = ``ratio`` eps, block-diagonal with a 1
    at r = 3: the pivot ratio of Q = V is ``ratio`` eps up to rounding."""
    V = np.eye(r)
    V[0, 1] = V[1, 0] = math.sqrt(1.0 - ratio * np.finfo(float).eps)
    return V


@pytest.mark.parametrize("modes", [("new",), ("new", "classical")])
@pytest.mark.parametrize("d, r, V3", [(1, 1, 0.0), (2, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0),
                                      (1, 2, V_LU_SINGULAR),
                                      (1, 2, pivot_ratio_v(2, PIVOT_C - 1)),
                                      (1, 3, pivot_ratio_v(3, PIVOT_C - 1))],
                         ids=["1-1", "2-1", "1-2", "2-3", "1-2-lu-singular",
                              "1-2-below-c", "1-3-below-c"])
def test_late_exactly_singular_q_is_not_positive_definite(monkeypatch, d, r, V3, modes):
    # P = 0 with discount 1 keeps R = 0, so Q would be V, which is singular
    # only at t = 3. The entry rule on V reports t = 3 before either
    # covariance loop runs. At V_LU_SINGULAR, and at a pivot ratio just
    # below c eps, Cholesky factors V and only the ratio shows it.
    calls = count_small_pass(monkeypatch)
    model = mv.ModelSpec(d=d, p=1, r=r, F=np.ones((d, r)), G=np.eye(d), discount=1.0,
                         V=lambda t: np.broadcast_to(V3, (r, r)) if t == 3 else np.eye(r))
    prior = mv.NmiwState(m=np.zeros((d, 1)), P=np.zeros((d, d)),
                         miw=mv.MiwParams(S=np.eye(1), n=np.ones(1), v=1.0))
    exc = filter_error(model, np.ones((5, r, 1)), prior, modes)
    assert str(exc) == "t=3: observation scale V is not positive definite"
    assert calls == []


def test_q_with_a_pivot_ratio_just_above_c_eps_runs_in_both_passes(monkeypatch):
    # Q = V at t = 3 as above, with 1 - rho^2 one eps on either side of c eps;
    # the side above passes the entry rule on V and runs to the end on the
    # Python-float loop (d = 1, r = 2 and r = 3) and on the numpy loop (forced)
    eps, c = np.finfo(float).eps, PIVOT_C
    for r in (2, 3):
        below, above = (np.linalg.cholesky(pivot_ratio_v(r, ratio))[1, 1] ** 2 / eps
                        for ratio in (c - 1, c + 1))
        assert c - 2 < below < c < above < c + 2, (below, above)
    prior = mv.NmiwState(m=np.zeros((1, 1)), P=np.zeros((1, 1)),
                         miw=mv.MiwParams(S=np.eye(1), n=np.ones(1), v=1.0))
    for r, run in ((2, None), (2, mv.dlm._covariance_numpy), (3, None)):
        calls = count_small_pass(monkeypatch, run)
        V3 = pivot_ratio_v(r, c + 1)
        model = mv.ModelSpec(d=1, p=1, r=r, F=np.ones((1, r)), G=np.eye(1), discount=1.0,
                             V=lambda t, V3=V3, r=r: V3 if t == 3 else np.eye(r))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = mv.dlm._run(model, prior, np.ones((1, 5, r, 1)), MODES)
        assert np.array_equal(rec["Q"][:, 2], np.broadcast_to(V3, (2, r, r)))
        assert np.isfinite(rec["m"]).all() and np.isfinite(rec["S"]()).all()
        assert calls == [1]


@pytest.mark.parametrize("modes", [("new",), ("new", "classical"), ("classical", "new")])
@pytest.mark.parametrize("r, W2, first", [
    (1, -1.9, [[0.5, np.nan]]),
    (2, -1.3, [[0.5, 0.4], [0.3, np.nan]]),
], ids=["r1", "r2"])
def test_q_that_only_the_new_mode_cannot_factor(monkeypatch, r, W2, first, modes):
    # The partly missing first step shrinks P in the new mode only, so at t = 2,
    # where W is negative, its Q is indefinite (not singular at r = 2) while
    # the classical Q is positive definite; the classical mode fails only at
    # t = 3. Both runs take the Python-float loop.
    calls = count_small_pass(monkeypatch)
    model = mv.ModelSpec(d=1, p=2, r=r, F=np.ones((1, r)), G=np.eye(1), V=np.eye(r),
                         W=lambda t: np.array([[W2 if t == 2 else 0.0]]))
    prior = mv.NmiwState(m=np.zeros((1, 2)), P=np.eye(1),
                         miw=mv.MiwParams(S=np.eye(2), n=np.ones(2), v=2.0))
    data = np.array([first] + [[[0.1, 0.2], [0.3, 0.1]][:r]] * 2)
    assert str(filter_error(model, data, prior, ("classical",))).startswith("t=3: ")
    exc = filter_error(model, data, prior, modes)
    assert str(exc) == "t=2: forecast scale Q is not positive definite"
    assert calls == [1, 1]


def test_both_covariance_passes_fail_a_digest_model_at_the_same_step(monkeypatch):
    # Every digest model the Python-float loop takes (d <= 2), run on it and
    # again with the numpy loop forced: the same outcome, or the same message
    # at the same t. The loops round differently, so near the failure rule's
    # threshold only a rule read from Q's factor keeps them together.
    import record_digest

    cases = [record_digest.random_case(i) for i in range(record_digest.RANDOM_MODELS)]
    cases = [case for case in cases + list(record_digest.failing_cases()) if case[1].d <= 2]

    def outcomes():
        found = {}
        for label, model, prior, y in cases:
            try:
                mv.dlm._run(model, prior, y, MODES)
                found[label] = "ran"
            except mv.MvdlmError as exc:
                found[label] = f"{type(exc).__name__}: {exc}"
        return found

    small = outcomes()
    monkeypatch.setattr(mv.dlm, "_covariance_small", mv.dlm._covariance_numpy)
    forced = outcomes()
    assert {label: (small[label], forced[label]) for label in small
            if small[label] != forced[label]} == {}
    # not vacuous: random models that run and models that fail are among them
    assert "ran" in small.values()
    assert any(label.startswith("random") and outcome != "ran" for label, outcome in small.items())


def test_earlier_residual_failure_wins_over_a_later_indefinite_q():
    # y - f overflows at t = 2 (nothing is observed at t = 1); W makes R, and
    # so Q, negative at t = 4, a step the loop still computes
    model = mv.ModelSpec(d=1, p=1, r=1, F=np.eye(1), G=np.eye(1), V=np.eye(1),
                         W=lambda t: np.array([[-10.0 if t == 4 else 0.1]]))
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
    if field in ("n", "v"):
        # the law's own check: a non-finite dof cannot make a MiwParams
        with pytest.raises(mv.DomainError, match="must be finite"):
            mv.MiwParams(S=parts["S"], n=parts["n"], v=parts["v"])
        return
    bad = mv.NmiwState(m=parts["m"], P=parts["P"],
                       miw=mv.MiwParams(S=parts["S"], n=parts["n"], v=parts["v"]))
    data = [np.array([[0.1, 0.2]]) for _ in range(3)]
    with pytest.raises(mv.DomainError, match="prior"):
        mv.filter(mv.local_level_model(), data, bad)


def test_model_spec_requires_exactly_one_noise_specification():
    # a library rule: the CLI names the [model] section, ModelSpec does not
    kw = dict(d=1, p=1, r=1, F=np.eye(1), G=np.eye(1), V=np.eye(1))
    for both_or_neither in (dict(W=np.eye(1), discount=0.9), {}):
        with pytest.raises(mv.DomainError, match="^exactly one of") as exc:
            mv.ModelSpec(**both_or_neither, **kw)
        assert not isinstance(exc.value, mv.ConfigError)
    with pytest.raises(mv.DomainError):
        mv.ModelSpec(discount=1.5, **kw)
    with pytest.raises(mv.DomainError):
        mv.ModelSpec(discount=0.0, **kw)


def test_model_spec_rejects_non_integral_dimensions():
    kw = dict(d=1, p=1, r=1, F=np.eye(1), G=np.eye(1), V=np.eye(1), discount=0.9)
    for name in ("d", "p", "r"):
        with pytest.raises(mv.DomainError, match=f"{name} must be a positive integer"):
            mv.ModelSpec(**{**kw, name: 1.5})
    model = mv.ModelSpec(**{**kw, "d": 1.0, "p": 1.0, "r": 1.0})
    assert all(type(x) is int for x in (model.d, model.p, model.r))


def test_model_spec_checks_constant_inputs_once_at_construction():
    kw = dict(d=1, p=2, r=1, F=np.eye(1), G=np.eye(1), V=np.eye(1), discount=0.9)
    with pytest.raises(mv.DomainError, match="V must be finite"):
        mv.ModelSpec(**{**kw, "V": np.array([[np.nan]])})
    with pytest.raises(mv.DimensionMismatch, match=r"F must have shape \(1, 1\)"):
        mv.ModelSpec(**{**kw, "F": np.ones((2, 1))})
    model = mv.ModelSpec(**{**kw, "F": [[2.0]]})
    # converted once: the filter's T-stack is a view of the stored array
    assert isinstance(model.F, np.ndarray) and model.F.dtype == float
    assert model.F.shape == (1, 1)
    Fs = model._stack("F", 7)
    assert np.shares_memory(Fs[0], model.F)


@pytest.mark.parametrize("form", ["constant", "callable"])
def test_run_rejects_no_steps(form):
    # filter rejects an empty input before _run; a direct call with T = 0
    # must fail as an input error too, not inside the stages
    F = np.eye(1) if form == "constant" else (lambda t: np.eye(1))
    model = mv.ModelSpec(d=1, p=1, r=1, F=F, G=np.eye(1), V=np.eye(1), discount=0.9)
    with pytest.raises(mv.DomainError, match="at least one step"):
        mv.dlm._run(model, scalar_prior(), np.zeros((1, 0, 1, 1)), ("new",))


# ---------------------------------------------------------------------------
# the whole run against Bayes' rule at known Sigma
# ---------------------------------------------------------------------------

def _spd(rng, k, scale=1.0):
    B = rng.standard_normal((k, k))
    return scale * (B @ B.T / k + 0.5 * np.eye(k))


def _identity_case(rng, i):
    """A random model (as T-stacks and as a ModelSpec), prior and simulated
    T x r x p data: d <= 3, p <= 4, r <= 3 (r >= 2 for odd i), T <= 40, W or a
    discount, constant or callable inputs, unequal prior dof, P0 <= 1e3."""
    d, p = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    r, T = (int(rng.integers(2, 4)) if i % 2 else 1), int(rng.integers(5, 41))
    varying = bool(rng.integers(2))
    k = T if varying else 1
    F = np.broadcast_to(rng.standard_normal((k, d, r)), (T, d, r))
    G = np.broadcast_to(np.eye(d) + 0.2 * rng.standard_normal((k, d, d)), (T, d, d))
    V = np.broadcast_to(np.stack([_spd(rng, r) for _ in range(k)]), (T, r, r))
    W = np.broadcast_to(np.stack([_spd(rng, d, 0.1) for _ in range(k)]), (T, d, d))
    delta = float(rng.uniform(0.7, 1.0)) if rng.integers(2) else None
    stacks = dict(F=F, G=G, V=V, W=None if delta else W)
    inputs = {name: (lambda t, s=s: s[t - 1]) if varying else s[0]
              for name, s in stacks.items() if s is not None}
    model = mv.ModelSpec(d=d, p=p, r=r, discount=delta, **inputs)
    prior = mv.NmiwState(m=rng.standard_normal((d, p)), P=_spd(rng, d, 10.0 ** rng.uniform(-1, 2)),
                         miw=mv.MiwParams(S=_spd(rng, p), n=rng.uniform(0.5, 4.0, p), v=float(p)))
    # simulated from the model at one Sigma, so the densities stay moderate
    cs, theta, y = np.linalg.cholesky(_spd(rng, p)), prior.m, np.empty((T, r, p))
    for t in range(T):
        theta = G[t] @ theta + np.linalg.cholesky(W[t]) @ rng.standard_normal((d, p)) @ cs.T
        y[t] = F[t].T @ theta + np.linalg.cholesky(V[t]) @ rng.standard_normal((r, p)) @ cs.T
    return model, prior, stacks, delta, y


def bayes_residual(out, prior, stacks, delta, y, sigmas):
    """log p(Sigma | y) - log p(Sigma) - sum_t log p(y_t | y_{1:t-1}, Sigma)
    at each Sigma, over the fully observed steps (the others are left out of
    y); plus sum_t log p(y_t | y_{1:t-1}) over the same steps.
    Bayes' rule makes the first equal minus the second at every Sigma."""
    used = np.flatnonzero(~np.isnan(y).any(axis=(1, 2)))
    kept = np.full(y.shape, np.nan)
    kept[used] = y[used]
    loglik = oracles.vec_kalman_loglik(kept, stacks["F"], stacks["G"], stacks["V"], sigmas,
                                       prior.m, prior.P, W=stacks["W"], delta=delta)
    post, first = out.states[-1].miw, prior.miw
    residual = np.array([mv.miw_log_density(s, post) - mv.miw_log_density(s, first)
                         for s in sigmas]) - loglik.sum(axis=1)
    # one stacked density over all T steps; those not used read y as 0
    evidence = mv.mt_log_density(np.nan_to_num(y), out.marginals)[used].sum()
    return residual, evidence


@pytest.mark.parametrize("case", ["fully-observed", "classical-partly-missing"])
def test_whole_run_satisfies_bayes_rule_at_known_sigma(case):
    # log p(Sigma | y) = log p(Sigma) + sum_t log p(y_t | y_{1:t-1}, Sigma)
    #                    - sum_t log p(y_t | y_{1:t-1})
    # ties m, P, S, n and the forecast law of every step to an independent
    # dense Kalman filter; a classical run skips its partly missing steps
    rng = np.random.default_rng(150 if case == "fully-observed" else 151)
    worst = 0.0
    for i in range(20):
        model, prior, stacks, delta, y = _identity_case(rng, i)
        mode = "new"
        if case != "fully-observed":
            mode = "classical"
            y = np.where(rng.random(y.shape) < 0.1, np.nan, y)
            y[rng.integers(len(y))] = np.nan
        out = mv.filter(model, y, prior, mode=mode)
        sigmas = mv.sample_miw(out.states[-1].miw, rng, size=10)
        residual, evidence = bayes_residual(out, prior, stacks, delta, y, sigmas)
        worst = max(worst, np.abs(residual + evidence).max())
    assert worst < 1e-8
