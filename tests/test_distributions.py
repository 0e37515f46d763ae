"""Distribution layer: densities, reparameterization, conjugacy, sampling.

Cross-checks against closed-form oracles (scipy inverted Wishart /
inverted gamma / Student-t / multivariate normal with Kronecker covariance),
numerical quadrature for unit mass, and Monte Carlo for sampler moments.
"""
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import multigammaln

from mvdlm import (
    NmiwState,
    DimensionMismatch,
    DomainError,
    IgParams,
    MatrixNormalParams,
    MeanUndefined,
    MiwParams,
    MtParams,
    NotPositiveDefinite,
    diag_marginal_ig,
    iw_log_density,
    iw_to_miw,
    log_multigamma,
    matrix_normal_log_density,
    miw_conditional_update,
    miw_log_density,
    miw_marginal_block,
    miw_mean,
    miw_to_iw,
    mt_log_density,
    sample_matrix_normal,
    sample_miw,
)

import oracles


def random_spd(rng, n, scale=1.0):
    B = rng.standard_normal((n, n))
    return scale * (B @ B.T + (n + 0.5) * np.eye(n))


def random_miw(rng, p, extra_dof=0.0):
    S = random_spd(rng, p)
    n = rng.uniform(2.0 + extra_dof, 8.0 + extra_dof, size=p)
    v = float(rng.uniform(p, p + 3.0))
    return MiwParams(S=S, n=n, v=v)


# ---------------------------------------------------------------------------
# log multivariate gamma
# ---------------------------------------------------------------------------

def test_log_multigamma_matches_scipy():
    for p in (1, 2, 3, 5):
        for a in (0.5 * (p - 1) + 0.3, 2.0 + p, 7.5):
            assert log_multigamma(a, p) == pytest.approx(
                float(multigammaln(a, p)), abs=1e-12)


def test_log_multigamma_domain():
    with pytest.raises(DomainError):
        log_multigamma(0.5, 2)  # requires a > (p-1)/2


# ---------------------------------------------------------------------------
# degrees-of-freedom reparameterization (S, N, v) <-> (R, k)
# ---------------------------------------------------------------------------

def test_bijection_round_trip():
    rng = np.random.default_rng(10)
    for p in (1, 2, 4):
        params = random_miw(rng, p)
        R, k = miw_to_iw(params)
        back = iw_to_miw(R, k, params.n)
        assert np.allclose(back.S, params.S, atol=1e-13)
        assert np.allclose(back.n, params.n)
        assert back.v == pytest.approx(params.v, abs=1e-13)
        # forward map is exactly R = N^{1/2} S N^{1/2}, k = 2v + mean(n)
        root = np.sqrt(params.n)
        assert np.allclose(R, params.S * np.outer(root, root), atol=1e-13)
        assert k == pytest.approx(2.0 * params.v + params.n.mean(), abs=1e-13)


def test_bijection_equal_dof_reduces_to_plain_parameterization():
    # N = n*I and v = p gives R = n*S and k = n + 2p.
    S = np.array([[2.0, 0.5], [0.5, 1.0]])
    params = MiwParams(S=S, n=np.array([6.0, 6.0]), v=2.0)
    R, k = miw_to_iw(params)
    assert np.allclose(R, 6.0 * S, atol=1e-14)
    assert k == pytest.approx(6.0 + 4.0)


# ---------------------------------------------------------------------------
# inverted Wishart density
# ---------------------------------------------------------------------------

def test_iw_log_density_frozen_value():
    Sigma = np.array([[2.0, 0.6], [0.6, 1.5]])
    R = np.array([[3.0, -0.4], [-0.4, 2.2]])
    assert iw_log_density(Sigma, R, 9.0) == pytest.approx(
        -6.266512735695611, abs=1e-12)  # frozen: closed-form oracle


def test_iw_log_density_matches_closed_form_oracle():
    rng = np.random.default_rng(11)
    for p in (1, 2, 3, 4):
        for _ in range(5):
            Sigma = random_spd(rng, p)
            R = random_spd(rng, p)
            k = float(rng.uniform(2 * p + 0.5, 2 * p + 6.0))
            assert iw_log_density(Sigma, R, k) == pytest.approx(
                oracles.iw_logpdf(Sigma, R, k), abs=1e-10)


def test_iw_log_density_matches_scipy_invwishart():
    # scipy parameterizes by df = k - p - 1 and scale = R.
    rng = np.random.default_rng(12)
    for p in (1, 2, 3):
        Sigma = random_spd(rng, p)
        R = random_spd(rng, p)
        k = 2 * p + 3.0
        ref = stats.invwishart.logpdf(Sigma, df=k - p - 1, scale=R)
        assert iw_log_density(Sigma, R, k) == pytest.approx(float(ref), abs=1e-10)


def test_iw_scalar_case_is_inverted_gamma():
    # p = 1: IW(R, k) == IG(shape=(k-2)/2, rate=R/2).
    assert iw_log_density(np.array([[1.7]]), np.array([[2.3]]), 5.0) == pytest.approx(
        -1.6726160646927366, abs=1e-12)  # frozen: scipy invgamma(1.5, rate 1.15)
    rng = np.random.default_rng(13)
    for _ in range(5):
        s2 = float(rng.uniform(0.2, 4.0))
        r = float(rng.uniform(0.5, 5.0))
        k = float(rng.uniform(2.5, 9.0))
        assert iw_log_density(np.array([[s2]]), np.array([[r]]), k) == pytest.approx(
            oracles.ig_logpdf(s2, shape=(k - 2.0) / 2.0, rate=r / 2.0), abs=1e-10)


def test_iw_log_density_domain():
    with pytest.raises(DomainError):
        iw_log_density(np.eye(2), np.eye(2), 4.0)  # requires k > 2p


def test_iw_scalar_density_integrates_to_one():
    logpdf = lambda x: iw_log_density(np.array([[x]]), np.array([[1.8]]), 6.0)
    mass = oracles.quad_unit_mass(logpdf, 0.0, np.inf)
    assert mass == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# modified inverted Wishart
# ---------------------------------------------------------------------------

def test_miw_log_density_consistent_with_iw_via_bijection():
    rng = np.random.default_rng(14)
    for p in (1, 2, 3):
        params = random_miw(rng, p)
        R, k = miw_to_iw(params)
        Sigma = random_spd(rng, p)
        assert miw_log_density(Sigma, params) == pytest.approx(
            iw_log_density(Sigma, R, k), abs=1e-12)


def test_miw_scalar_case_is_inverted_gamma():
    # p = 1, dof n, scale s: IG(shape=v + n/2 - 1, rate=n*s/2).
    params = MiwParams(S=np.array([[1.4]]), n=np.array([5.0]), v=1.0)
    for x in (0.4, 1.1, 3.0):
        assert miw_log_density(np.array([[x]]), params) == pytest.approx(
            oracles.ig_logpdf(x, shape=1.0 + 2.5 - 1.0, rate=2.5 * 1.4), abs=1e-10)


def test_miw_scalar_density_integrates_to_one():
    params = MiwParams(S=np.array([[0.9]]), n=np.array([4.0]), v=1.5)
    logpdf = lambda x: miw_log_density(np.array([[x]]), params)
    mass = oracles.quad_unit_mass(logpdf, 0.0, np.inf)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_miw_mean_formula_and_monte_carlo():
    rng = np.random.default_rng(15)
    params = random_miw(rng, 2, extra_dof=6.0)
    R, k = miw_to_iw(params)
    expected = R / (k - 2 * 2 - 2)
    assert np.allclose(miw_mean(params), expected, atol=1e-13)
    draws = sample_miw(params, np.random.default_rng(16), size=60_000)
    mc = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(mc - expected) <= 4.0 * se + 1e-12)


def test_miw_mean_undefined_for_low_dof():
    params = MiwParams(S=np.eye(2), n=np.array([1.5, 1.5]), v=2.0)
    # k = 4 + 1.5 = 5.5 <= 2p + 2 = 6: mean does not exist
    with pytest.raises(MeanUndefined):
        miw_mean(params)


def test_miw_params_validation():
    with pytest.raises(DomainError):
        MiwParams(S=np.eye(2), n=np.array([1.0, -1.0]), v=2.0)  # n > 0
    with pytest.raises(DomainError):
        MiwParams(S=np.eye(2), n=np.array([0.5, 0.5]), v=1.0)  # k <= 2p
    with pytest.raises(DimensionMismatch):
        MiwParams(S=np.eye(3)[:2], n=np.array([3.0, 3.0]), v=2.0)  # not square


# ---------------------------------------------------------------------------
# matrix normal
# ---------------------------------------------------------------------------

def test_matrix_normal_frozen_value():
    params = MatrixNormalParams(
        M=np.array([[0.0, 0.2], [0.4, -0.3]]),
        P=np.array([[1.5, 0.3], [0.3, 0.9]]),
        Sigma=np.array([[2.0, 0.6], [0.6, 1.5]]),
    )
    X = np.array([[0.3, -0.1], [0.8, 0.5]])
    assert matrix_normal_log_density(X, params) == pytest.approx(
        -5.224551336596867, abs=1e-12)  # frozen: kron-covariance normal oracle


def test_matrix_normal_matches_kron_covariance_normal():
    rng = np.random.default_rng(17)
    for r, p in ((1, 1), (1, 3), (2, 2), (3, 2)):
        M = rng.standard_normal((r, p))
        P = random_spd(rng, r)
        Sigma = random_spd(rng, p)
        X = rng.standard_normal((r, p))
        params = MatrixNormalParams(M=M, P=P, Sigma=Sigma)
        assert matrix_normal_log_density(X, params) == pytest.approx(
            oracles.matrix_normal_logpdf(X, M, P, Sigma), abs=1e-10)


def test_matrix_normal_scalar_density_integrates_to_one():
    params = MatrixNormalParams(M=np.array([[0.3]]), P=np.array([[2.0]]),
                                Sigma=np.array([[0.7]]))
    logpdf = lambda x: matrix_normal_log_density(np.array([[x]]), params)
    mass = oracles.quad_unit_mass(logpdf, -np.inf, np.inf)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_matrix_normal_sampler_moments():
    rng = np.random.default_rng(18)
    M = np.array([[0.5, -1.0], [0.0, 2.0]])
    P = np.array([[1.0, 0.4], [0.4, 0.8]])
    Sigma = np.array([[1.5, -0.3], [-0.3, 0.6]])
    params = MatrixNormalParams(M=M, P=P, Sigma=Sigma)
    draws = sample_matrix_normal(params, rng, size=120_000)
    assert draws.shape == (120_000, 2, 2)
    flat = draws.reshape(len(draws), -1)
    se = flat.std(axis=0, ddof=1) / math.sqrt(len(flat))
    assert np.all(np.abs(flat.mean(axis=0) - M.ravel()) <= 4 * se + 1e-12)
    cov = np.cov(flat.T)
    assert np.allclose(cov, np.kron(P, Sigma), atol=0.03)


def test_matrix_normal_single_draw_is_the_first_of_a_batch_of_one():
    params = MatrixNormalParams(M=np.array([[0.5, -1.0, 2.0], [0.0, 1.0, 3.0]]),
                                P=np.array([[1.0, 0.4], [0.4, 0.8]]),
                                Sigma=np.diag([1.5, 0.6, 2.0]))
    one = sample_matrix_normal(params, np.random.default_rng(9))
    batch = sample_matrix_normal(params, np.random.default_rng(9), size=1)
    assert one.shape == (2, 3) and batch.shape == (1, 2, 3)
    assert one.tobytes() == batch[0].tobytes()


def test_sampler_determinism():
    params = MatrixNormalParams(M=np.zeros((1, 2)), P=np.eye(1), Sigma=np.eye(2))
    a = sample_matrix_normal(params, np.random.default_rng(5), size=4)
    b = sample_matrix_normal(params, np.random.default_rng(5), size=4)
    assert np.array_equal(a, b)
    miw = MiwParams(S=np.eye(2), n=np.array([8.0, 8.0]), v=2.0)
    c = sample_miw(miw, np.random.default_rng(6), size=4)
    d = sample_miw(miw, np.random.default_rng(6), size=4)
    assert np.array_equal(c, d)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("size", [None, 5])
def test_sample_miw_matches_scipy_invwishart_stream(p, size):
    params = random_miw(np.random.default_rng(40 + p), p)
    # classical parameters computed here, not through miw_to_iw
    R = params.S * np.sqrt(np.outer(params.n, params.n))
    k = 2.0 * params.v + params.n.sum() / p
    ours, theirs = np.random.default_rng(41), np.random.default_rng(41)
    got = sample_miw(params, ours, size=size)
    ref = stats.invwishart.rvs(df=k - p - 1, scale=R, size=1 if size is None else size,
                               random_state=theirs)
    ref = np.reshape(ref, got.shape)
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)
    assert ours.random() == theirs.random()


# ---------------------------------------------------------------------------
# conditional conjugacy and the matrix-t marginal
# ---------------------------------------------------------------------------

def test_conditional_update_increments_dof_by_row_count():
    rng = np.random.default_rng(19)
    for p, r in ((1, 1), (2, 1), (2, 3), (3, 2)):
        prior = random_miw(rng, p)
        m = rng.standard_normal((r, p))
        P = random_spd(rng, r)
        Y = rng.standard_normal((r, p))
        post = miw_conditional_update(m, P, prior, Y)
        assert np.allclose(post.n, prior.n + r)
        assert post.v == prior.v


def test_conditional_update_explicit_scalar_case():
    # p = r = 1: n* = n + 1 and n* s* = n s + (y - m)^2 / P.
    prior = MiwParams(S=np.array([[2.0]]), n=np.array([3.0]), v=1.0)
    post = miw_conditional_update(np.array([[0.5]]), np.array([[4.0]]), prior,
                                  np.array([[2.5]]))
    assert post.n[0] == pytest.approx(4.0)
    assert post.n[0] * post.S[0, 0] == pytest.approx(3.0 * 2.0 + 2.0 ** 2 / 4.0)


def test_bayes_identity_prior_likelihood_posterior_marginal():
    # log N(Y|m,P,Sigma) + log MIW(Sigma|prior) - log MT(Y) == log MIW(Sigma|post)
    # for every Sigma: the defining identity of conjugate updating.
    rng = np.random.default_rng(20)
    worst = 0.0
    for p, r in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)):
        for _ in range(5):
            prior = random_miw(rng, p)
            m = rng.standard_normal((r, p))
            P = random_spd(rng, r)
            Y = rng.standard_normal((r, p)) + m
            post = miw_conditional_update(m, P, prior, Y)
            marg = MtParams(f=m, Q=P, S=prior.S, n=prior.n, v=prior.v)
            log_marg = mt_log_density(Y, marg)
            for _ in range(4):
                Sigma = random_spd(rng, p)
                lhs = (matrix_normal_log_density(
                           Y, MatrixNormalParams(M=m, P=P, Sigma=Sigma))
                       + miw_log_density(Sigma, prior) - log_marg)
                rhs = miw_log_density(Sigma, post)
                worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-8


def test_mt_scalar_case_is_student_t():
    # p = r = 1, v = 1: density of y equals Student-t with df = n, loc = f,
    # scale = sqrt(s * Q).
    params = MtParams(f=np.array([[0.2]]), Q=np.array([[2.1]]),
                      S=np.array([[1.3]]), n=np.array([4.0]), v=1.0)
    assert mt_log_density(np.array([[0.7]]), params) == pytest.approx(
        -1.5395691645210365, abs=1e-12)  # frozen: scipy Student-t oracle
    rng = np.random.default_rng(21)
    for _ in range(6):
        f = float(rng.standard_normal())
        q = float(rng.uniform(0.3, 3.0))
        s = float(rng.uniform(0.3, 3.0))
        n = float(rng.uniform(2.0, 12.0))
        params = MtParams(f=np.array([[f]]), Q=np.array([[q]]),
                          S=np.array([[s]]), n=np.array([n]), v=1.0)
        y = f + float(rng.standard_normal())
        ref = oracles.student_t_logpdf(y, df=n, loc=f, scale=math.sqrt(s * q))
        assert mt_log_density(np.array([[y]]), params) == pytest.approx(ref, abs=1e-10)


def test_mt_scalar_density_integrates_to_one():
    params = MtParams(f=np.array([[0.4]]), Q=np.array([[1.6]]),
                      S=np.array([[0.8]]), n=np.array([3.0]), v=2.0)
    logpdf = lambda y: mt_log_density(np.array([[y]]), params)
    mass = oracles.quad_unit_mass(logpdf, -np.inf, np.inf)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_mt_vector_density_integrates_to_one():
    # r = 1, p = 2: two-dimensional forecast density, checked by nested quadrature.
    from scipy import integrate
    params = MtParams(f=np.array([[0.1, -0.2]]), Q=np.array([[1.2]]),
                      S=np.array([[1.0, 0.5], [0.5, 1.5]]),
                      n=np.array([6.0, 9.0]), v=2.0)
    pdf = lambda y2, y1: math.exp(mt_log_density(np.array([[y1, y2]]), params))
    mass, _ = integrate.dblquad(pdf, -12, 12, lambda _: -12, lambda _: 12)
    assert mass == pytest.approx(1.0, abs=1e-4)


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------

def test_marginal_block_full_size_is_identity():
    rng = np.random.default_rng(22)
    params = random_miw(rng, 3)
    marg = miw_marginal_block(params, 3)
    assert np.allclose(marg.S, params.S)
    assert np.allclose(marg.n, params.n)
    assert marg.v == pytest.approx(params.v)


def test_marginal_block_mean_consistency():
    rng = np.random.default_rng(23)
    for _ in range(100):
        p = int(rng.integers(2, 5))
        q = int(rng.integers(1, p))
        params = random_miw(rng, p, extra_dof=6.0)
        full = miw_mean(params)
        marg = miw_mean(miw_marginal_block(params, q))
        assert np.allclose(marg, full[:q, :q], atol=1e-12 * max(1.0, np.abs(full).max()))


def test_marginal_block_monte_carlo():
    rng = np.random.default_rng(24)
    params = random_miw(rng, 3, extra_dof=8.0)
    draws = sample_miw(params, np.random.default_rng(25), size=200_000)
    block = draws[:, :2, :2]
    mc = block.mean(axis=0)
    se = block.std(axis=0, ddof=1) / math.sqrt(len(block))
    expected = miw_mean(miw_marginal_block(params, 2))
    assert np.all(np.abs(mc - expected) <= 3.0 * se)


def test_scalar_block_marginal_agrees_with_inverted_gamma_marginal():
    # Taking the leading 1x1 block marginal and converting to the plain
    # parameterization must give exactly the inverted-gamma diagonal marginal.
    rng = np.random.default_rng(26)
    for _ in range(20):
        p = int(rng.integers(2, 5))
        params = random_miw(rng, p)
        blk = miw_marginal_block(params, 1)
        R1, k1 = miw_to_iw(blk)
        ig = diag_marginal_ig(params, 0)
        assert ig.shape == pytest.approx((k1 - 2.0) / 2.0, abs=1e-12)
        assert ig.scale == pytest.approx(R1[0, 0] / 2.0, abs=1e-12)


def test_diag_marginal_matches_density_and_mean():
    rng = np.random.default_rng(27)
    params = random_miw(rng, 3, extra_dof=6.0)
    full_mean = miw_mean(params)
    for j in range(3):
        ig = diag_marginal_ig(params, j)
        # inverted-gamma mean = scale / (shape - 1) matches the matrix mean diagonal
        assert ig.scale / (ig.shape - 1.0) == pytest.approx(full_mean[j, j], abs=1e-12)
    # Kolmogorov-Smirnov: sampled sigma_jj follows the stated inverted gamma
    draws = sample_miw(params, np.random.default_rng(28), size=20_000)
    ig0 = diag_marginal_ig(params, 0)
    ks = stats.kstest(draws[:, 0, 0], stats.invgamma(a=ig0.shape, scale=ig0.scale).cdf)
    assert ks.pvalue > 0.001


def test_diag_marginal_index_validation():
    params = MiwParams(S=np.eye(2), n=np.array([5.0, 5.0]), v=2.0)
    with pytest.raises(DomainError):
        diag_marginal_ig(params, 2)


# ---------------------------------------------------------------------------
# errors on a bad scale matrix
# ---------------------------------------------------------------------------

_INDEF = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
_I2, _Y2 = np.eye(2), np.array([[0.3, -0.2], [0.1, 0.4]])
_N2 = np.array([5.0, 6.0])

_BAD_SCALE_CASES = {
    "iw Sigma": lambda: iw_log_density(_INDEF, _I2, 10.0),
    "iw R": lambda: iw_log_density(_I2, _INDEF, 10.0),
    "miw Sigma": lambda: miw_log_density(_INDEF, MiwParams(S=_I2, n=_N2, v=3.0)),
    "matrix normal P": lambda: matrix_normal_log_density(
        _Y2, MatrixNormalParams(M=np.zeros((2, 2)), P=_INDEF, Sigma=_I2)),
    "matrix normal Sigma": lambda: matrix_normal_log_density(
        _Y2, MatrixNormalParams(M=np.zeros((2, 2)), P=_I2, Sigma=_INDEF)),
    "conditional update P": lambda: miw_conditional_update(
        np.zeros((2, 2)), _INDEF, MiwParams(S=_I2, n=_N2, v=3.0), _Y2),
    "mt Q": lambda: mt_log_density(
        _Y2, MtParams(f=np.zeros((2, 2)), Q=_INDEF, S=_I2, n=_N2, v=3.0)),
    "mt S": lambda: mt_log_density(
        _Y2, MtParams(f=np.zeros((2, 2)), Q=_I2, S=_INDEF, n=_N2, v=3.0)),
    "sample_miw S": lambda: sample_miw(
        MiwParams(S=_INDEF, n=_N2, v=3.0), np.random.default_rng(0)),
    "iw R dim": lambda: iw_log_density(_I2, np.eye(3), 10.0),
    "conditional update P dim": lambda: miw_conditional_update(
        np.zeros((2, 2)), np.eye(3), MiwParams(S=_I2, n=_N2, v=3.0), _Y2),
}

_BAD_SCALE_ERRORS = {
    "iw R dim": (DimensionMismatch, "scale dim 3 does not match argument dim 2"),
    "conditional update P dim": (DimensionMismatch, "row scale dim 3 does not match 2 data rows"),
}


@pytest.mark.parametrize("case", list(_BAD_SCALE_CASES))
def test_bad_scale_raises_typed_error(case):
    error, message = _BAD_SCALE_ERRORS.get(
        case, (NotPositiveDefinite, "matrix of shape (2, 2) is not positive definite"))
    with pytest.raises(error) as info:
        _BAD_SCALE_CASES[case]()
    assert type(info.value) is error
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# counts and reals that a law function takes: the one input rule
# ---------------------------------------------------------------------------

_LAW3 = MiwParams(S=np.eye(3), n=np.full(3, 5.0), v=3.0)


@pytest.mark.parametrize("call, error", [
    (lambda: log_multigamma(3.0, True), DomainError),  # used to read as p = 1
    (lambda: log_multigamma(3.0, 1.5), DomainError),
    (lambda: log_multigamma("3", 2), DimensionMismatch),  # used to be a bare TypeError
    (lambda: log_multigamma(None, 2), DimensionMismatch),
    (lambda: miw_marginal_block(_LAW3, True), DomainError),  # used to give the 1 x 1 block
    (lambda: miw_marginal_block(_LAW3, 1.5), DomainError),  # used to be a bare TypeError
    (lambda: miw_marginal_block(_LAW3, "1"), DomainError),
    (lambda: diag_marginal_ig(_LAW3, True), DomainError),
    (lambda: diag_marginal_ig(_LAW3, 0.5), DomainError),
    (lambda: diag_marginal_ig(_LAW3, None), DomainError),
], ids=["p-true", "p-half", "a-text", "a-none", "q-true", "q-half", "q-text", "index-true",
        "index-half", "index-none"])
def test_law_arguments_are_read_by_the_input_rule(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error


def test_integral_counts_of_any_type_are_read_as_ints():
    assert log_multigamma(3.0, 2.0) == log_multigamma(3.0, np.int64(2)) == log_multigamma(3.0, 2)
    assert np.array_equal(miw_marginal_block(_LAW3, 2.0).S, np.eye(2))
    assert diag_marginal_ig(_LAW3, np.int64(1)) == diag_marginal_ig(_LAW3, 1.0)


# ---------------------------------------------------------------------------
# stacks of laws: one formula over leading axes
# ---------------------------------------------------------------------------

def _stack_case(rng, lead):
    """Random arrays of one law of each kind and its arguments, with the
    leading stack axes ``lead``."""
    p, r = int(rng.integers(1, 5)), int(rng.integers(1, 4))

    def spd(n):
        B = rng.standard_normal(lead + (n, n))
        return B @ B.swapaxes(-1, -2) + (n + 0.5) * np.eye(n)

    f = rng.standard_normal(lead + (r, p))
    return dict(p=p, q=int(rng.integers(1, p + 1)), S=spd(p), n=rng.uniform(0.5, 8.0, lead + (p,)),
                v=rng.uniform(p, p + 3.0, lead), f=f, Q=spd(r),
                Y=f + rng.standard_normal(lead + (r, p)), Sigma=spd(p), R=spd(p),
                k=rng.uniform(2 * p + 0.1, 2 * p + 9.0, lead))


def _law(c, extra_dof=0.0):
    return MiwParams(S=c["S"], n=c["n"] + extra_dof, v=c["v"])


def _fields(law):
    return [law.S, law.n, law.v]


# each maps the arrays of a case to the arrays that the call returns
_CALLS = {
    "mt_log_density": lambda c: [mt_log_density(
        c["Y"], MtParams(f=c["f"], Q=c["Q"], S=c["S"], n=c["n"], v=c["v"]))],
    "matrix_normal_log_density": lambda c: [matrix_normal_log_density(
        c["Y"], MatrixNormalParams(M=c["f"], P=c["Q"], Sigma=c["Sigma"]))],
    "miw_log_density": lambda c: [miw_log_density(c["Sigma"], _law(c))],
    "iw_log_density": lambda c: [iw_log_density(c["Sigma"], c["R"], c["k"])],
    "miw_marginal_block": lambda c: _fields(miw_marginal_block(_law(c), c["q"])),
    "log_multigamma": lambda c: [log_multigamma(c["k"], c["p"])],
    "MiwParams.k": lambda c: [_law(c).k],
    "miw_mean": lambda c: [miw_mean(_law(c, extra_dof=6.0))],
    "miw_to_iw": lambda c: list(miw_to_iw(_law(c))),
    "iw_to_miw": lambda c: _fields(iw_to_miw(c["R"], c["k"], c["n"])),
    "miw_conditional_update": lambda c: _fields(
        miw_conditional_update(c["f"], c["Q"], _law(c), c["Y"])),
}


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["0-axes", "1-axis", "2-axes"])
@pytest.mark.parametrize("name", list(_CALLS))
def test_stacked_call_is_the_loop_over_its_entries_bit_for_bit(name, lead):
    rng = np.random.default_rng(sum(map(ord, name)) + len(lead))
    for _ in range(8):
        case = _stack_case(rng, lead)
        stacked = _CALLS[name](case)
        for idx in np.ndindex(*lead):
            entry = {key: val[idx] if isinstance(val, np.ndarray) else val
                     for key, val in case.items()}
            for got, want in zip(stacked, _CALLS[name](entry)):
                assert np.shape(got)[:len(lead)] == lead
                assert np.asarray(got)[idx].tobytes() == np.asarray(want, float).tobytes(), idx


def _stacked_law():
    # three laws with different dof: a sum across the stack would mix them
    return MiwParams(S=np.stack([np.eye(2), 2.0 * np.eye(2), 3.0 * np.eye(2)]),
                     n=np.array([[4.0, 4.0], [9.0, 9.0], [16.0, 16.0]]), v=np.full(3, 2.0))


def test_stacked_law_properties_are_per_entry():
    # the other functions of a stacked law are checked entry by entry above
    law = _stacked_law()
    assert law.p == 2
    assert np.array_equal(law.k, [8.0, 13.0, 20.0])


@pytest.mark.parametrize("call, message", [
    (lambda law: diag_marginal_ig(law, 0), r"shape must have shape \(\), got \(3,\)"),
    (lambda law: sample_miw(law, np.random.default_rng(0)),
     r"sampled law's dof vector must have shape \(p,\), got \(3, 2\)"),
    (lambda law: sample_miw(law, np.random.default_rng(0), size=4),
     r"sampled law's dof vector must have shape \(p,\), got \(3, 2\)"),
    (lambda law: sample_matrix_normal(MatrixNormalParams(
        M=np.zeros((3, 1, 2)), P=np.ones((3, 1, 1)), Sigma=law.S), np.random.default_rng(0)),
     r"sampled law's mean must have shape \(r, p\), got \(3, 1, 2\)"),
    (lambda law: NmiwState(m=np.zeros((1, 2)), P=np.eye(1), miw=law),
     r"covariance law of scale shape \(3, 2, 2\) does not match state columns 2"),
], ids=["diag_marginal_ig", "sample_miw", "sample_miw-size", "sample_matrix_normal", "NmiwState"])
def test_functions_of_one_law_reject_a_stack(call, message):
    with pytest.raises(DimensionMismatch, match=message):
        call(_stacked_law())


@pytest.mark.parametrize("build, message", [
    (lambda: MiwParams(S=np.ones((3, 1, 1)), n=np.ones(1), v=2.0),
     r"dof vector must have shape \(3, 1\), got \(1,\)"),
    (lambda: MiwParams(S=np.ones((3, 1, 1)), n=np.ones((3, 1)), v=2.0),
     r"v must have shape \(3,\), got \(\)"),
    (lambda: MtParams(f=np.zeros((3, 1, 1)), Q=np.eye(1), S=np.eye(1), n=np.ones(1), v=2.0),
     r"row scale must have shape \(3, 1, 1\), got \(1, 1\)"),
    (lambda: MatrixNormalParams(M=np.zeros((2, 1, 1)), P=np.ones((2, 1, 1)), Sigma=np.eye(1)),
     r"column covariance must have shape \(2, 1, 1\), got \(1, 1\)"),
    (lambda: mt_log_density(np.zeros((1, 1)), MtParams(
        f=np.zeros((2, 1, 1)), Q=np.ones((2, 1, 1)), S=np.ones((2, 1, 1)), n=np.ones((2, 1)),
        v=np.full(2, 2.0))), r"argument must have shape \(2, 1, 1\), got \(1, 1\)"),
    (lambda: iw_log_density(np.ones((2, 1, 1)), np.eye(1), 4.0),
     r"scale must have shape \(2, p, p\), got \(1, 1\)"),
], ids=["n", "v", "MtParams Q", "MatrixNormalParams Sigma", "mt_log_density Y", "iw_log_density R"])
def test_the_fields_of_a_law_share_its_stack_axes(build, message):
    with pytest.raises(DimensionMismatch, match=message):
        build()


def test_normalizability_is_checked_for_every_entry_of_a_stack():
    with pytest.raises(DomainError, match="normalizability"):
        MiwParams(S=np.ones((2, 1, 1)), n=np.ones((2, 1)), v=np.array([2.0, 0.5]))
