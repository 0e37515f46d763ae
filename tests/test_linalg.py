"""Cholesky-backed SPD helpers against brute-force and numpy references."""
import warnings

import numpy as np
import pytest

from mvdlm import (
    DimensionMismatch,
    MiwParams,
    NotPositiveDefinite,
    cholesky_lower,
    symmetrize,
)
from mvdlm.linalg import _log_det

from oracles import det_cofactor

A3 = np.array([[4.0, 1.2, 0.4], [1.2, 3.0, -0.5], [0.4, -0.5, 2.5]])
A3_LOGDET = 3.1962211343033946  # frozen: log of cofactor-expansion determinant


def random_spd(rng, n, jitter=0.5):
    B = rng.standard_normal((n, n))
    return B @ B.T + (n + jitter) * np.eye(n)


def test_symmetrize_returns_symmetric_average():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = symmetrize(a)
    assert np.array_equal(s, s.T)
    assert np.allclose(s, np.array([[1.0, 1.0], [1.0, 3.0]]))


def test_symmetrize_preserves_symmetric_input_exactly():
    rng = np.random.default_rng(0)
    a = random_spd(rng, 4)
    a = 0.5 * (a + a.T)
    assert np.array_equal(symmetrize(a), a)


def test_symmetrize_does_not_overflow_above_half_the_largest_float():
    # (A + A') / 2 used to overflow past max / 2: S = [[1e308]] was held as inf
    big = np.finfo(float).max
    a = np.array([[1e308, big], [0.5 * big, -big]])
    s = symmetrize(a)
    assert np.isfinite(s).all()
    assert np.array_equal(s, [[1e308, 0.75 * big], [0.75 * big, -big]])
    assert np.array_equal(symmetrize(s), s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(MiwParams(S=[[1e308]], n=[1.0], v=2.0).S, [[1e308]])


def test_symmetrize_is_a_fixed_point_at_subnormal_entries():
    # halving each side first would round a subnormal with an odd last bit
    tiny = np.nextafter(0.0, 1.0)
    a = np.array([[3 * tiny, -5 * tiny], [-5 * tiny, 1.0]])
    assert np.array_equal(symmetrize(a), a)
    assert np.array_equal(symmetrize(np.array([[1.0, tiny], [3 * tiny, 1.0]])),
                          [[1.0, 2 * tiny], [2 * tiny, 1.0]])


@pytest.mark.parametrize("seed", range(5))
def test_symmetrize_keeps_the_bits_of_the_plain_average_where_it_is_finite(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4, 4)) * 10.0 ** rng.integers(-300, 300, (3, 4, 4))
    a[0, 0, 1], a[1, 2, 3], a[2, 1, 1] = np.inf, np.nan, -np.inf
    a[1, 0, 1], a[1, 1, 0], a[2, 3, 3] = 1.5e308, 1e308, -1.7e308
    with np.errstate(all="ignore"):
        plain = 0.5 * (a + a.swapaxes(1, 2))
        s = symmetrize(a)
    finite, given = np.isfinite(plain), np.isfinite(a) & np.isfinite(a.swapaxes(1, 2))
    assert (~finite & given).any() and np.array_equal(s[finite], plain[finite])
    # an overflowing average is finite; one of an entry that is not finite is as it was
    over = ~finite & given
    assert np.array_equal(s[over], (0.5 * a + 0.5 * a.swapaxes(1, 2))[over])
    assert np.array_equal(s[~given], plain[~given], equal_nan=True)


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        symmetrize(np.zeros((2, 3)))


def test_cholesky_reconstruction():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5, 8):
        a = random_spd(rng, n)
        L = cholesky_lower(a)
        assert np.allclose(np.tril(L), L)
        assert np.allclose(L @ L.T, a, atol=1e-12 * np.abs(a).max())


def test_log_det_matches_cofactor_expansion():
    assert _log_det(cholesky_lower(A3)) == pytest.approx(A3_LOGDET, abs=1e-12)
    assert _log_det(cholesky_lower(A3)) == pytest.approx(np.log(det_cofactor(A3)), abs=1e-12)


def test_log_det_matches_slogdet_on_random_instances():
    rng = np.random.default_rng(2)
    for n in (1, 3, 6):
        a = random_spd(rng, n)
        sign, ref = np.linalg.slogdet(a)
        assert sign > 0
        assert _log_det(cholesky_lower(a)) == pytest.approx(ref, abs=1e-10)


def test_solve_residual_small():
    rng = np.random.default_rng(3)
    a = random_spd(rng, 6)
    b = rng.standard_normal((6, 4))
    L = cholesky_lower(a)
    x = np.linalg.solve(L.T, np.linalg.solve(L, b))
    assert np.allclose(a @ x, b, atol=1e-9)
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-9)


def test_spd_matrix_solve_half_gram_identity():
    # Z = solve(L, B) has Z'Z == B' A^{-1} B, the quadratic-form building
    # block used throughout the densities.
    rng = np.random.default_rng(4)
    a = random_spd(rng, 5)
    b = rng.standard_normal((5, 3))
    z = np.linalg.solve(cholesky_lower(a), b)
    assert np.allclose(z.T @ z, b.T @ np.linalg.solve(a, b), atol=1e-10)


def test_not_positive_definite_raised():
    indef = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(NotPositiveDefinite, match=r"matrix of shape \(2, 2\) is not positive definite"):
        cholesky_lower(indef)
