"""Builtin smooth-function families: derivative checks and remainders."""

import math

import numpy as np
import pytest

import smalltime as st
from smalltime.functions import from_spec


def fd_grad(f, x, h=1e-5):
    return (f.value(x + h) - f.value(x - h)) / (2 * h)


def fd_hess(f, x, h=1e-5):
    return (f.value(x + h) - 2 * f.value(x) + f.value(x - h)) / (h * h)


ONE_D = [
    st.polynomial([0.3, -1.2, 0.7, 0.05], center=0.4),
    st.affine([1.7], intercept=-0.3),
    st.exp_affine([0.8], offset=0.1, scale=1.4),
    st.gaussian_bump(0.2, 0.7, height=2.0, offset=-0.5),
    st.mollified_call(1.0, 25.0),
]


@pytest.mark.parametrize("f", ONE_D, ids=lambda f: f.family)
def test_finite_difference_oracle_1d(f):
    rng = np.random.default_rng(99)
    for _ in range(5):
        x = float(rng.uniform(-1.5, 2.5))
        scale = max(1.0, abs(f.value(x)))
        assert abs(fd_grad(f, x) - f.gradient(x)) <= 2e-5 * max(scale, abs(f.gradient(x)))
        assert abs(fd_hess(f, x) - f.hessian(x)) <= 2e-4 * max(scale, abs(f.hessian(x)), 10.0)


@pytest.mark.parametrize("f", ONE_D, ids=lambda f: f.family)
def test_curvature_remainder_matches_direct(f):
    for x in (-0.3, 0.6, 1.2):
        for y in (0.5, -0.4, 0.05):
            direct = (f.value(x + y) - f.value(x) - y * f.gradient(x)) / (y * y)
            assert f.curvature_remainder(x, y) == pytest.approx(direct, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("f", ONE_D, ids=lambda f: f.family)
def test_curvature_remainder_tiny_y_limit(f):
    # the stable form must approach f''/2 where the direct form loses all digits
    for x in (-0.2, 0.8):
        got = f.curvature_remainder(x, 1e-10)
        assert got == pytest.approx(0.5 * f.hessian(x), rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("x, y", [(1.3, -0.3), (0.7, 0.3), (1.7005, -1e-3)])
def test_narrow_bump_remainder_from_its_far_tail(x, y):
    # a jump from the far tail onto a narrow bump: e^-z overflows (the first
    # two), or is finite but meets a core that underflowed to 0 (the last)
    f = st.gaussian_bump(1.0, 1e-3)
    direct = (f.value(x + y) - f.value(x) - y * f.gradient(x)) / (y * y)
    assert f.curvature_remainder(x, y) == pytest.approx(direct, rel=1e-12, abs=0.0)


def test_mollified_call_remainder_matches_direct():
    # band [0.5, 1.5]; every segment from x to x + y meets it, so the
    # direct quotient keeps its digits
    f = st.mollified_call(1.0, 2.0)
    for x in (0.3, 0.8, 1.1, 1.4, 1.9):
        for y in (0.5, -0.7, 0.25, 1.2, -0.05, -1.2):
            lo, hi = sorted((x, x + y))
            if hi <= 0.5 or lo >= 1.5:
                continue
            direct = (f.value(x + y) - f.value(x) - y * f.gradient(x)) / (y * y)
            assert f.curvature_remainder(x, y) == pytest.approx(direct, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("x, y", [(0.3, 0.1), (0.5, -0.4), (1.5, 0.2), (2.0, -0.5), (3.0, 1e-300)])
def test_mollified_call_remainder_zero_on_one_side_of_the_band(x, y):
    # f is affine from x to x + y: the remainder is exactly 0
    assert st.mollified_call(1.0, 2.0).curvature_remainder(x, y) == 0.0


def test_mollified_call_remainder_below_rounding_of_x():
    # n y is far below the rounding of n (x - K): the limit f''(x)/2 still
    f = st.mollified_call(1.0, 2.0)
    assert f.curvature_remainder(0.9, 1e-200) == pytest.approx(0.5 * f.hessian(0.9), rel=1e-15)


def test_multidim_families():
    g = st.gaussian_bump([0.1, -0.2], 0.8, height=1.5)
    e = st.exp_affine([0.3, -0.4], offset=0.2)
    a = st.affine([1.0, 1.0], intercept=0.0)
    x = np.array([0.3, 0.1])
    assert g.dim == e.dim == a.dim == 2
    assert a.value(x) == pytest.approx(0.4)
    assert np.allclose(a.hessian(x), 0.0)
    # cross-check one gradient component by finite differences
    h = 1e-6
    dx = np.array([h, 0.0])
    assert g.gradient(x)[0] == pytest.approx(
        (g.value(x + dx) - g.value(x - dx)) / (2 * h), rel=1e-4)
    assert e.hessian(x)[0, 1] == pytest.approx(0.3 * -0.4 * e.value(x), rel=1e-9)


MULTI_D = [
    lambda d: st.affine([1.3, -0.7, 0.4][:d], intercept=0.2),
    lambda d: st.exp_affine([0.8, -0.5, 0.3][:d], offset=0.1, scale=1.4),
    lambda d: st.gaussian_bump([0.1, -0.2, 0.3][:d], 0.7, height=2.0, offset=-0.5),
]


def _fd_close(fd, exact, fx, order, h):
    # relative tolerance 1e-5, plus the roundoff floor of the difference
    # quotient: ~eps |f| / h for a first difference, 4 eps |f| / h^2 for a
    # second one
    eps = np.finfo(float).eps
    floor = (4.0 if order == 2 else 1.0) * eps * max(1.0, abs(fx)) / h**order
    return abs(fd - exact) <= 1e-5 * max(1.0, abs(exact), abs(fx)) + floor


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("make", MULTI_D, ids=["affine", "exp_affine", "gaussian_bump"])
def test_multidim_derivatives_match_finite_differences(make, d):
    f = make(d)
    assert f.dim == d
    h = 1e-5
    e = h * np.eye(d)
    for x in np.random.default_rng(5).uniform(-1.0, 1.0, (4, d)):
        fx = f.value(x)
        g, hess = f.gradient(x), f.hessian(x)
        assert g.shape == (d,) and hess.shape == (d, d)
        for i in range(d):
            fd = (f.value(x + e[i]) - f.value(x - e[i])) / (2 * h)
            assert _fd_close(fd, g[i], fx, 1, h), (i, fd, g[i])
            fd = (f.value(x + e[i]) - 2 * fx + f.value(x - e[i])) / (h * h)
            assert _fd_close(fd, hess[i, i], fx, 2, h), (i, fd, hess[i, i])
            for j in range(i + 1, d):
                fd = (f.value(x + e[i] + e[j]) - f.value(x + e[i] - e[j])
                      - f.value(x - e[i] + e[j]) + f.value(x - e[i] - e[j])) / (4 * h * h)
                assert _fd_close(fd, hess[i, j], fx, 2, h), (i, j, fd, hess[i, j])
                assert hess[j, i] == hess[i, j]


def test_sharp_and_large_functions_construct_with_closed_form_derivatives():
    # finite differences at a 1e-5 step cannot resolve these, but the closed
    # forms are exact
    n = 1e6
    f = st.mollified_call(1.0, n)
    assert (f.value(1.0), f.gradient(1.0), f.hessian(1.0)) == (3.0 / 16.0 / n, 0.5, 0.75 * n)
    # n (x - 1) = 0.5 up to the rounding of x - 1, about 2e-10 relative
    x = 1.0 + 0.5 / n
    assert f.value(x) == pytest.approx((3 / 16 + 0.25 + 0.375 / 4 - 1 / 256) / n, rel=1e-9)
    assert f.gradient(x) == pytest.approx(0.84375, rel=1e-9)
    assert f.hessian(x) == pytest.approx(0.5625 * n, rel=1e-9)
    assert (f.value(1.0 - 3e-6), f.gradient(1.0 - 3e-6), f.hessian(1.0 - 3e-6)) == (0, 0, 0)
    assert (f.gradient(1.0 + 3e-6), f.hessian(1.0 + 3e-6)) == (1.0, 0.0)

    w = 1e-3
    b = st.gaussian_bump(0.0, w)
    x = 2 * w
    assert b.value(x) == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert b.gradient(x) == pytest.approx(-2e3 * math.exp(-2.0), rel=1e-12)
    assert b.hessian(x) == pytest.approx(3e6 * math.exp(-2.0), rel=1e-12)

    e = st.exp_affine([30.0, 1.0])
    x = np.array([0.86, 2.91])
    v = math.exp(30.0 * 0.86 + 2.91)
    assert v > 1e12
    assert e.value(x) == pytest.approx(v, rel=1e-12)
    assert np.allclose(e.gradient(x), [30.0 * v, v], rtol=1e-12, atol=0.0)
    assert np.allclose(e.hessian(x), [[900.0 * v, 30.0 * v], [30.0 * v, v]],
                       rtol=1e-12, atol=0.0)


def test_mollified_call_brackets_payoff():
    K, n = 1.0, 50.0
    f = st.mollified_call(K, n)
    for x in np.linspace(0.5, 1.5, 401):
        payoff = max(x - K, 0.0)
        assert payoff - 1e-15 <= f.value(x) <= payoff + 1.0 / n
    assert f.value(K - 2.0 / n) == 0.0
    assert f.value(K + 2.0 / n) == pytest.approx(2.0 / n, rel=1e-12)
    assert f.gradient(K + 2.0 / n) == 1.0
    assert f.hessian(K) == pytest.approx(0.75 * n)


def test_gaussian_bump_offset_shifts_value_only():
    base = st.gaussian_bump(0.0, 1.0)
    lifted = st.gaussian_bump(0.0, 1.0, offset=-1.0)
    assert lifted.value(0.0) == pytest.approx(base.value(0.0) - 1.0)
    assert lifted.gradient(0.3) == pytest.approx(base.gradient(0.3))
    assert lifted.hessian(0.3) == pytest.approx(base.hessian(0.3))


def test_invalid_parameters():
    with pytest.raises(st.InvariantViolation):
        st.gaussian_bump(0.0, 0.0)
    with pytest.raises(st.InvariantViolation):
        st.mollified_call(1.0, 0.0)
    with pytest.raises(st.DomainError, match="underflows"):
        st.gaussian_bump(0.0, 1e-170)


def test_from_spec_round_trip():
    f = from_spec({"family": "polynomial", "coeffs": [0.0, 0.0, 1.0], "center": 0.5})
    assert f.value(1.5) == pytest.approx(1.0)
    with pytest.raises(st.InvariantViolation):
        from_spec({"family": "nope"})


def test_curvature_remainder_needs_dim_one():
    a = st.affine([1.0, 1.0])
    with pytest.raises(st.DimensionMismatch):
        a.curvature_remainder(0.0, 0.1)
