"""Generator evaluation: closed-form cases, oracles, structural properties."""

import math

import numpy as np
import pytest

import smalltime as st
from smalltime.asymptotics import leading_term

TOL = 1e-9


def kappa(y):
    return y / (1.0 + y * y)


# ----------------------------------------------------------------------
# state-space generator

def test_pure_drift_on_monomial():
    ch = st.LocalCharacteristics([0.3], [[0.0]])
    f = st.polynomial([0.0, 0.0, 1.0])
    assert st.apply_generator(ch, f, 2.0) == pytest.approx(1.2, rel=1e-12)


def test_pure_diffusion_on_monomial():
    sigma = 0.4
    ch = st.LocalCharacteristics([0.0], [[sigma]])
    f = st.polynomial([0.0, 0.0, 1.0])
    assert st.apply_generator(ch, f, 2.0) == pytest.approx(sigma**2, rel=1e-12)


def test_atomic_jump_on_bump():
    f = st.gaussian_bump(0.0, 1.0)
    ch = st.LocalCharacteristics([0.0], [[0.0]], st.atomic([(1.0, 0.5)]))
    exact = 0.5 * (f.value(1.0) - f.value(0.0) - kappa(1.0) * f.gradient(0.0))
    assert st.apply_generator(ch, f, 0.0) == pytest.approx(exact, rel=1e-12)


def test_density_jump_vs_riemann_oracle():
    m = st.normal_jumps(1.0, 0.0, 0.4)
    f = st.gaussian_bump(0.0, 0.8)
    x = 0.2
    got = st.apply_generator(st.LocalCharacteristics([0.0], [[0.0]], m), f, x)
    step = 1e-5
    y = np.arange(-6.0, 6.0, step) + step / 2
    dens = np.exp(-y**2 / (2 * 0.16)) / (0.4 * math.sqrt(2 * math.pi))
    fv = np.vectorize(f.value)
    integ = (fv(x + y) - f.value(x) - y / (1 + y * y) * f.gradient(x)) * dens
    assert got == pytest.approx(float(np.sum(integ) * step), abs=1e-8)


def test_stable_jump_vs_riemann_plus_core_oracle():
    alpha, c = 1.5, 0.1
    m = st.stable_like(alpha, c)
    f = st.gaussian_bump(0.0, 0.8)
    x = 0.2
    got = st.apply_generator(st.LocalCharacteristics([0.0], [[0.0]], m), f, x)
    # oracle: Riemann sum on [delta, 1] both sides plus the analytic
    # quadratic core on [0, delta]
    delta, step = 1e-4, 1e-6
    y = np.arange(delta, 1.0, step) + step / 2
    fv = np.vectorize(f.value)
    dens = c * y ** (-1.0 - alpha)
    up = (fv(x + y) - f.value(x) - y / (1 + y**2) * f.gradient(x)) * dens
    dn = (fv(x - y) - f.value(x) + y / (1 + y**2) * f.gradient(x)) * dens
    core = 2 * (0.5 * f.hessian(x)) * c * delta ** (2 - alpha) / (2 - alpha)
    oracle = float(np.sum(up + dn) * step) + core
    assert got == pytest.approx(oracle, abs=5e-7)


def test_dimension_mismatch():
    ch = st.LocalCharacteristics([0.0, 0.0], np.eye(2))
    with pytest.raises(st.DimensionMismatch):
        st.apply_generator(ch, st.polynomial([0.0, 1.0]), [0.0, 0.0])


def test_multidim_generator_with_vector_atoms():
    ch = st.LocalCharacteristics([0.1, -0.2], 0.3 * np.eye(2),
                                 st.atomic([((0.4, -0.1), 0.7)]))
    f = st.gaussian_bump([0.0, 0.0], 1.0)
    x = np.array([0.2, 0.1])
    grad = f.gradient(x)
    hess = f.hessian(x)
    yv = np.array([0.4, -0.1])
    kv = yv / (1 + float(yv @ yv))
    exact = (0.1 * grad[0] - 0.2 * grad[1]
             + 0.5 * 0.09 * np.trace(hess)
             + 0.7 * (f.value(x + yv) - f.value(x) - float(kv @ grad)))
    assert st.apply_generator(ch, f, x) == pytest.approx(exact, rel=1e-12)


# ----------------------------------------------------------------------
# price-space generator

def test_exp_generator_linear_no_jumps():
    ec = st.ExpModelCharacteristics(1.0, 0.07, 0.3)
    assert st.apply_exp_generator(ec, st.affine([1.0]), 2.0) == pytest.approx(
        0.07 * 2.0, rel=1e-12)


def test_exp_generator_linear_jumps_cancel():
    # the compensated jump integral vanishes identically on f(x) = x
    ec = st.ExpModelCharacteristics(1.0, 0.07, 0.0, st.normal_jumps(2.0, 0.1, 0.3))
    assert st.apply_exp_generator(ec, st.affine([1.0]), 1.5) == pytest.approx(
        0.07 * 1.5, abs=1e-9)


def test_exp_generator_second_moment_formula():
    S0, sigma = 2.0, 0.2
    m = st.normal_jumps(1.0, 0.0, 0.4)
    ec = st.ExpModelCharacteristics(S0, 0.0, sigma, m)
    f = st.polynomial([0.0, 0.0, 1.0], center=S0)
    got = st.apply_exp_generator(ec, f, S0)
    sq = math.exp(2 * 0.16) - 2 * math.exp(0.16 / 2) + 1  # E(e^y - 1)^2
    assert got == pytest.approx(S0**2 * sigma**2 + S0**2 * sq, rel=1e-9)


def test_exp_generator_domain():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2)
    with pytest.raises(st.DomainError):
        st.apply_exp_generator(ec, st.affine([1.0]), 0.0)


# ----------------------------------------------------------------------
# short-time expansion

def test_expansion_at_zero_horizon():
    ch = st.LocalCharacteristics([0.3], [[0.0]])
    f = st.polynomial([0.0, 0.0, 1.0])
    assert st.short_time_expectation(ch, f, 2.0, 0.0) == pytest.approx(4.0)


def test_expansion_drift_arithmetic():
    ch = st.LocalCharacteristics([0.3], [[0.0]])
    f = st.polynomial([0.0, 0.0, 1.0])
    got = st.short_time_expectation(ch, f, 2.0, 0.01)
    assert got == pytest.approx(4.0 + 0.01 * 1.2, rel=1e-12)


def test_expansion_rejects_negative_horizon():
    ch = st.LocalCharacteristics([0.3], [[0.0]])
    with pytest.raises(st.DomainError):
        st.short_time_expectation(ch, st.affine([1.0]), 0.0, -0.1)


# ----------------------------------------------------------------------
# structural properties

def _random_chars(rng):
    beta = float(rng.normal(0, 0.3))
    sigma = float(rng.uniform(0.0, 0.4))
    kind = rng.integers(0, 3)
    if kind == 0:
        jumps = st.no_jumps()
    elif kind == 1:
        k = int(rng.integers(1, 4))
        jumps = st.atomic([(float(rng.uniform(-0.8, 0.8)),
                            float(rng.uniform(0.1, 1.5))) for _ in range(k)])
    else:
        jumps = st.normal_jumps(float(rng.uniform(0.2, 1.5)),
                                float(rng.uniform(-0.2, 0.2)),
                                float(rng.uniform(0.2, 0.45)))
    return st.LocalCharacteristics([beta], [[sigma]], jumps)


def test_degenerate_case_reduction():
    rng = np.random.default_rng(2024)
    for _ in range(12):
        ch = _random_chars(rng)
        x0 = float(rng.normal(0.0, 0.5))
        coeffs = [0.0, 0.0] + list(rng.normal(0, 1.0, 3))
        f = st.polynomial(coeffs, center=x0)
        var = float(ch.diffusion_matrix()[0, 0])
        expected = 0.5 * var * f.hessian(x0)
        if not ch.jumps.is_empty():
            expected += st.integrate(ch.jumps, lambda y: f.value(x0 + y), TOL)
        got = st.apply_generator(ch, f, x0, TOL)
        assert got == pytest.approx(expected, abs=5e-8)
        # with a vanishing Hessian only the raw jump integral survives
        coeffs3 = [0.0, 0.0, 0.0] + list(rng.normal(0, 1.0, 2))
        f3 = st.polynomial(coeffs3, center=x0)
        expected3 = 0.0
        if not ch.jumps.is_empty():
            expected3 = st.integrate(ch.jumps, lambda y: f3.value(x0 + y), TOL)
        assert st.apply_generator(ch, f3, x0, TOL) == pytest.approx(
            expected3, abs=5e-8)


def test_linearity_in_f():
    rng = np.random.default_rng(11)
    ch = _random_chars(rng)
    f1 = st.polynomial([0.1, -0.5, 0.8, 0.2])
    f2 = st.polynomial([0.0, 1.1, -0.3, 0.0, 0.05])
    combo = st.polynomial([0.1 * 2 - 3 * 0.0, -0.5 * 2 - 3 * 1.1,
                           0.8 * 2 + 3 * 0.3, 0.2 * 2 - 3 * 0.0,
                           -3 * 0.05])
    x = 0.4
    lhs = st.apply_generator(ch, combo, x, TOL)
    rhs = 2 * st.apply_generator(ch, f1, x, TOL) - 3 * st.apply_generator(ch, f2, x, TOL)
    assert lhs == pytest.approx(rhs, abs=1e-7)


def test_truncation_consistency():
    # moving the (y - kappa(y)) mass into the drift must not change L f
    atoms = [(0.6, 0.9), (-0.4, 1.3)]
    m = st.atomic(atoms)
    beta = 0.2
    ch = st.LocalCharacteristics([beta], [[0.3]], m)
    f = st.gaussian_bump(0.0, 0.7)
    x = 0.1
    got = st.apply_generator(ch, f, x, TOL)
    shift = sum(lam * (y - kappa(y)) for y, lam in atoms)
    untrunc = ((beta + shift) * f.gradient(x)
               + 0.5 * 0.09 * f.hessian(x)
               + sum(lam * (f.value(x + y) - f.value(x) - y * f.gradient(x))
                     for y, lam in atoms))
    assert got == pytest.approx(untrunc, rel=1e-12)


GENERATOR_ROUTE_LAWS = {
    "normal": st.normal_jumps(1.0, 0.0, 0.4),
    "laplace": st.laplace_jumps(1.2, 0.25),
    "atoms": st.atomic([(0.3, 2.0), (-0.4, 1.0)]),
    "stable": st.stable_like(1.5, 1.0),
}


@pytest.mark.parametrize("K", [0.8, 1.2])
@pytest.mark.parametrize("law", GENERATOR_ROUTE_LAWS)
def test_mollified_call_generator_route_matches_leading_term(law, K):
    # the paper's route through smooth payoffs: d/dt C(0+) = L f_n(S0) -
    # r f_n(S0) for K != S0 as n grows; under stable jumps the sharp band
    # raised QuadratureDivergence (error 1.08e5) at K = 0.8
    ec = st.ExpModelCharacteristics(1.0, 0.01, 0.2, GENERATOR_ROUTE_LAWS[law])
    f = st.mollified_call(K, 1e6)
    route = st.apply_exp_generator(ec, f, 1.0) - ec.r * f.value(1.0)
    assert route == pytest.approx(leading_term(ec, K).coefficient, rel=0.0, abs=1e-9)


def test_mollified_call_generator_route_grows_at_the_money():
    # at K = S0 the limit does not commute: L f_n(S0) grows like the
    # diffusion's (3/8) sigma^2 S0^2 n, and the jumps decide the rest; a
    # finite-variation law adds a bounded amount, stable-like jumps of index
    # alpha add a multiple of n^(alpha - 1)
    def excess(jumps, n):
        ec = st.ExpModelCharacteristics(1.0, 0.01, 0.2, jumps)
        return st.apply_exp_generator(ec, st.mollified_call(1.0, n), 1.0) - 0.375 * 0.04 * n

    merton = st.normal_jumps(1.0, 0.0, 0.4)
    assert excess(merton, 1e6) == pytest.approx(excess(merton, 1e4), rel=1e-3)
    stable = st.stable_like(1.5, 1.0)
    assert excess(stable, 1e6) / excess(stable, 1e4) == pytest.approx(10.0, rel=0.02)
