"""Compensator integrals, tails and their invariants.

Expected values come from independent oracles: exact finite sums for atomic
measures, fixed-grid Riemann sums for densities, and closed forms where the
integral is elementary.
"""

import math

import numpy as np
import pytest

import smalltime as st
from smalltime import compensators, quadrature
from smalltime.quadrature import quad_abs

TOL = 1e-9


def riemann(fn, lo, hi, step=1e-5):
    y = np.arange(lo, hi, step) + step / 2
    return float(np.sum(fn(y)) * step)


# ----------------------------------------------------------------------
# integrate

def test_integrate_atomic_exponential():
    m = st.atomic([(0.5, 2.0)])
    assert m.integrate(math.exp) == pytest.approx(2.0 * math.exp(0.5), rel=1e-12)


def test_integrate_stable_square_closed_form():
    m = st.stable_like(1.5, 0.1)
    # 2 * 0.1 * int_0^1 y^(1 - 1.5) dy = 0.2 / 0.5
    got = m.integrate(lambda y: y * y, g_over_y2=lambda y: 1.0)
    assert got == pytest.approx(0.4, abs=1e-9)


def test_integrate_density_vs_riemann_oracle():
    m = st.density(lambda y: math.exp(-3.0 * abs(y)), (-np.inf, np.inf))
    got = m.integrate(lambda y: math.expm1(y) ** 2)
    oracle = riemann(lambda y: np.expm1(y) ** 2 * np.exp(-3.0 * np.abs(y)),
                     -40.0, 40.0)
    assert got == pytest.approx(oracle, abs=5e-9)
    assert got == pytest.approx(11.0 / 30.0, abs=1e-10)


def test_integrate_linearity():
    m = st.normal_jumps(1.3, 0.1, 0.35)
    g1 = math.exp
    g2 = math.sin
    lhs = m.integrate(lambda y: 2.0 * g1(y) - 3.0 * g2(y))
    rhs = 2.0 * m.integrate(g1) - 3.0 * m.integrate(g2)
    assert lhs == pytest.approx(rhs, abs=20 * TOL)


def test_every_form_integrates_through_the_one_route():
    # the base method checks tol and adds the measure's kinks; each form
    # supplies only its own quadrature
    for cls in (st.AtomicCompensator, st.DensityCompensator,
                st.StableLikeCompensator, st.PushforwardCompensator):
        assert cls.integrate_with_error is st.JumpCompensator.integrate_with_error


def test_integrate_rejects_bad_tol():
    m = st.atomic([(0.5, 2.0)])
    with pytest.raises(st.DomainError):
        m.integrate(math.exp, tol=0.0)


def test_integrate_divergent_raises():
    m = st.normal_jumps(1.0, 0.0, 0.4)
    with pytest.raises(st.QuadratureDivergence):
        m.integrate(lambda y: 1.0 / (y * y), points=[0.0])


@pytest.mark.parametrize("power", [1.5, 2.0])
def test_quad_abs_rejects_extrapolated_divergence(power):
    # QUADPACK extrapolates these divergent integrals to a negative value
    # with an error below 1e-12 and flags them as probably divergent
    with pytest.raises(st.QuadratureDivergence):
        quad_abs(lambda y: y ** -power, 0.0, 1.0, 1e-9)


# ----------------------------------------------------------------------
# exponential double tails

def test_double_tail_up_zero_measure():
    assert st.exp_double_tail_up(st.no_jumps(), 0.3) == 0.0


def test_double_tail_up_single_atom_closed_form():
    m = st.atomic([(0.5, 2.0)])
    got = st.exp_double_tail_up(m, 0.1)
    assert got == pytest.approx(2.0 * (math.exp(0.5) - math.exp(0.1)), rel=1e-12)


def test_double_tail_up_normal_matches_payoff_integral():
    m = st.normal_jumps(1.0, 0.0, 0.4)
    S0, K = 1.0, 1.25
    z = math.log(K / S0)
    lhs = S0 * st.exp_double_tail_up(m, z, TOL)
    rhs = m.integrate(lambda y: max(S0 * math.exp(y) - K, 0.0),
                      TOL, points=[z])
    assert abs(lhs - rhs) <= 10 * TOL


def test_double_tail_down_zero_measure():
    assert st.exp_double_tail_down(st.no_jumps(), -0.3) == 0.0


def test_double_tail_down_single_atom_closed_form():
    m = st.atomic([(-0.5, 3.0)])
    got = st.exp_double_tail_down(m, -0.1)
    assert got == pytest.approx(3.0 * (math.exp(-0.1) - math.exp(-0.5)), rel=1e-12)


def test_double_tail_down_laplace_matches_put_integral():
    m = st.laplace_jumps(1.5, 0.25)
    S0, z = 1.0, -0.2
    K = S0 * math.exp(z)
    lhs = st.exp_double_tail_down(m, z, TOL)
    rhs = m.integrate(lambda y: max(K - S0 * math.exp(y), 0.0),
                      TOL, points=[z]) / S0
    assert abs(lhs - rhs) <= 10 * TOL


def test_double_tail_domain_errors():
    m = st.atomic([(0.5, 2.0)])
    with pytest.raises(st.DomainError):
        st.exp_double_tail_up(m, 0.0)
    with pytest.raises(st.DomainError):
        st.exp_double_tail_up(m, -0.1)
    with pytest.raises(st.DomainError):
        st.exp_double_tail_down(m, 0.0)
    with pytest.raises(st.DomainError):
        st.exp_double_tail_down(m, 0.1)


def _random_measures(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        if rng.uniform() < 0.5:
            k = rng.integers(1, 5)
            atoms = [(float(rng.uniform(-0.9, 0.9)), float(rng.uniform(0.1, 2.0)))
                     for _ in range(k)]
            out.append(st.atomic(atoms))
        elif rng.uniform() < 0.5:
            out.append(st.normal_jumps(float(rng.uniform(0.3, 2.0)),
                                       float(rng.uniform(-0.2, 0.2)),
                                       float(rng.uniform(0.2, 0.5))))
        else:
            out.append(st.laplace_jumps(float(rng.uniform(0.3, 2.0)),
                                        float(rng.uniform(0.1, 0.3))))
    return out


def test_double_tail_monotonicity_on_random_measures():
    for m in _random_measures(42, 6):
        zs = np.linspace(0.05, 1.5, 8)
        vals = [st.exp_double_tail_up(m, z, 1e-10) for z in zs]
        assert all(a >= b - 1e-9 for a, b in zip(vals[:-1], vals[1:]))
        zs = np.linspace(-1.5, -0.05, 8)
        vals = [st.exp_double_tail_down(m, z, 1e-10) for z in zs]
        assert all(b >= a - 1e-9 for a, b in zip(vals[:-1], vals[1:]))


def test_payoff_identity_on_random_measures():
    S0 = 1.0
    for i, m in enumerate(_random_measures(7, 8)):
        K = 1.05 + 0.1 * (i % 4)
        z = math.log(K / S0)
        lhs = S0 * st.exp_double_tail_up(m, z, TOL)
        rhs = m.integrate(lambda y: max(S0 * math.exp(y) - K, 0.0),
                          TOL, points=[z])
        assert abs(lhs - rhs) <= 10 * TOL


# ----------------------------------------------------------------------
# atomic finite-sum oracle across every operation

def test_atomic_oracle_everywhere():
    atoms = [(-0.7, 0.4), (-0.2, 1.1), (0.3, 0.8), (0.9, 0.2)]
    m = st.atomic(atoms)
    for g in (math.exp, lambda y: y * y, lambda y: max(math.expm1(y), 0.0)):
        exact = sum(lam * g(y) for y, lam in atoms)
        assert m.integrate(g) == pytest.approx(exact, rel=1e-12)
    for x in (0.1, 0.25, 0.35, 1.0):
        exact = sum(lam for y, lam in atoms if y >= x)
        assert m.upper_tail(x) == pytest.approx(exact, rel=1e-12)
    for z in (0.05, 0.4, 1.2):
        exact = sum(lam * (math.exp(y) - math.exp(z)) for y, lam in atoms if y > z)
        assert st.exp_double_tail_up(m, z) == pytest.approx(exact, rel=1e-12, abs=1e-15)
    for z in (-0.05, -0.5, -1.2):
        exact = sum(lam * (math.exp(z) - math.exp(y)) for y, lam in atoms if y < z)
        assert st.exp_double_tail_down(m, z) == pytest.approx(exact, rel=1e-12, abs=1e-15)


# ----------------------------------------------------------------------
# construction invariants

def test_negative_mass_rejected():
    with pytest.raises(st.InvariantViolation):
        st.atomic([(0.5, -1.0)])


def test_exponential_integrability_enforced():
    # exp(-|y|) decays too slowly for (e^y - 1)^2 to integrate
    with pytest.raises(st.InvariantViolation):
        st.density(lambda y: math.exp(-abs(y)), (-np.inf, np.inf))


@pytest.mark.parametrize("m", [
    st.normal_jumps(1.0, 0.1, 0.4), st.normal_jumps(1.0, 0.1, 0.4).scaled(2.5),
    st.laplace_jumps(1.2, 0.25, 0.05), st.laplace_jumps(1.2, 0.25, 0.05).scaled(0.5)],
    ids=["normal", "normal_scaled", "laplace", "laplace_scaled"])
def test_closed_form_exp_moments_match_quadrature(m):
    first, second = m.exp_moments
    assert first == pytest.approx(m.integrate(math.expm1, tol=1e-12), rel=1e-10)
    assert second == pytest.approx(m.integrate(lambda y: math.expm1(y) ** 2, tol=1e-12),
                                               rel=1e-10)


@pytest.mark.parametrize("make", [lambda: st.normal_jumps(1.0, 0.0, 40.0),
                                  lambda: st.normal_jumps(1.0, 800.0, 0.1),
                                  lambda: st.laplace_jumps(1.0, 0.2, 800.0)],
                         ids=["normal_std", "normal_mean", "laplace_mean"])
def test_overflowing_exp_moments_are_rejected(make):
    # a far jump law whose (e^y - 1)^2 overflows: quadrature misses the
    # narrow bump at a mean of 800 and accepted it
    with pytest.raises(st.InvariantViolation):
        make()


def test_laplace_scale_bound():
    with pytest.raises(st.InvariantViolation):
        st.laplace_jumps(1.0, 0.6)


def test_stable_alpha_bounds():
    for alpha in (1.0, 2.0, 0.5, 2.5):
        with pytest.raises(st.InvariantViolation):
            st.stable_like(alpha, 0.1)
    with pytest.raises(st.InvariantViolation):
        st.stable_like(1.5, -0.1)
    with pytest.raises(st.InvariantViolation):
        st.stable_like(1.5, 0.0)


def test_stable_residual_must_be_finite_variation():
    inner = st.stable_like(1.5, 0.1)
    with pytest.raises(st.InvariantViolation):
        st.stable_like(1.3, 0.2, residual=inner)


def test_stable_with_residual_integrates_both_parts():
    resid = st.atomic([(1.5, 0.3)])
    m = st.stable_like(1.5, 0.1, residual=resid)
    got = m.integrate(lambda y: y * y, g_over_y2=lambda y: 1.0)
    assert got == pytest.approx(0.4 + 0.3 * 1.5**2, abs=1e-9)


def test_stable_with_large_residual_builds():
    # the residual's |y|-integral is about 3e6: an absolute budget rejected it
    resid = st.normal_jumps(1e7, 0.0, 0.4)
    m = st.stable_like(1.5, 0.1, residual=resid)
    got = m.integrate(lambda y: y * y, g_over_y2=lambda y: 1.0)
    assert got == pytest.approx(0.4 + 1e7 * 0.16, rel=1e-9)


@pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 1.8, 1.95])
def test_stable_integrability_closed_forms_match_quadrature(alpha):
    # scipy's algebraic-weight rule against y^(1 - alpha) on (0, 1], both
    # sides of the origin folded together
    from scipy.integrate import quad

    def qaws(h):
        v, _ = quad(lambda y: h(y) + h(-y), 0.0, 1.0, weight="alg",
                    wvar=(1.0 - alpha, 0.0), epsabs=0.0, epsrel=1e-13)
        return 0.7 * v

    levy, sqexp = compensators._stable_moments(alpha, 0.7)
    assert levy == pytest.approx(qaws(lambda y: 1.0), rel=1e-12)
    assert sqexp == pytest.approx(
        qaws(lambda y: (math.expm1(y) / y if y else 1.0) ** 2), rel=1e-12)


@pytest.mark.parametrize("residual", [None, st.normal_jumps(1.0, 0.0, 0.2)],
                         ids=["alone", "normal_residual"])
@pytest.mark.parametrize("c", [math.inf, math.nan, 1e308])
def test_stable_non_finite_constant_c_is_rejected(c, residual):
    with pytest.raises(st.InvariantViolation):
        st.stable_like(1.5, c, residual)


def test_constant_c_stable_builds_without_quadrature(monkeypatch):
    def no_quadrature(*args):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(quadrature, "_quad_piece", no_quadrature)
    st.stable_like(1.5, 0.1)
    st.stable_like(1.5, 0.1, st.atomic([(0.3, 1.0)]))
    with pytest.raises(AssertionError):
        st.stable_like(1.5, lambda y: 0.1)


def test_scaled_measures():
    m = st.atomic([(0.5, 2.0)])
    assert m.scaled(3.0).integrate(math.exp) == pytest.approx(
        6.0 * math.exp(0.5), rel=1e-12)
    d = st.normal_jumps(1.0, 0.0, 0.4)
    assert d.scaled(2.0).integrate(lambda y: 1.0) == pytest.approx(
        2.0, abs=1e-8)
    s = st.stable_like(1.5, 0.1)
    got = s.scaled(2.0).integrate(lambda y: y * y, g_over_y2=lambda y: 1.0)
    assert got == pytest.approx(0.8, abs=1e-9)


@pytest.mark.parametrize("x", [0.01, -0.05, 0.5, -1.0])
def test_stable_profile_closed_forms_match_quadrature(x):
    closed = st.stable_like(1.4, 0.7)
    quad = st.stable_like(1.4, lambda y: 0.7)
    assert quad.side_mass(x) == pytest.approx(closed.side_mass(x), rel=1e-10)
    assert quad.side_second_moment(x) == pytest.approx(
        closed.side_second_moment(x), rel=1e-8)


def test_callable_c_stable_like():
    m = st.stable_like(1.5, lambda y: 0.1 * (1.0 + 0.5 * y * y))
    direct = riemann(lambda y: y**2 * 0.1 * (1 + 0.5 * y**2) * np.abs(y)**-2.5,
                     1e-6, 1.0, 1e-6) * 2
    got = m.integrate(lambda y: y * y, g_over_y2=lambda y: 1.0)
    # Riemann oracle misses [0, 1e-6], whose contribution is ~2*0.1*sqrt(1e-6)
    assert got == pytest.approx(direct, abs=5e-4)
