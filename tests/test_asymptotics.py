"""Regime classification and leading-order price coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.special import gamma
from scipy.stats import norm

import smalltime as st

TOL = 1e-9


def lognormal_call_integral(S0, K, lam, mu, sig):
    """Closed form for the integral of (S0 e^y - K)^+ against lam*N(mu, sig^2)."""
    k = math.log(K / S0)
    d1 = (mu + sig**2 - k) / sig
    d2 = (mu - k) / sig
    return lam * (S0 * math.exp(mu + 0.5 * sig**2) * norm.cdf(d1)
                  - K * norm.cdf(d2))


def laplace_call_integral(S0, K, lam, b, mu):
    """Closed form for the integral of (S0 e^y - K)^+ against lam times the
    Laplace(mu, b) law, split at the kink mu when it lies above ln(K/S0)."""
    z = math.log(K / S0)
    c = lam / (2.0 * b)
    lo = max(z, mu)
    total = c * b * math.exp(-(lo - mu) / b) * (S0 * math.exp(lo) / (1.0 - b) - K)
    if z < mu:
        w = math.exp((z - mu) / b)
        total += c * b * (S0 * (math.exp(mu) - math.exp(z) * w) / (1.0 + b) - K * (1.0 - w))
    return total


# ----------------------------------------------------------------------
# classification

def test_classify_moneyness():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2)
    assert st.classify_regime(ec, 1.2) == st.OTM
    assert st.classify_regime(ec, 0.8) == st.ITM
    assert st.classify_regime(ec, 1.0) == st.ATM_DIFFUSIVE


def test_classify_atm_diffusive_with_jumps():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2, st.atomic([(0.5, 2.0)]))
    assert st.classify_regime(ec, 1.0) == st.ATM_DIFFUSIVE


def test_classify_atm_stable():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.stable_like(1.5, 0.1))
    assert st.classify_regime(ec, 1.0) == st.ATM_STABLE


def test_classify_atm_finite_variation():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.atomic([(0.5, 2.0)]))
    assert st.classify_regime(ec, 1.0) == st.ATM_FINITE_VARIATION
    ecd = st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.normal_jumps(1.0, 0.0, 0.4))
    assert st.classify_regime(ecd, 1.0) == st.ATM_FINITE_VARIATION


def test_classify_regime_unknown():
    # infinite-variation pure-jump density without a stable-like declaration
    fn = lambda y: 0.05 * abs(y) ** -2.2
    m = st.density(fn, (-1.0, 1.0), singularity_order=2.2)
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, m)
    with pytest.raises(st.RegimeUnknown):
        st.classify_regime(ec, 1.0)
    with pytest.raises(st.RegimeUnknown):
        st.atm_coefficient(ec)


def test_classify_rejects_bad_strike():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2)
    for K in (0.0, math.nan):
        with pytest.raises(st.DomainError):
            st.classify_regime(ec, K)


# ----------------------------------------------------------------------
# OTM

def test_otm_zero_measure():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2)
    res = st.otm_slope(ec, 1.2)
    assert res.regime == st.OTM
    assert res.exponent == 1.0
    assert res.coefficient == 0.0


def test_otm_atomic():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.atomic([(0.5, 2.0)]))
    res = st.otm_slope(ec, 1.2)
    assert res.coefficient == pytest.approx(2.0 * (math.exp(0.5) - 1.2), rel=1e-12)


def test_otm_merton_lognormal_oracle():
    lam, mu, sig = 1.0, 0.0, 0.4
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2, st.normal_jumps(lam, mu, sig))
    res = st.otm_slope(ec, 1.2)
    oracle = lognormal_call_integral(1.0, 1.2, lam, mu, sig)
    assert res.coefficient == pytest.approx(oracle, abs=1e-8)
    assert res.diagnostics["route_gap"] <= 10 * TOL


def _singular_density(A, beta, theta, hi):
    def fn(y):
        ay = abs(y)
        return A * ay ** (-1.0 - beta) * math.exp(-ay / theta) if ay > 0 else math.inf

    return st.density(fn, (-hi, hi), 1.0 + beta)


@pytest.mark.parametrize("K, jumps", [
    (1.05, lambda: st.stable_like(1.4458096839072194, 0.6178309716698983)),
    (1.1, lambda: _singular_density(1.1536806817599756, 0.5253263696949004,
                                    0.4943835689155559, 1.5)),
])
def test_otm_payoff_route_splits_at_kink_under_power_substitution(K, jumps):
    # the payoff kink at ln K must survive the substitution that removes the
    # origin singularity, or QUADPACK can miss it and the routes disagree
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, jumps())
    res = st.otm_slope(ec, K, TOL)
    assert res.diagnostics["route_gap"] <= 1e-12


@pytest.mark.parametrize("lam", [1.0, 100.0])
def test_otm_laplace_kink_inside_the_otm_range(lam):
    # the density's kink at its mean, 0.05, lies above ln K = 0.0488: both
    # routes must break there (before, QUADPACK missed it by 5.9e-8
    # relative, and at intensity 100 the routes disagreed beyond the budget)
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2, st.laplace_jumps(lam, 0.2, 0.05))
    res = st.otm_slope(ec, 1.05)
    exact = laplace_call_integral(1.0, 1.05, lam, 0.2, 0.05)
    assert res.diagnostics["payoff_form"] == pytest.approx(exact, rel=1e-9)
    assert res.diagnostics["tail_form"] == pytest.approx(exact, rel=1e-9)


def test_otm_requires_otm_strike():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2)
    with pytest.raises(st.DomainError):
        st.otm_slope(ec, 0.9)


def test_otm_slope_nonincreasing_in_strike():
    lam = 1.3
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.normal_jumps(lam, 0.1, 0.35))
    ks = np.linspace(1.05, 2.2, 12)
    vals = [st.otm_slope(ec, float(k)).coefficient for k in ks]
    assert all(a >= b - 1e-10 for a, b in zip(vals[:-1], vals[1:]))
    # a(K) is Lipschitz in K with constant at most the total jump intensity
    dk = float(ks[1] - ks[0])
    gaps = [abs(a - b) for a, b in zip(vals[:-1], vals[1:])]
    assert max(gaps) <= lam * dk + 1e-10


# ----------------------------------------------------------------------
# ITM

def test_itm_no_jumps_no_rate():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2)
    res = st.itm_slope(ec, 0.8)
    assert res.regime == st.ITM
    assert res.coefficient == 0.0
    assert res.constant_term == pytest.approx(0.2)


def test_itm_pure_rate():
    ec = st.ExpModelCharacteristics(1.0, 0.05, 0.2)
    res = st.itm_slope(ec, 0.8)
    # the discounted call puts the rate on the strike: C ~ S0 - K e^{-rt}
    assert res.coefficient == pytest.approx(0.05 * 0.8, rel=1e-12)


def test_itm_atomic_lower_tail():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.atomic([(-0.5, 3.0)]))
    res = st.itm_slope(ec, 0.8)
    assert res.coefficient == pytest.approx(3.0 * (0.8 - math.exp(-0.5)),
                                            rel=1e-12)


def test_itm_requires_itm_strike():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2)
    with pytest.raises(st.DomainError):
        st.itm_slope(ec, 1.2)


# ----------------------------------------------------------------------
# ATM

def test_atm_diffusive_coefficient_and_bs_cross_check():
    sigma = 0.2
    ec = st.ExpModelCharacteristics(1.0, 0.0, sigma)
    res = st.atm_coefficient(ec)
    assert res.exponent == 0.5
    assert res.coefficient == pytest.approx(sigma / math.sqrt(2 * math.pi),
                                            rel=1e-12)
    t = 1e-4
    bs_exact = 2 * norm.cdf(sigma * math.sqrt(t) / 2) - 1
    assert res.coefficient * math.sqrt(t) == pytest.approx(bs_exact, rel=1e-3)


def test_atm_diffusive_independent_of_jumps():
    ec0 = st.ExpModelCharacteristics(1.0, 0.0, 0.2)
    ec1 = st.ExpModelCharacteristics(1.0, 0.0, 0.2, st.atomic([(0.5, 2.0)]))
    a0 = st.atm_coefficient(ec0).coefficient
    a1 = st.atm_coefficient(ec1).coefficient
    assert a0 == a1  # bit identical, the jump measure is never touched


def test_atm_finite_variation_atomic():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.atomic([(0.5, 2.0)]))
    res = st.atm_coefficient(ec)
    assert res.exponent == 1.0
    assert res.coefficient == pytest.approx(2.0 * (math.exp(0.5) - 1.0),
                                            rel=1e-12)


def test_atm_stable_quadrature_vs_gamma_closed_form():
    for alpha in (1.2, 1.5, 1.8):
        for c in (0.05, 0.1, 0.5):
            got = st.stable_positive_part_constant(alpha, c, 1e-10)
            exact = gamma(1.0 - 1.0 / alpha) * c ** (1.0 / alpha) / math.pi
            assert got == pytest.approx(exact, rel=1e-6)


def test_atm_stable_result():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.stable_like(1.5, 0.1))
    res = st.atm_coefficient(ec)
    assert res.regime == st.ATM_STABLE
    assert res.exponent == pytest.approx(1.0 / 1.5)
    assert res.alpha == 1.5
    exact = gamma(1.0 / 3.0) * 0.1 ** (2.0 / 3.0) / math.pi
    assert res.coefficient == pytest.approx(exact, rel=1e-9)


def test_spot_homogeneity():
    # coefficients are degree-1 homogeneous in S0 at fixed K/S0
    m = st.normal_jumps(1.0, 0.0, 0.4)
    for scale in (2.0, 5.0):
        a1 = st.otm_slope(st.ExpModelCharacteristics(1.0, 0.0, 0.2, m), 1.2)
        a2 = st.otm_slope(st.ExpModelCharacteristics(scale, 0.0, 0.2, m),
                          1.2 * scale)
        assert a2.coefficient == pytest.approx(scale * a1.coefficient, rel=1e-7)
        b1 = st.itm_slope(st.ExpModelCharacteristics(1.0, 0.03, 0.2, m), 0.8)
        b2 = st.itm_slope(st.ExpModelCharacteristics(scale, 0.03, 0.2, m),
                          0.8 * scale)
        assert b2.coefficient == pytest.approx(scale * b1.coefficient, rel=1e-7)
        c1 = st.atm_coefficient(st.ExpModelCharacteristics(1.0, 0.0, 0.2, m))
        c2 = st.atm_coefficient(st.ExpModelCharacteristics(scale, 0.0, 0.2, m))
        assert c2.coefficient == pytest.approx(scale * c1.coefficient, rel=1e-12)


def _tabulated(y):
    return 3.0 * math.exp(-abs(y) / 0.2)


INTENSITY_SCALED = {
    "normal": st.normal_jumps(1.0, 0.0, 0.4),
    "normal_martingale": st.normal_jumps(1.0, -0.08, 0.4),
    "laplace": st.laplace_jumps(1.0, 0.2, -0.05),
    "tabulated": st.density(_tabulated, (-1.5, 2.0)),
    "atomic": st.atomic([(0.4, 1.0), (-0.6, 0.5)]),
    "stable_normal": st.stable_like(1.5, 0.1, residual=st.normal_jumps(0.5, 0.0, 0.3)),
    "stable_callable": st.stable_like(1.4, lambda y: 0.1 * (1.0 + 0.5 * y)),
}


def _jump_linear_coefficients(m):
    # with r = 0 and sigma = 0 each of these is an integral against m alone
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, m)
    out = [st.otm_slope(ec, 1.05).coefficient, st.itm_slope(ec, 0.95).coefficient,
           st.apply_exp_generator(ec, st.gaussian_bump(center=1.1, width=0.3), 1.0)]
    if m.form != "stable_like":
        out.append(st.atm_coefficient(ec).coefficient)
    return out


@pytest.mark.parametrize("name", INTENSITY_SCALED)
def test_intensity_homogeneity(name):
    # the coefficients are linear in the measure, so scaling the intensity
    # by k scales them by k: the quadrature budget is relative above 1
    m = INTENSITY_SCALED[name]
    base = _jump_linear_coefficients(m)
    for k in (1e2, 1e5, 1e7):
        got = _jump_linear_coefficients(m.scaled(k))
        assert got == pytest.approx([k * b for b in base], rel=1e-9), k


def test_result_invariants():
    with pytest.raises(st.DomainError):
        st.AsymptoticResult("OTM", 1.0, -0.5)
    with pytest.raises(st.DomainError):
        st.AsymptoticResult("OTM", 1.5, 0.5)


# means inside the OTM and ITM ranges of the strikes drawn below, so each
# family's kink or peak lies between the strike and the spot
_MEAN = hst.floats(min_value=-0.3, max_value=0.3)
_INTENSITY = hst.floats(min_value=0.1, max_value=100.0)


@hst.composite
def _measure_and_sq_exp(draw):
    """A drawn atomic, normal or Laplace measure with the closed form of the
    integral of (e^y - 1)^2 against it."""
    family = draw(hst.sampled_from(["atomic", "normal", "laplace"]))
    if family == "atomic":
        atoms = draw(hst.lists(hst.tuples(hst.floats(min_value=-0.9, max_value=0.9),
                                          _INTENSITY), min_size=1, max_size=4))
        return st.atomic(atoms), sum(lam * math.expm1(y) ** 2 for y, lam in atoms)
    lam, mu = draw(_INTENSITY), draw(_MEAN)
    if family == "normal":
        sd = draw(hst.floats(min_value=0.05, max_value=0.5))

        def mgf(u):
            return math.exp(mu * u + 0.5 * (sd * u) ** 2)

        m = st.normal_jumps(lam, mu, sd)
    else:
        b = draw(hst.floats(min_value=0.05, max_value=0.35))

        def mgf(u):
            return math.exp(mu * u) / (1.0 - (b * u) ** 2)

        m = st.laplace_jumps(lam, b, mu)
    return m, lam * (mgf(2.0) - 2.0 * mgf(1.0) + 1.0)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(measure=_measure_and_sq_exp(),
       otm=hst.floats(min_value=1.01, max_value=1.4),
       itm=hst.floats(min_value=0.7, max_value=0.99),
       r=hst.floats(min_value=0.0, max_value=0.1),
       sigma=hst.floats(min_value=0.0, max_value=0.5),
       x=hst.floats(min_value=0.5, max_value=2.0))
def test_drawn_measures_hold_route_rules_and_the_square_generator(measure, otm, itm, r,
                                                                  sigma, x):
    m, sq_exp = measure
    ec = st.ExpModelCharacteristics(1.0, r, sigma, m)
    # OTM: the payoff and double-tail routes agree within 10 tol max(1, |tail|)
    res = st.otm_slope(ec, otm, TOL)
    assert res.diagnostics["route_gap"] <= 10 * TOL * max(1.0, abs(res.diagnostics["tail_form"]))
    # ITM: the lower double tail against the put payoff integral, same rule
    res = st.itm_slope(ec, itm, TOL)
    put = st.integrate(m, lambda y: max(itm - math.exp(y), 0.0), TOL,
                       points=[math.log(itm)])
    tail = res.diagnostics["tail_form"]
    assert abs(put - tail) <= 10 * TOL * max(1.0, abs(tail))
    # the generator on x^2 is x^2 (2r + sigma^2 + integral of (e^y - 1)^2)
    got = st.apply_exp_generator(ec, st.polynomial([0.0, 0.0, 1.0]), x, TOL)
    assert got == pytest.approx(x * x * (2.0 * r + sigma * sigma + sq_exp), rel=1e-8)
