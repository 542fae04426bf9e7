"""Leading-order short-maturity behavior of call prices.

For an exponential model with spot S0, rate r and strike K the discounted
call price C(t) = e^{-rt} E (S_t - K)^+ behaves like

* OTM (K > S0):  C(t) ~ a t           with a the payoff integral of the
  log-jump compensator, equal to S0 times its upper exponential double tail;
* ITM (K < S0):  C(t) ~ (S0 - K) + a t with a = r K plus S0 times the lower
  exponential double tail;
* ATM (K = S0):  the exponent depends on the fine structure: 1/2 with a
  diffusive component, 1 for finite-variation pure-jump models, 1/alpha for
  stable-like small jumps.

Each operation returns an AsymptoticResult (regime, exponent, coefficient,
constant term, diagnostics) such that C(t) ~ constant_term + a * t**p.
"""

import math
from dataclasses import dataclass, field

from . import compensators as comp
from .errors import DomainError, QuadratureDivergence, RegimeUnknown
# nothing here integrates; quad_abs stays bound because bench/test_bench.py
# checks that the tracer restores this module's binding of it
from .quadrature import DEFAULT_TOL, PROBE_TOL, quad_abs  # noqa: F401

OTM = "OTM"
ITM = "ITM"
ATM_DIFFUSIVE = "ATM_Diffusive"
ATM_FINITE_VARIATION = "ATM_FiniteVariation"
ATM_STABLE = "ATM_Stable"


@dataclass
class AsymptoticResult:
    regime: str
    exponent: float
    coefficient: float
    constant_term: float = 0.0
    alpha: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.coefficient < 0:
            raise DomainError(f"negative leading coefficient {self.coefficient}")
        if not 0.0 < self.exponent <= 1.0:
            raise DomainError(f"exponent {self.exponent} outside (0, 1]")


def classify_regime(ec, K):
    """Moneyness and, at the money, fine-structure regime of the model.

    At-the-money is exact equality of the declared S0 and K. Raises
    RegimeUnknown for pure-jump models of infinite variation that do not
    declare a stable-like decomposition; no formula covers that case.
    """
    if not K > 0:
        raise DomainError(f"strike must be positive, got {K}")
    if K > ec.S0:
        return OTM
    if K < ec.S0:
        return ITM
    if ec.sigma > 0:
        return ATM_DIFFUSIVE
    m = ec.jumps
    if m.form == "stable_like":
        return ATM_STABLE
    if m.form == "atomic":
        return ATM_FINITE_VARIATION
    if m.form == "density" and m.singularity_order >= 2:
        raise RegimeUnknown(
            "pure-jump model with infinite |y|-integral and no stable-like "
            "declaration")
    try:
        m.integrate(abs, tol=PROBE_TOL)
    except QuadratureDivergence as exc:
        raise RegimeUnknown(
            "pure-jump model whose |y|-integral diverges numerically and is "
            "not declared stable-like") from exc
    return ATM_FINITE_VARIATION


def otm_slope(ec, K, tol=DEFAULT_TOL):
    """Leading linear coefficient of an out-of-the-money call.

    Both evaluation routes are computed: the direct payoff integral of
    (S0 e^y - K)^+ and S0 times the upper exponential double tail at
    ln(K / S0). They must agree within 10 * tol * max(1, |tail form|), the
    quadrature's own budget rule scaled by 10; the tail form is reported.
    """
    if K <= ec.S0:
        raise DomainError("otm_slope requires K > S0")
    z = math.log(K / ec.S0)
    m = ec.jumps
    payoff_form = m.integrate(
        lambda y: max(ec.S0 * math.exp(y) - K, 0.0), tol, points=[z])
    psi = comp.exp_double_tail_up(m, z, tol)
    tail_form = ec.S0 * psi
    gap = abs(payoff_form - tail_form)
    allowed = 10.0 * tol * max(1.0, abs(tail_form))
    if gap > allowed:
        raise QuadratureDivergence(
            f"payoff and double-tail evaluations disagree by {gap:.3e} "
            f"(> 10 tol max(1, |tail form|) = {allowed:.3e})")
    return AsymptoticResult(
        OTM, 1.0, tail_form,
        diagnostics={"payoff_form": payoff_form, "tail_form": tail_form,
                     "route_gap": gap, "log_moneyness": z})


def itm_slope(ec, K, tol=DEFAULT_TOL):
    """Leading linear coefficient of an in-the-money call above its
    intrinsic value S0 - K.

    The call is the discounted C(t) = e^{-rt} E (S_t - K)^+, which put-call
    parity writes as S0 - K e^{-rt} + P(t) with P(t) ~ S0 psi(ln(K/S0)) t,
    so the coefficient is r K + S0 psi with psi the lower exponential double
    tail.
    """
    if not 0 < K < ec.S0:
        raise DomainError("itm_slope requires 0 < K < S0")
    if K / ec.S0 == 0.0:
        raise DomainError(f"K/S0 = {K!r}/{ec.S0!r} underflows to 0")
    z = math.log(K / ec.S0)
    psi = comp.exp_double_tail_down(ec.jumps, z, tol)
    return AsymptoticResult(
        ITM, 1.0, ec.r * K + ec.S0 * psi, constant_term=ec.S0 - K,
        diagnostics={"tail_form": ec.S0 * psi, "log_moneyness": z})


def leading_term(ec, K, tol=DEFAULT_TOL):
    """Leading term at strike K from the formula of its regime:
    atm_coefficient at K = S0, which classifies the fine structure itself,
    otherwise otm_slope or itm_slope as chosen by classify_regime."""
    if K == ec.S0:
        return atm_coefficient(ec, tol)
    if classify_regime(ec, K) == OTM:
        return otm_slope(ec, K, tol)
    return itm_slope(ec, K, tol)


def stable_positive_part_constant(alpha, c0):
    """Gamma(1 - 1/alpha) c0^(1/alpha) / pi.

    This is the mean positive part of a symmetric alpha-stable variable with
    characteristic function e^{-c0 |z|^alpha}, which equals the Fourier
    integral (1/2pi) * integral of (1 - e^{-c0 |z|^alpha}) / z^2 over the
    real line; the tests check the closed form against that integral.
    """
    if not 1.0 < alpha < 2.0:
        raise DomainError(f"alpha={alpha} outside (1, 2)")
    if c0 <= 0:
        raise DomainError("c0 must be positive")
    return math.gamma(1.0 - 1.0 / alpha) * c0 ** (1.0 / alpha) / math.pi


def atm_coefficient(ec, tol=DEFAULT_TOL):
    """Leading coefficient and exponent of the at-the-money call price.

    Dispatches on the regime at K = S0:

    * diffusive: exponent 1/2, coefficient S0 sigma / sqrt(2 pi), regardless
      of the jump component;
    * finite variation: exponent 1, coefficient S0 times the integral of
      (e^y - 1)^+ against the compensator;
    * stable-like: exponent 1/alpha, coefficient S0 times the positive-part
      constant Gamma(1 - 1/alpha) c(0)^(1/alpha) / pi.
    """
    regime = classify_regime(ec, ec.S0)
    if regime == ATM_DIFFUSIVE:
        a = ec.S0 * ec.sigma / math.sqrt(2.0 * math.pi)
        return AsymptoticResult(ATM_DIFFUSIVE, 0.5, a,
                                diagnostics={"sigma": ec.sigma})
    if regime == ATM_FINITE_VARIATION:
        a = ec.S0 * ec.jumps.integrate(
            lambda y: max(math.expm1(y), 0.0), tol, points=[0.0])
        return AsymptoticResult(ATM_FINITE_VARIATION, 1.0, a)
    alpha = ec.jumps.alpha
    c0 = ec.jumps.c0
    const = stable_positive_part_constant(alpha, c0)
    return AsymptoticResult(
        ATM_STABLE, 1.0 / alpha, ec.S0 * const, alpha=alpha,
        diagnostics={"c0": c0, "positive_part_constant": const})
