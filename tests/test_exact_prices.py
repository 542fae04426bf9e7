"""Monte Carlo call prices against exact series, at horizons where most paths
do not jump (Poisson mean per path below ``montecarlo._SPARSE_BELOW``).

The series condition on the jump counts: given them, the log price is
Gaussian (or constant without a diffusion), so the discounted call is a
Poisson-weighted sum of lognormal calls. These are prices, not asymptotic
coefficients, so they check the simulator alone.
"""

import itertools
import math

import pytest
from scipy.stats import norm

import smalltime as st
from smalltime.montecarlo import _SPARSE_BELOW

# jump counts beyond this carry less than 1e-30 of the mass at t <= 0.03
MAX_JUMPS = 20


def poisson_pmf(k, mu):
    return math.exp(-mu) * mu**k / math.factorial(k)


def lognormal_call(mean, var, K):
    """E (e^X - K)^+ for X ~ N(mean, var); var = 0 is the constant e^mean."""
    if var == 0.0:
        return max(math.exp(mean) - K, 0.0)
    sd = math.sqrt(var)
    d1 = (mean - math.log(K) + var) / sd
    return math.exp(mean + 0.5 * var) * norm.cdf(d1) - K * norm.cdf(d1 - sd)


def merton_call(S0, K, t, r, sigma, lam, m, s):
    """Merton (1976) series: Gaussian log-jumps N(m, s^2) at intensity lam."""
    kappa = math.expm1(m + 0.5 * s * s)
    x = math.log(S0) + (r - 0.5 * sigma * sigma - lam * kappa) * t
    total = sum(poisson_pmf(k, lam * t)
                * lognormal_call(x + k * m, sigma * sigma * t + k * s * s, K)
                for k in range(MAX_JUMPS))
    return math.exp(-r * t) * total


def atomic_call(S0, K, t, r, sigma, atoms):
    """Finite Poisson sum over the jump counts of each atom (size, intensity)."""
    compensation = sum(lam * math.expm1(y) for y, lam in atoms)
    x = math.log(S0) + (r - 0.5 * sigma * sigma - compensation) * t
    total = 0.0
    for counts in itertools.product(range(MAX_JUMPS), repeat=len(atoms)):
        weight = math.prod(poisson_pmf(k, lam * t) for k, (_, lam) in zip(counts, atoms))
        shift = sum(k * y for k, (y, _) in zip(counts, atoms))
        total += weight * lognormal_call(x + shift, sigma * sigma * t, K)
    return math.exp(-r * t) * total


ATOMS = [(0.3, 2.0), (-0.4, 1.0)]
MODELS = {
    "merton": (st.ExpModelCharacteristics(1.0, 0.02, 0.2, st.normal_jumps(1.0, 0.0, 0.4)),
               lambda K, t: merton_call(1.0, K, t, 0.02, 0.2, 1.0, 0.0, 0.4), 1.0),
    "atomic_pure_jump": (st.ExpModelCharacteristics(1.0, 0.03, 0.0, st.atomic(ATOMS)),
                         lambda K, t: atomic_call(1.0, K, t, 0.03, 0.0, ATOMS), 2.0),
    "atomic_diffusion": (st.ExpModelCharacteristics(1.0, 0.0, 0.15, st.atomic(ATOMS)),
                         lambda K, t: atomic_call(1.0, K, t, 0.0, 0.15, ATOMS), 2.0),
}


def test_series_reduce_to_black_scholes():
    # no jumps: both series are the Black-Scholes price
    t, r, sigma = 0.03, 0.02, 0.2
    for K in (0.9, 1.0, 1.2):
        d1 = (math.log(1.0 / K) + (r + 0.5 * sigma**2) * t) / (sigma * math.sqrt(t))
        bs = norm.cdf(d1) - K * math.exp(-r * t) * norm.cdf(d1 - sigma * math.sqrt(t))
        assert merton_call(1.0, K, t, r, sigma, 0.0, 0.0, 0.4) == pytest.approx(bs, rel=1e-12)
        assert atomic_call(1.0, K, t, r, sigma, [(0.3, 0.0)]) == pytest.approx(bs, rel=1e-12)


@pytest.mark.parametrize("t", [1e-3, 3e-2])
@pytest.mark.parametrize("case", MODELS)
def test_estimate_call_matches_exact_series(case, t):
    ec, exact, max_intensity = MODELS[case]
    assert max_intensity * t < _SPARSE_BELOW  # every stream draws sparse counts
    cfg = st.SimConfig(n_paths=2**18 + 300, master_seed=1009)
    for K in (0.9, 1.0, 1.2):
        est = st.estimate_call(ec, t, K, cfg)
        price = exact(K, t)
        assert est.std_error > 0
        assert abs(est.value - price) <= 5 * est.std_error, (K, est, price)


@pytest.mark.parametrize("t", [1e-5, 1e-4])
@pytest.mark.parametrize("case", ["merton", "atomic_diffusion"])
def test_conditional_estimate_matches_exact_series_at_tiny_t(case, t):
    # with a diffusion and sparse streams each path's payoff is its
    # Black-Scholes price given its jump sum, and only the paths that jump
    # are visited, so 2^23 paths (about 80 to 250 jumping ones at t = 1e-5)
    # take well under a second
    ec, exact, _ = MODELS[case]
    cfg = st.SimConfig(n_paths=2**23, master_seed=1013)
    for K in (0.9, 1.0, 1.2):
        est = st.estimate_call(ec, t, K, cfg)
        price = exact(K, t)
        assert est.std_error > 0
        assert abs(est.value - price) <= 5 * est.std_error, (K, est, price)
