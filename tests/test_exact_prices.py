"""Monte Carlo call prices against exact prices that share no code with the
sampler.

For compound-Poisson jumps the series condition on the jump counts: given
them, the log price is Gaussian (or constant without a diffusion), so the
discounted call is a Poisson-weighted sum of lognormal calls, summed over
the counts that hold all but less than 1e-16 of each stream's Poisson mass.
They cover both kernels: the conditional one (a diffusion and every stream's
Poisson mean per path below ``montecarlo._CONDITIONAL_BELOW``) and the plain
one (no diffusion, or a mean from there up). The truncated power tail of the
``euler_log`` scheme draws about 13 jumps per path, so its price comes from
its characteristic function instead (Lewis 2001). These are prices, not
asymptotic coefficients, so they check the simulator alone.
"""

import functools
import itertools
import math

import numpy as np
import pytest
from scipy.stats import norm, poisson

import smalltime as st
from smalltime.montecarlo import _CONDITIONAL_BELOW, _SimulationPlan


def poisson_pmf(k, mu):
    return math.exp(-mu) * mu**k / math.factorial(k)


def jump_counts(mu):
    """The counts 0..k of a Poisson(mu) stream, where P(N > k) <= 1e-16."""
    return range(int(poisson.isf(1e-16, mu)) + 1)


def std_normal_cdf(x):
    # scalar norm.cdf costs about 50 us a call, and the sums over three
    # atoms make thousands of pairs of calls
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def lognormal_call(mean, var, K):
    """E (e^X - K)^+ for X ~ N(mean, var); var = 0 is the constant e^mean."""
    if var == 0.0:
        return max(math.exp(mean) - K, 0.0)
    sd = math.sqrt(var)
    d1 = (mean - math.log(K) + var) / sd
    return math.exp(mean + 0.5 * var) * std_normal_cdf(d1) - K * std_normal_cdf(d1 - sd)


def merton_call(S0, K, t, r, sigma, lam, m, s):
    """Merton (1976) series: Gaussian log-jumps N(m, s^2) at intensity lam."""
    kappa = math.expm1(m + 0.5 * s * s)
    x = math.log(S0) + (r - 0.5 * sigma * sigma - lam * kappa) * t
    total = sum(poisson_pmf(k, lam * t)
                * lognormal_call(x + k * m, sigma * sigma * t + k * s * s, K)
                for k in jump_counts(lam * t))
    return math.exp(-r * t) * total


def atomic_call(S0, K, t, r, sigma, atoms):
    """Finite Poisson sum over the jump counts of each atom (size, intensity)."""
    compensation = sum(lam * math.expm1(y) for y, lam in atoms)
    x = math.log(S0) + (r - 0.5 * sigma * sigma - compensation) * t
    total = 0.0
    for counts in itertools.product(*(jump_counts(lam * t) for _, lam in atoms)):
        weight = math.prod(poisson_pmf(k, lam * t) for k, (_, lam) in zip(counts, atoms))
        shift = sum(k * y for k, (y, _) in zip(counts, atoms))
        total += weight * lognormal_call(x + shift, sigma * sigma * t, K)
    return math.exp(-r * t) * total


ATOMS = [(0.3, 2.0), (-0.4, 1.0)]
DOWN_ATOMS = [(-0.4, 1.0), (-0.1, 1.0)]
MODELS = {
    "merton": (st.ExpModelCharacteristics(1.0, 0.02, 0.2, st.normal_jumps(1.0, 0.0, 0.4)),
               lambda K, t: merton_call(1.0, K, t, 0.02, 0.2, 1.0, 0.0, 0.4)),
    "atomic_pure_jump": (st.ExpModelCharacteristics(1.0, 0.03, 0.0, st.atomic(ATOMS)),
                         lambda K, t: atomic_call(1.0, K, t, 0.03, 0.0, ATOMS)),
    "atomic_diffusion": (st.ExpModelCharacteristics(1.0, 0.0, 0.15, st.atomic(ATOMS)),
                         lambda K, t: atomic_call(1.0, K, t, 0.0, 0.15, ATOMS)),
    # r > 0 puts the strike S0 below the forward S0 e^(rt)
    "atomic_diffusion_rate": (st.ExpModelCharacteristics(1.0, 0.05, 0.15, st.atomic(ATOMS)),
                              lambda K, t: atomic_call(1.0, K, t, 0.05, 0.15, ATOMS)),
    # mostly downward jumps: the jumping paths end below the strikes just
    # under the forward, where a fixed coefficient of 1 on the control F e^J
    # (the put plus the exact forward) leaves 20 to 100 times the standard
    # error of the fitted one at K = 1
    "atomic_downward_rate": (st.ExpModelCharacteristics(1.0, 0.05, 0.2, st.atomic(DOWN_ATOMS)),
                             lambda K, t: atomic_call(1.0, K, t, 0.05, 0.2, DOWN_ATOMS)),
}
# the conditional kernel fits the coefficient of its control F e^J on the
# sample at every strike > 0, below the forward and above it
STRIKES = (0.8, 0.9, 1.0, 1.2)
# at t = 1e-3 no path of the downward model ends near 1.2: every call given
# J is 0 and so is the standard error
MODEL_STRIKES = {"atomic_downward_rate": (0.8, 0.9, 1.0)}


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
    ec, exact = MODELS[case]
    # every stream's Poisson mean is below the kernel crossover: a diffusion
    # puts the maturity on the conditional kernel
    assert _plan(ec, t).horizons[0].conditional == (ec.sigma > 0)
    cfg = st.SimConfig(n_paths=2**18 + 300, master_seed=1009)
    for K in MODEL_STRIKES.get(case, STRIKES):
        est = st.estimate_call(ec, t, K, cfg)
        price = exact(K, t)
        assert est.std_error > 0
        assert abs(est.value - price) <= 5 * est.std_error, (K, est, price)


@pytest.mark.parametrize("t", [1e-5, 1e-4])
@pytest.mark.parametrize("case", ["merton", "atomic_diffusion"])
def test_conditional_estimate_matches_exact_series_at_tiny_t(case, t):
    # with a diffusion and sparse streams each path's payoff is its
    # Black-Scholes price given its jump sum, and only the paths that jump
    # are visited. Each block of 2^16 paths stands for enough paths that
    # about 512 of them jump, so the 128 blocks of 2^23 paths check about
    # 65,536 jumping paths at either t and take well under a second
    ec, exact = MODELS[case]
    cfg = st.SimConfig(n_paths=2**23, master_seed=1013)
    for K in STRIKES:
        est = st.estimate_call(ec, t, K, cfg)
        price = exact(K, t)
        assert est.std_error > 0
        assert abs(est.value - price) <= 5 * est.std_error, (K, est, price)


def _plan(ec, t):
    return _SimulationPlan(ec, [t], st.SimConfig(n_paths=100), None)


PLAIN_ATOMS = [(0.1, 30.0), (-0.15, 100.0)]
# (model, t, exact price at strike K): the plain kernel's streams at Poisson
# means per path of 0.5 and up, which the tests above do not reach
PLAIN_MODELS = {
    # means 0.9 and 3 per path, no diffusion
    "atoms_without_diffusion": (
        st.ExpModelCharacteristics(1.0, 0.02, 0.0, st.atomic(PLAIN_ATOMS)), 0.03,
        lambda K: atomic_call(1.0, K, 0.03, 0.02, 0.0, PLAIN_ATOMS)),
    # mean 0.6: at or above the crossover a diffusion does not make the
    # maturity conditional
    "merton_intensity_20": (
        st.ExpModelCharacteristics(1.0, 0.0, 0.2, st.normal_jumps(20.0, 0.0, 0.4)), 0.03,
        lambda K: merton_call(1.0, K, 0.03, 0.0, 0.2, 20.0, 0.0, 0.4)),
}


@pytest.mark.parametrize("case", PLAIN_MODELS)
def test_plain_kernel_at_large_means_matches_exact_series(case):
    ec, t, exact = PLAIN_MODELS[case]
    plan = _plan(ec, t)
    assert not plan.horizons[0].conditional
    assert max(lam for lam, _ in plan.streams) * t >= _CONDITIONAL_BELOW
    cfg = st.SimConfig(n_paths=2**18 + 300, master_seed=1039)
    for K in (0.9, 1.0, 1.2):
        est = st.estimate_call(ec, t, K, cfg)
        price = exact(K)
        assert est.std_error > 0
        assert abs(est.value - price) <= 5 * est.std_error, (K, est, price)


def test_two_conditional_streams_match_exact_sum():
    # Poisson means 0.24 and 0.18 at t = 0.03: both streams are priced by the
    # conditional kernel, and about 4% of the paths jump on both, so the
    # clock's multinomial split of a path's count shows in the price
    atoms = [(0.3, 8.0), (-0.4, 6.0)]
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.15, st.atomic(atoms))
    assert _plan(ec, 0.03).horizons[0].conditional
    cfg = st.SimConfig(n_paths=2**18 + 300, master_seed=1021)
    for K in (0.9, 1.0, 1.2):
        est = st.estimate_call(ec, 0.03, K, cfg)
        price = atomic_call(1.0, K, 0.03, 0.0, 0.15, atoms)
        assert est.std_error > 0
        assert abs(est.value - price) <= 5 * est.std_error, (K, est, price)


def _fuzzed_atomic_shapes(count=8, seed=1031):
    """(atoms, t, r, sigma): 1 to 3 atoms with sizes in (-0.5, 0.5) and every
    stream's Poisson mean in (0.01, 0.5); sigma 0 draws the plain kernel's
    sparse counts, sigma > 0 prices by the conditional kernel's clock."""
    rng = np.random.default_rng(seed)
    shapes = []
    for _ in range(count):
        t = float(rng.choice([1e-3, 1e-2, 3e-2]))
        atoms = [(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.01, 0.5)) / t)
                 for _ in range(int(rng.integers(1, 4)))]
        shapes.append((atoms, t, float(rng.uniform(0.0, 0.05)),
                       float(rng.choice([0.0, 0.1, 0.25]))))
    return shapes


@pytest.mark.parametrize("shape", _fuzzed_atomic_shapes())
def test_fuzzed_atomic_shapes_match_exact_sum(shape):
    atoms, t, r, sigma = shape
    ec = st.ExpModelCharacteristics(1.0, r, sigma, st.atomic(atoms))
    assert _plan(ec, t).horizons[0].conditional == (sigma > 0)
    cfg = st.SimConfig(n_paths=2**18 + 300, master_seed=1033)
    for K in (0.9, 1.0, 1.2):
        est = st.estimate_call(ec, t, K, cfg)
        price = atomic_call(1.0, K, t, r, sigma, atoms)
        assert abs(est.value - price) <= 5 * est.std_error + 1e-12, (K, est, price)


def _gauss_panels(lo, hi, panels, nodes=20):
    """Composite Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def truncated_power_tail_call(K, t, alpha, c, eps, panels=24, u_max=100.0):
    """E (e^X - K)^+ for X = -comp t + the compound-Poisson sum of the jumps
    of c(y) |y|^-(1+alpha) dy with eps < |y| <= 1, comp the integral of
    e^y - 1 against that measure (so E e^X = 1).

    The characteristic exponent integrates over s = log |y|, where the
    density is smooth, on ``panels`` equal panels, each split further so
    that e^(i u y) turns by at most 8 radians on a piece up to u = u_max;
    the Lewis formula
    C = 1 - sqrt(K)/pi int_0^inf Re(e^(i u k) phi(u - i/2)) / (u^2 + 1/4) du,
    k = -log K, runs on panels of width 50 / panels and stops at u_max:
    beyond it |phi| has settled near exp(-t * total intensity), under 1e-5
    at the defaults, or decayed like exp(-t K_alpha c u^alpha) for a small
    cutoff. The matrix of e^(i u y) is formed 256 rows of u at a time."""
    edges = np.linspace(math.log(eps), 0.0, panels + 1)
    pieces = [_gauss_panels(a, b, max(1, math.ceil(u_max * (math.exp(b) - math.exp(a)) / 8.0)))
              for a, b in zip(edges[:-1], edges[1:])]
    s, ws = (np.concatenate(part) for part in zip(*pieces))
    mag = np.exp(s)
    y = np.concatenate([mag, -mag])
    # density times the Jacobian dy = |y| ds
    w = np.concatenate([ws * mag ** -alpha * np.array([c(v) for v in mag]),
                        ws * mag ** -alpha * np.array([c(-v) for v in mag])])
    comp = float(np.dot(w, np.expm1(y)))
    u, wu = _gauss_panels(0.0, u_max, math.ceil(panels * u_max / 50.0))
    total = 0.0
    for lo in range(0, u.size, 256):
        z = u[lo:lo + 256] - 0.5j
        psi = np.expm1(1j * np.outer(z, y)) @ w - 1j * z * comp
        integrand = (np.exp(-1j * z.real * math.log(K) + t * psi)).real / (z.real ** 2 + 0.25)
        total += float(np.dot(integrand, wu[lo:lo + 256]))
    return 1.0 - math.sqrt(K) / math.pi * total


def _c_linear(y):
    return 1.0 + 0.5 * y


# (the c given to stable_like, c as a function): a float c is constant
POWER_TAILS = {"constant_c": (1.0, lambda y: 1.0), "linear_c": (_c_linear, _c_linear)}


@pytest.mark.parametrize("c", POWER_TAILS)
def test_power_tail_fourier_price_is_resolved(c):
    # half as many nodes again in y and in u move the price by less than 1e-10
    for K in (1.1, 1.2):
        coarse = truncated_power_tail_call(K, 0.01, 1.5, POWER_TAILS[c][1], 0.01)
        fine = truncated_power_tail_call(K, 0.01, 1.5, POWER_TAILS[c][1], 0.01, panels=36)
        assert 0.0 < coarse and abs(fine - coarse) < 1e-10


@pytest.mark.parametrize("c", POWER_TAILS)
def test_euler_log_power_tail_matches_fourier_price(c):
    # constant c draws magnitudes from the closed-form inverse CDF, a
    # callable c from the alias table of a CDF table
    c_spec, c_fn = POWER_TAILS[c]
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.stable_like(1.5, c_spec))
    cfg = st.SimConfig(n_paths=2**18, master_seed=1019, small_jump_cutoff=0.01)
    for K in (1.1, 1.2):
        est = st.estimate_call(ec, 0.01, K, cfg)
        price = truncated_power_tail_call(K, 0.01, 1.5, c_fn, 0.01)
        assert est.std_error > 0
        assert abs(est.value - price) <= 5 * est.std_error, (K, est, price)


# cutoffs of the euler_log scheme far below the one above, for c = 0.1 at
# the money: the literal measure's characteristic function decays like
# exp(-t K_alpha c u^alpha), K_alpha = 3.34 at alpha 1.5: about e^-27 at
# u = 400, so the Lewis integral runs that far
SMALL_CUTOFFS = (1e-3, 5e-4)


@functools.lru_cache(maxsize=None)
def _small_cutoff_price(eps, panels=24, u_max=400.0):
    return truncated_power_tail_call(1.0, 0.01, 1.5, lambda y: 0.1, eps, panels, u_max)


@pytest.mark.parametrize("eps", SMALL_CUTOFFS)
def test_power_tail_fourier_price_is_resolved_at_small_cutoffs(eps):
    # half as many panels again in log |y|, and u_max 600 (2.25 times the
    # nodes in u), move the price by less than 1e-10
    coarse, fine = _small_cutoff_price(eps), _small_cutoff_price(eps, 36, 600.0)
    assert 0.0 < coarse and abs(fine - coarse) < 1e-10


@pytest.mark.parametrize("eps", SMALL_CUTOFFS)
def test_euler_log_cutoffs_match_fourier_price(eps):
    # each cutoff's estimate against the exact price of the law it draws.
    # Dropping the jumps below the cutoff with their compensation is a bias
    # the fitted control variate resolves: the exact prices at the two
    # cutoffs differ by 2.6e-4, about three standard errors of either
    # estimate, so the estimates are not checked against each other
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.stable_like(1.5, 0.1))
    cfg = st.SimConfig(n_paths=100000, master_seed=9, small_jump_cutoff=eps)
    est = st.estimate_call(ec, 0.01, 1.0, cfg)
    price = _small_cutoff_price(eps)
    assert est.std_error > 0
    assert abs(est.value - price) <= 2 * est.std_error, (est, price)
