"""Reference values the benchmark checks the program's outputs against.

Every function here is independent of ``smalltime``: closed forms, series
and direct SciPy quadrature on the model's definition. None of them is
timed.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import gamma
from scipy.stats import norm


def _quad(fn, a, b):
    v, _ = integrate.quad(fn, a, b, epsabs=1e-13, epsrel=1e-12, limit=500)
    return v


# ----------------------------------------------------------------------
# Merton jump-diffusion (normal log-jumps)

def merton_call(S0, K, t, r, sigma, lam, mu, s):
    """Discounted call price E e^{-rt} (S_t - K)^+ by the Merton series.

    Conditional on n jumps the log price is normal; the drift carries the
    exact compensation lam * (e^{mu + s^2/2} - 1), as in the simulator.
    """
    kbar = math.exp(mu + 0.5 * s * s) - 1.0
    total = 0.0
    weight = math.exp(-lam * t)
    n = 0
    while True:
        var = sigma * sigma * t + n * s * s
        fwd = S0 * math.exp((r - lam * kbar) * t + n * mu + 0.5 * n * s * s)
        sd = math.sqrt(var)
        d1 = (math.log(fwd / K) + 0.5 * var) / sd
        total += weight * (fwd * norm.cdf(d1) - K * norm.cdf(d1 - sd))
        n += 1
        weight *= lam * t / n
        if weight < 1e-18 and n > lam * t:
            break
    return math.exp(-r * t) * total


# ----------------------------------------------------------------------
# payoff integrals of declared jump laws (leading OTM / ITM slopes)

def normal_otm_slope(S0, K, lam, mu, s):
    """S0 * integral of (e^y - K/S0)^+ against lam * N(mu, s^2)."""
    k = math.log(K / S0)
    return S0 * lam * (math.exp(mu + 0.5 * s * s) * norm.cdf((mu + s * s - k) / s)
                       - math.exp(k) * norm.cdf((mu - k) / s))


def normal_itm_put(S0, K, lam, mu, s):
    """S0 * integral of (K/S0 - e^y)^+ against lam * N(mu, s^2)."""
    k = math.log(K / S0)
    return S0 * lam * (math.exp(k) * norm.cdf((k - mu) / s)
                       - math.exp(mu + 0.5 * s * s) * norm.cdf((k - mu - s * s) / s))


def laplace_otm_slope(S0, K, lam, b):
    """Payoff integral for zero-mean Laplace jumps of scale b < 1, K > S0."""
    k = math.log(K / S0)
    return S0 * lam * 0.5 * math.exp(k - k / b) * b / (1.0 - b)


def laplace_itm_put(S0, K, lam, b):
    """Put payoff integral for zero-mean Laplace jumps, K < S0."""
    k = math.log(K / S0)
    return S0 * lam * 0.5 * math.exp(k + k / b) * b / (1.0 + b)


def laplace_atm_fv(S0, lam, b):
    """S0 * integral of (e^y - 1)^+ for zero-mean Laplace jumps."""
    return S0 * lam * 0.5 * b / (1.0 - b)


def atomic_call(S0, K, atoms):
    return sum(lam * max(S0 * math.exp(y) - K, 0.0) for y, lam in atoms)


def atomic_put(S0, K, atoms):
    return sum(lam * max(K - S0 * math.exp(y), 0.0) for y, lam in atoms)


def stable_atm(S0, alpha, c0):
    """S0 * Gamma(1 - 1/alpha) * c0**(1/alpha) / pi."""
    return S0 * gamma(1.0 - 1.0 / alpha) * c0 ** (1.0 / alpha) / math.pi


def stable_part_call(S0, K, alpha, c):
    """Payoff integral of (S0 e^y - K)^+ against c(y) |y|^-(1+alpha) on
    [-1, 1], for K > S0."""
    k = math.log(K / S0)
    if k >= 1.0:
        return 0.0
    return _quad(lambda y: (S0 * math.exp(y) - K) * c(y) * y ** (-1.0 - alpha),
                 k, 1.0)


def stable_part_put(S0, K, alpha, c):
    """Payoff integral of (K - S0 e^y)^+ against the stable part, K < S0."""
    k = math.log(K / S0)
    if k <= -1.0:
        return 0.0
    return _quad(lambda y: (K - S0 * math.exp(y)) * c(y) * (-y) ** (-1.0 - alpha),
                 -1.0, k)


# ----------------------------------------------------------------------
# library-level forms

def singular_density_otm(S0, K, fn, hi):
    k = math.log(K / S0)
    return _quad(lambda y: (S0 * math.exp(y) - K) * fn(y), k, hi)


def singular_density_atm_fv(S0, fn, hi):
    """S0 * integral of (e^y - 1) fn(y) over (0, hi], where fn(y) has a
    |y|^-(1+beta) singularity with beta < 1; y = v^2 makes the integrand
    bounded."""
    return S0 * _quad(lambda v: 2.0 * v * math.expm1(v * v) * fn(v * v) if v > 0
                      else 0.0, 0.0, math.sqrt(hi))


def pushforward_upper_tail(u, f_bump, z0, factor, lam, mu, s):
    """nu-mass of {y : f(z0 + factor y) - f(z0) >= u} for the bump f =
    height exp(-(z - center)^2 / (2 width^2)), nu = lam N(mu, s^2), factor > 0.

    The level set is the interval where |z0 + factor y - center| <= r, with
    r = width sqrt(-2 ln((f(z0) + u) / height)); it is empty above the peak.
    """
    center, width, height = f_bump
    level = _bump(*f_bump)[0](z0) + u
    if level >= height:
        return 0.0
    r = width * math.sqrt(-2.0 * math.log(level / height))
    y1 = (center - r - z0) / factor
    y2 = (center + r - z0) / factor
    return lam * (norm.cdf((y2 - mu) / s) - norm.cdf((y1 - mu) / s))


# ----------------------------------------------------------------------
# generators (Dynkin identities)

def _bump(center, width, height):
    def g(x):
        return height * math.exp(-0.5 * ((x - center) / width) ** 2)

    def dg(x):
        return -g(x) * (x - center) / width ** 2

    def d2g(x):
        a = (x - center) / width
        return g(x) * (a * a - 1.0) / width ** 2

    return g, dg, d2g


def markov_generator(g_bump, f_bump, z0, b, sig, factor, lam, mu, s):
    """Generator of the one-dimensional Markov process Z, with full jump
    compensation, applied to h = g o f at z0: drift b, volatility sig, jumps
    z -> z + factor y with y ~ lam N(mu, s^2), and g, f Gaussian bumps.

    By Ito's formula this equals the generator of the image process f(Z)
    applied to g at f(z0), whatever convention that process's drift is
    reported in.
    """
    g, dg, d2g = _bump(*g_bump)
    f, df_, d2f_ = _bump(*f_bump)
    f0 = f(z0)
    df, d2f = df_(z0), d2f_(z0)
    dh = dg(f0) * df
    d2h = d2g(f0) * df * df + dg(f0) * d2f
    dens = norm(mu, s)

    def jump(y):
        j = factor * y
        return (g(f(z0 + j)) - g(f0) - dh * j) * lam * dens.pdf(y)

    lo, hi = mu - 12 * s, mu + 12 * s
    return dh * b + 0.5 * d2h * sig * sig + _quad(jump, lo, hi)


def time_change_generator(bump, x, b, sigma2, theta0, lam, mu, s):
    """theta0 times the Levy generator (mean-drift convention) on g at x."""
    g, dg, d2g = _bump(*bump)
    dens = norm(mu, s)

    def jump(y):
        return (g(x + y) - g(x) - y * dg(x)) * lam * dens.pdf(y)

    lo, hi = mu - 12 * s, mu + 12 * s
    return theta0 * (b * dg(x) + 0.5 * sigma2 * d2g(x) + _quad(jump, lo, hi))


def bump_value(bump, x):
    return _bump(*bump)[0](x)


# ----------------------------------------------------------------------
# pure-jump stable-like Monte Carlo schemes

def exact_stable_atm_call(S0, alpha, c0, t):
    """S0 E (e^X - 1)^+ for X = clip((c0 t)^{1/alpha} Z, -1, 1), Z symmetric
    alpha-stable with characteristic function exp(-|z|^alpha): the law the
    ``exact_stable_increment`` scheme draws for a pure stable-like model.

    E (e^X - 1)^+ = integral over x in (0, 1) of e^x P(Z > x / scale) dx, with
    P(Z > z) = 1/2 - (1/pi) integral of sin(u z) e^{-u^alpha} / u du; the x
    integral of e^x sin(v x) has a closed form, which leaves one integral.
    """
    scale = (c0 * t) ** (1.0 / alpha)
    e = math.e

    def inner(v):
        # (1/v) * integral over x in (0,1) of e^x sin(v x) dx, times the cf
        if v < 1e-6:
            core = 1.0
        else:
            core = (e * (math.sin(v) - v * math.cos(v)) + v) / (1.0 + v * v) / v
        return math.exp(-(scale * v) ** alpha) * core

    vmax = (60.0 ** (1.0 / alpha)) / scale
    edges = np.linspace(0.0, vmax, int(vmax / 50.0) + 2)
    total = sum(_quad(inner, a, b) for a, b in zip(edges[:-1], edges[1:]))
    return S0 * (0.5 * (e - 1.0) - total / math.pi)


def _composite_gauss(a, b, panels, order=50):
    """Nodes and weights of ``panels`` equal Gauss-Legendre panels on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return ((mid[:, None] + half[:, None] * x).ravel(),
            (half[:, None] * w).ravel())


class TruncatedStableLaw:
    """Law of X = -comp t + compound Poisson sum of the measure
    c(y) |y|^-(1+alpha) restricted to eps < |y| <= 1: what the ``euler_log``
    scheme draws for a pure stable-like model. ``comp`` is the integral of
    (e^y - 1) against that measure, so E e^X = 1.

    The jump integrals use composite Gauss-Legendre nodes in log |y|, where
    the integrand is smooth; 2000 nodes per side resolve the oscillation of
    e^{i u y} for |u| up to ``U_MAX``. Beyond ``U_MAX`` the modulus of the
    characteristic function has settled near exp(-t * total intensity), so
    the neglected part of the Lewis integral is below that over U_MAX.
    """

    U_MAX = 100.0

    def __init__(self, alpha, c, eps):
        s, wts = _composite_gauss(0.0, 1.0, 40)
        log_span = -math.log(eps)
        mag = eps * np.exp(s * log_span)  # eps .. 1
        jac = mag * log_span * wts
        ys, ws = [], []
        for sign in (1.0, -1.0):
            y = sign * mag
            dens = np.array([c(v) for v in y]) * mag ** (-1.0 - alpha)
            ys.append(y)
            ws.append(dens * jac)
        self.y = np.concatenate(ys)
        self.w = np.concatenate(ws)
        self.comp = float(np.sum(self.w * np.expm1(self.y)))

    def cf(self, w, t):
        """E exp(i w X) for a vector of complex w."""
        w = np.atleast_1d(w)
        psi = (np.exp(1j * np.outer(w, self.y)) - 1.0) @ self.w
        return np.exp(t * (psi - 1j * w * self.comp))

    def call(self, S0, K, t):
        """E (S0 e^X - K)^+ by the Lewis formula, with composite
        Gauss-Legendre quadrature over u in [0, U_MAX]."""
        kp = math.log(S0 / K)
        u, wts = _composite_gauss(0.0, self.U_MAX, 20)
        total = 0.0
        for lo in range(0, u.size, 100):
            uu = u[lo:lo + 100]
            vals = (np.exp(1j * uu * kp) * self.cf(uu - 0.5j, t)).real / (uu * uu + 0.25)
            total += float(np.dot(vals, wts[lo:lo + 100]))
        return S0 - math.sqrt(S0 * K) / math.pi * total
