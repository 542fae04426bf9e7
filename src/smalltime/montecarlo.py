"""Monte Carlo simulation of the exponential jump-diffusion at short horizons.

Simulation happens in log coordinates, so samples are strictly positive and
the drift carries the exact martingale compensation of the simulated jumps.
With frozen characteristics the terminal log increment is a Levy increment
and is drawn in a single shot; ``n_steps`` only controls the midpoint rule
used to integrate a stepwise deterministic rate.

Randomness is counter based: paths are partitioned into fixed blocks of
2**16 and block i draws from ``Philox(key=(master_seed, i))`` in a fixed
order, so results are bit identical no matter how blocks are scheduled
across workers.

Schemes for stable-like jumps:

* ``euler_log``: jumps with |y| > cutoff are compound Poisson from the
  declared measure; smaller jumps are dropped together with their martingale
  compensation (the discounted price stays a martingale exactly). The
  CutoffTooCoarse guard rejects cutoffs discarding more than 10% of the jump
  variance.
* ``exact_stable_increment``: for constant c, the small-jump part over [0, t]
  is drawn as one symmetric alpha-stable variate with characteristic function
  exp(-c(0) t |z|^alpha) (Chambers-Mallows-Stuck transform), clipped to
  [-1, 1] to respect the declared jump-size bound; the clip and the missing
  exponential compensation are both o(t**(1/alpha)).
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, CutoffTooCoarse, DomainError,
                     InsufficientSignal, InvariantViolation)
from .quadrature import quad_abs

_BLOCK = 1 << 16

SCHEMES = ("euler_log", "exact_stable_increment")
_EULER_LOG, _EXACT_STABLE = SCHEMES


@dataclass
class SimConfig:
    n_paths: int
    n_steps: int = 1
    master_seed: int = 0
    small_jump_cutoff: float = 0.01
    scheme: str = _EULER_LOG
    n_workers: int = 1

    def __post_init__(self):
        if self.n_paths < 100:
            raise InvariantViolation(f"n_paths must be >= 100, got {self.n_paths}")
        if self.n_steps < 1:
            raise InvariantViolation("n_steps must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise InvariantViolation("master_seed must fit in 64 unsigned bits")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.scheme == _EULER_LOG and not 0.0 < self.small_jump_cutoff <= 1.0:
            raise InvariantViolation("small_jump_cutoff must lie in (0, 1]")
        if self.n_workers < 1:
            raise InvariantViolation("n_workers must be >= 1")


@dataclass
class Estimate:
    value: float
    std_error: float
    n_paths: int


def _stable_standard(u, e, alpha):
    """CMS transform of U ~ Uniform(-pi/2, pi/2), E ~ Exp(1) to a symmetric
    alpha-stable variate with characteristic function exp(-|z|^alpha)."""
    return (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / e) ** ((1.0 - alpha) / alpha))


def _exp_moment(m):
    """Integral of (e^y - 1) against a finite-activity compensator piece."""
    if m.is_empty():
        return 0.0
    if m.form == "atomic":
        return float(np.sum(m.masses * np.expm1(m.locations)))
    cached = getattr(m, "_exp_moment_cache", None)
    if cached is None:
        cached = m.integrate(math.expm1, tol=1e-11)
        m._exp_moment_cache = cached
    return cached


def _cdf_table(density_values, grid):
    """Normalized trapezoid CDF of density values (clamped at 0) on grid."""
    dens = np.maximum(np.asarray(density_values, dtype=float), 0.0)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))])
    if cdf[-1] <= 0:
        raise InvariantViolation("density has no mass on its support")
    return cdf / cdf[-1]


def _inversion_sampler(m, grid_size=4097):
    """Quantile-table sampler for a density compensator without one."""
    lo, hi = m.support()
    lo, hi = max(lo, -60.0), min(hi, 60.0)
    ys = np.linspace(lo, hi, grid_size)
    cdf = _cdf_table([m.fn(y) for y in ys], ys)

    def sampler(rng, size):
        return np.interp(rng.uniform(0.0, 1.0, size), cdf, ys)

    return sampler


class _CompoundPoisson:
    """Finite-activity jump part: intensity, sampler, exact compensation."""

    def __init__(self, m):
        if m.form == "atomic":
            self.kind = "atomic"
            self.locations = m.locations
            self.intensities = m.masses
        elif m.form == "density":
            lam = m.total_intensity()
            if not np.isfinite(lam):
                raise ConfigError(
                    "density compensator with infinite activity cannot be "
                    "simulated as compound Poisson; declare it stable-like")
            params = m.family_params
            self.kind = "normal" if (m.family == "normal" and params) else "generic"
            self.intensity = lam
            if self.kind == "normal":
                # sum of N iid normals given N is normal with scaled moments
                self.mean = params["mean"]
                self.std = params["std"]
            else:
                self.sampler = m.sampler or _inversion_sampler(m)
        else:
            raise ConfigError(f"cannot simulate form {m.form!r} as compound Poisson")
        self.compensation = _exp_moment(m)

    def draw(self, rng, n, t):
        if self.kind == "atomic":
            total = np.zeros(n)
            for y, lam in zip(self.locations, self.intensities):
                total += y * rng.poisson(lam * t, n)
            return total
        counts = rng.poisson(self.intensity * t, n)
        if self.kind == "normal":
            z = rng.standard_normal(n)
            return self.mean * counts + self.std * np.sqrt(counts) * z
        total_jumps = int(counts.sum())
        if total_jumps == 0:
            return np.zeros(n)
        draws = self.sampler(rng, total_jumps)
        owner = np.repeat(np.arange(n), counts)
        return np.bincount(owner, weights=draws, minlength=n)


class _TruncatedPowerTail:
    """Compound-Poisson representation of the stable-like part above a cutoff."""

    def __init__(self, m, eps):
        self.alpha = m.alpha
        self.eps = float(eps)
        a = m.alpha
        self.lam = {sign: m.side_mass(sign * eps) for sign in (+1, -1)}
        self.cdfs = None  # constant c: closed-form inversion in _magnitudes
        if m.constant_c is None:
            self.grid = np.linspace(self.eps, 1.0, 4097)
            self.cdfs = {sign: _cdf_table([m.c(sign * v) * v ** (-1.0 - a)
                                           for v in self.grid], self.grid)
                         for sign in (+1, -1)}
        comp_pos, _ = quad_abs(
            lambda v: math.expm1(v) * m.c(v) * v ** (-1.0 - a), eps, 1.0, 1e-9)
        comp_neg, _ = quad_abs(
            lambda v: math.expm1(-v) * m.c(-v) * v ** (-1.0 - a), eps, 1.0, 1e-9)
        self.compensation = comp_pos + comp_neg

    def _magnitudes(self, rng, size, sign):
        u = rng.uniform(0.0, 1.0, size)
        if self.cdfs is None:
            a, eps = self.alpha, self.eps
            return (eps ** -a - u * (eps ** -a - 1.0)) ** (-1.0 / a)
        return np.interp(u, self.cdfs[sign], self.grid)

    def draw(self, rng, n, t):
        total = np.zeros(n)
        for sign, lam in self.lam.items():
            counts = rng.poisson(lam * t, n)
            k = int(counts.sum())
            if k:
                mags = self._magnitudes(rng, k, sign)
                owner = np.repeat(np.arange(n), counts)
                total += sign * np.bincount(owner, weights=mags, minlength=n)
        return total


class _SimulationPlan:
    """Frozen per-model sampling recipe with a fixed intra-block draw order."""

    def __init__(self, ec, t, cfg, rate_integral):
        self.sigma = ec.sigma
        self.t = t
        m = ec.jumps
        self.parts = []
        self.stable_scale = 0.0
        compensation = 0.0
        if not m.is_empty():
            if m.form == "stable_like":
                if cfg.scheme == _EXACT_STABLE:
                    if m.constant_c is None:
                        raise ConfigError(
                            "exact_stable_increment requires a constant c")
                    self.stable_scale = (m.c0 * t) ** (1.0 / m.alpha)
                    self.stable_alpha = m.alpha
                else:
                    _check_cutoff(m, cfg.small_jump_cutoff)
                    tail = _TruncatedPowerTail(m, cfg.small_jump_cutoff)
                    self.parts.append(tail)
                    compensation += tail.compensation
                if not m.residual.is_empty():
                    cp = _CompoundPoisson(m.residual)
                    self.parts.append(cp)
                    compensation += cp.compensation
            else:
                if cfg.scheme == _EXACT_STABLE:
                    raise ConfigError(
                        "exact_stable_increment applies only to stable-like jumps")
                cp = _CompoundPoisson(m)
                self.parts.append(cp)
                compensation += cp.compensation
        self.log_drift = rate_integral - 0.5 * ec.sigma**2 * t - compensation * t
        self.x0 = math.log(ec.S0)

    def draw_block(self, rng, n):
        x = np.full(n, self.x0 + self.log_drift)
        if self.sigma > 0:
            x += self.sigma * math.sqrt(self.t) * rng.standard_normal(n)
        for part in self.parts:
            x += part.draw(rng, n, self.t)
        if self.stable_scale > 0:
            u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, n)
            e = rng.standard_exponential(n)
            z = _stable_standard(u, e, self.stable_alpha)
            x += np.clip(self.stable_scale * z, -1.0, 1.0)
        return np.exp(x)


def _check_cutoff(m, eps):
    discarded = m.side_second_moment(eps) + m.side_second_moment(-eps)
    stable_total = m.side_second_moment(1.0) + m.side_second_moment(-1.0)
    resid_var = 0.0
    if not m.residual.is_empty():
        resid_var = m.residual.integrate(lambda y: y * y, tol=1e-10)
    total = stable_total + resid_var
    if discarded > 0.10 * total:
        raise CutoffTooCoarse(
            f"cutoff {eps} discards {discarded / total:.1%} of the jump "
            "variance (limit 10%)")


def _rate_integral(ec, t, cfg, rate_fn):
    if rate_fn is None:
        return ec.r * t
    dt = t / cfg.n_steps
    mids = (np.arange(cfg.n_steps) + 0.5) * dt
    return float(sum(rate_fn(s) for s in mids) * dt)


def simulate_terminal(ec, t, cfg, rate_fn=None):
    """Draw cfg.n_paths samples of the terminal price S_t.

    Parameters
    ----------
    ec : ExpModelCharacteristics
    t : float
        Horizon, > 0.
    cfg : SimConfig
    rate_fn : callable, optional
        Stepwise deterministic rate s -> r(s); integrated with a midpoint
        rule over cfg.n_steps steps. Defaults to the constant ec.r.

    Returns
    -------
    numpy.ndarray
        Samples of S_t, strictly positive, in path order. Bit identical for
        identical (ec, t, cfg) regardless of n_workers.
    """
    if t <= 0:
        raise DomainError(f"horizon must be positive, got {t}")
    plan = _SimulationPlan(ec, t, cfg, _rate_integral(ec, t, cfg, rate_fn))
    n = cfg.n_paths
    out = np.empty(n)
    n_blocks = (n + _BLOCK - 1) // _BLOCK

    def run_block(i):
        lo = i * _BLOCK
        hi = min(lo + _BLOCK, n)
        key = np.array([cfg.master_seed, i], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        out[lo:hi] = plan.draw_block(rng, hi - lo)

    if cfg.n_workers > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=cfg.n_workers) as pool:
            list(pool.map(run_block, range(n_blocks)))
    else:
        for i in range(n_blocks):
            run_block(i)
    return out


def estimate_call(ec, t, K, cfg, rate_fn=None):
    """Discounted Monte Carlo estimate of the call price E (S_t - K)^+.

    Uses the same sample set as simulate_terminal for the same inputs, so
    estimates at different strikes are pathwise monotone.
    """
    if K <= 0:
        raise DomainError(f"strike must be positive, got {K}")
    samples = simulate_terminal(ec, t, cfg, rate_fn)
    disc = math.exp(-_rate_integral(ec, t, cfg, rate_fn))
    return discounted_estimate(np.maximum(samples - K, 0.0), disc)


def discounted_estimate(values, discount):
    """Discounted sample mean of ``values`` with its standard error."""
    value = discount * float(np.mean(values))
    se = discount * float(np.std(values, ddof=1)) / math.sqrt(values.size)
    return Estimate(value, se, values.size)


@dataclass
class SlopeRow:
    t: float
    estimate: float
    std_error: float
    ratio: float
    ratio_std_error: float


@dataclass
class SlopeStudy:
    rows: list
    p_hypothesis: float
    exponent: float
    exponent_std_error: float
    constant_term: float = 0.0


def slope_rows(ec, K, t_grid, p, cfg, constant_term=0.0):
    """Call estimates over t_grid, largest maturity first, each with its
    ratio (C(t) - constant_term) / t**p."""
    rows = []
    for t in sorted(t_grid, reverse=True):
        est = estimate_call(ec, t, K, cfg)
        scale = t ** p
        rows.append(SlopeRow(t, est.value, est.std_error,
                             (est.value - constant_term) / scale,
                             est.std_error / scale))
    return rows


def slope_study(ec, K, t_grid, p_hypothesis, cfg, constant_term=0.0):
    """Convergence table C(t)/t^p plus an empirical exponent regression.

    ``t_grid`` must contain at least four maturities inside (0, 0.1]
    spanning two decades. For in-the-money studies pass the intrinsic value
    as ``constant_term``; ratios and the regression then use C(t) minus it.
    The empirical exponent is the weighted least squares slope of
    log(C - constant_term) against log t with weights 1/variance.

    Raises InsufficientSignal when more than half of the estimates are
    within two standard errors of zero.
    """
    ts = sorted(float(t) for t in t_grid)
    if len(ts) < 4:
        raise DomainError("t_grid needs at least 4 points")
    if ts[0] <= 0 or ts[-1] > 0.1:
        raise DomainError("t_grid must lie in (0, 0.1]")
    if ts[-1] / ts[0] < 100.0 * (1.0 - 1e-12):
        raise DomainError("t_grid must span at least two decades")
    rows = slope_rows(ec, K, ts, p_hypothesis, cfg, constant_term)
    weak = sum(1 for r in rows
               if r.estimate - constant_term <= 2.0 * r.std_error)
    if weak > len(rows) / 2:
        raise InsufficientSignal(
            f"{weak} of {len(rows)} estimates are within 2 std errors of zero")
    xs, ys, ws = [], [], []
    for r in rows:
        excess = r.estimate - constant_term
        if excess > 0 and r.std_error > 0:
            xs.append(math.log(r.t))
            ys.append(math.log(excess))
            ws.append((excess / r.std_error) ** 2)
    xs, ys, ws = map(np.asarray, (xs, ys, ws))
    xbar = float(np.sum(ws * xs) / np.sum(ws))
    ybar = float(np.sum(ws * ys) / np.sum(ws))
    sxx = float(np.sum(ws * (xs - xbar) ** 2))
    slope = float(np.sum(ws * (xs - xbar) * (ys - ybar)) / sxx)
    return SlopeStudy(rows, p_hypothesis, slope, 1.0 / math.sqrt(sxx),
                      constant_term)
