"""Monte Carlo simulation of the exponential jump-diffusion at short horizons.

Simulation happens in log coordinates, so samples are strictly positive and
the drift carries the exact martingale compensation of the simulated jumps.
With frozen characteristics the terminal log increment is a Levy increment
and is drawn in a single shot; ``n_steps`` only controls the midpoint rule
used to integrate a stepwise deterministic rate.

Paths are partitioned into fixed blocks of 2**16 and block i draws from
``Philox(key=(master_seed, i))`` in a fixed order. ``price_grid`` reduces
each block to one partial of the whole maturity x strike grid
(``_Partial``), keeps no sample, and merges the partials in block order,
so every output is bit identical for any ``n_workers`` and memory stays at
about n_workers blocks whatever n_paths. ``estimate_call`` is its 1 x 1
grid, ``slope_rows`` one strike over all maturities, and strike 0 gives
the discounted forward.

A block prices each maturity with one of two kernels, chosen from the
model and the maturity alone, so each cell equals the ``estimate_call`` of
that cell alone:

* conditional, when sigma sqrt(t) > 0, the jumps are compound-Poisson
  streams alone (no stable increment) of positive total intensity and
  every stream's Poisson mean lam t is below ``_CONDITIONAL_BELOW``. Given
  its jump sum J a path's log price is Gaussian, so its payoff is replaced
  by the Black-Scholes price at the forward F e^J (conditional Monte
  Carlo, Glasserman 2003, section 4.5), whose variance is no larger
  (Rao-Blackwell). Only the paths that jump are priced
  (``_SimulationPlan.jump_sums``), so the cell of a block of n of the N
  paths stands for n' = max(n, ceil(n s / p)) paths, with
  s = max(``_JUMPING_SHARE``, ``_JUMPING_PATHS`` / N), p = 1 - e^-Lambda t
  and n' at most 2**53 (``_SimulationPlan.conditional_paths``). The
  estimate's ``n_paths`` is the sum of n' over the blocks, and its standard
  error that of so many paths. A maturity at which no jump moved a path
  raises ``InsufficientSignal``: its price at J = 0 has no error to report.
* plain, for every other maturity: the block prices exactly the samples
  ``simulate_terminal`` returns for it. Jump-free models stay plain on
  purpose, so that ``verify`` checks Black-Scholes independently.

Every cell with K > 0 subtracts a control variate (Glasserman 2003,
section 4.1) whose mean is exactly the forward E S_t = S0 e^(integral of
r): each path's F e^J in a conditional cell, its S_t in a plain one. The
estimate is mean(call) - beta mean(control - E S_t) with
beta = Cov(call, control) / Var(control) fitted on the merged totals,
never on one block, so its bias is O(1/n) and it does not depend on
n_workers; its standard error is that of the residual. The fitted beta
leaves the least residual on the sample, so one formula serves strikes on
both sides of the forward. Four kinds of cell keep beta = 0, the average
of the calls (``_Partial.fit``):

* a strike <= 0, whose payoff is the control itself: a fit would give the
  discounted forward with standard error 0 and end the martingale check of
  ``simulate`` without a strike;
* every cell under ``exact_stable_increment``, whose drift leaves out the
  compensation of the small jumps, so E S_t is not the forward; and every
  cell when the jump law is one atom, whose sample holds two jump sums, on
  which the call given J is affine in F e^J;
* a plain cell with fewer than ``_SIDE_PATHS`` paths on either side of the
  strike: a plain call is affine in S_t on each side, so the fit's residual
  lives on the rarer side (given J a conditional path lies on both sides);
* a fit that leaves at most 1e-12 of the M2 of the calls: the call is
  affine in the control on that sample, and a residual of rounding claims
  an error the samples do not carry.

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

docs/montecarlo.md holds how each kernel draws and the measurements that
chose its constants.
"""

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .compensators import em1_over, g2
from .errors import (ConfigError, CutoffTooCoarse, DomainError,
                     InsufficientSignal, InvariantViolation)
from .quadrature import quad_abs

_BLOCK = 1 << 16
# a lane's workspace has one block-long row each for the standard normals,
# the log price (then the price), the jump sum and the payoff
_GAUSSIAN, _PRICE, _JUMPS, _PAYOFF = range(4)
_WORKSPACE_ROWS = 4
# every stream's Poisson mean per path below which a maturity with a
# diffusion is priced by the conditional kernel. Above it most paths jump,
# so the conditional kernel prices almost every path, and whether the
# variance it removes pays for that depends on the jump law
# (docs/montecarlo.md)
_CONDITIONAL_BELOW = 0.5
# the share of a block's n paths that should jump on average in each of its
# conditional cells (``_SimulationPlan.conditional_paths``): the cost per
# unit variance of the ladder grid keeps falling as it grows, so the share
# is the largest one whose extra time per ``verify`` op stays small
# (docs/montecarlo.md, the share table)
_JUMPING_SHARE = 1.0 / 128
# the fewest paths that should jump on average in a conditional cell,
# summed over its blocks, so that its standard error rests on enough jump
# sums to be honest whatever n_paths
_JUMPING_PATHS = 1024
# the most paths one conditional cell draws from: its count stays an exact
# float and fits the count of ``rng.binomial`` when Lambda t is tiny
_MAX_CELL_PATHS = 1 << 53
# the fewest paths on each side of the strike, above it and at or below
# it, with which a cell fits its control. A plain call is affine in S_t on
# either side, so the fit's residual lives on the rarer side, and a handful
# of paths there claim a standard error they do not carry
_SIDE_PATHS = 256
# draws per pass of the CDF-table sampler (docs/montecarlo.md, measured table)
_TABLE_CHUNK = 1 << 14
# largest mean numpy's Poisson sampler accepts
_POISSON_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)

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
    """A discounted price with its iid standard error over ``n_paths``
    paths: ``cfg.n_paths`` for a maturity the plain kernel prices, and the
    paths its cells stand for, at least ``cfg.n_paths``, for one the
    conditional kernel prices (module docstring). ``simulate`` prints that
    count."""

    value: float
    std_error: float
    n_paths: int


def _stable_standard(u, e, alpha):
    """CMS transform of U ~ Uniform(-pi/2, pi/2), E ~ Exp(1) to a symmetric
    alpha-stable variate with characteristic function exp(-|z|^alpha)."""
    return (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / e) ** ((1.0 - alpha) / alpha))


def _alias_table(mass):
    """Walker's alias table of the cell probabilities ``mass`` (Vose 1991):
    slot j keeps cell j with probability ``keep[j]``, else gives cell
    ``alias[j]``. Only a cell whose share fills at least one slot becomes
    an alias, so a cell of zero mass is never drawn."""
    n = mass.size
    keep = (mass * (n / mass.sum())).tolist()
    alias = list(range(n))
    small = [j for j, q in enumerate(keep) if q < 1.0]
    large = [j for j, q in enumerate(keep) if q >= 1.0]
    while small and large:
        j, big = small.pop(), large[-1]
        alias[j] = big
        keep[big] = (keep[big] + keep[j]) - 1.0
        if keep[big] < 1.0:
            small.append(large.pop())
    # what is left keeps its own cell: its share is 1 up to rounding
    for j in small + large:
        keep[j] = 1.0
    return np.array(keep), np.array(alias)


def _table_sampler(grid, density_values):
    """Sampler ``(rng, size)`` of the normalized trapezoid CDF of density
    values (clamped at 0) tabulated on grid, linear between the nodes.

    Its law is that of the inversion ``np.interp(u, cdf, grid)``: cell i
    with probability cdf[i+1] - cdf[i], uniform inside it. Walker's alias
    method draws it in O(1) per draw with one uniform u each: the integer
    part of u n picks slot j of the n cells, and its fraction f both picks
    cell j (f < keep[j]) or its alias and places the draw inside that cell,
    as ``offset[2j + take] + slope[2j + take] * f``. The draw runs in place
    over chunks of ``_TABLE_CHUNK``, whose index and scratch rows are reused
    (docs/montecarlo.md)."""
    dens = np.maximum(np.asarray(density_values, dtype=float), 0.0)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))])
    if cdf[-1] <= 0:
        raise InvariantViolation("density has no mass on its support")
    cdf /= cdf[-1]
    keep, alias = _alias_table(np.diff(cdf))
    n = keep.size
    width = np.diff(grid)
    # the affine map of f in [0, keep) onto cell j at 2j, of f in
    # [keep, 1) onto cell alias[j] at 2j + 1; a branch never taken gets 0
    offset, slope = np.empty(2 * n), np.empty(2 * n)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope[0::2] = np.where(keep > 0.0, width / keep, 0.0)
        slope[1::2] = np.where(keep < 1.0, width[alias] / (1.0 - keep), 0.0)
    offset[0::2] = grid[:-1]
    offset[1::2] = grid[alias] - slope[1::2] * keep
    lo, hi = grid[0], grid[-1]

    def sampler(rng, size):
        out = rng.random(size)
        slot = np.empty(min(size, _TABLE_CHUNK), dtype=np.intp)
        take = np.empty(slot.size, dtype=bool)
        scratch = np.empty(slot.size)
        for start in range(0, size, _TABLE_CHUNK):
            f = out[start:start + _TABLE_CHUNK]
            j, t, w = slot[:f.size], take[:f.size], scratch[:f.size]
            f *= n
            np.copyto(j, f, casting="unsafe")  # truncates
            f -= j
            np.take(keep, j, out=w)
            np.greater_equal(f, w, out=t)
            j += j
            j += t
            np.take(slope, j, out=w)
            f *= w
            np.take(offset, j, out=w)
            f += w
            # rounding must not leave the table
            np.clip(f, lo, hi, out=f)
        return out

    return sampler


def _per_jump(sampler):
    """The ``sum_sampler`` hook of a per-jump draw ``sampler(rng, size)``:
    one draw for every jump of the block, summed per path."""
    def sum_sampler(rng, counts):
        n_jumps = int(counts.sum())
        if n_jumps == 0:
            return np.zeros(counts.size)
        draws = sampler(rng, n_jumps)
        owner = np.repeat(np.arange(counts.size), counts)
        return np.bincount(owner, weights=draws, minlength=counts.size)

    return sum_sampler


@functools.lru_cache(maxsize=256)
def _excess_cdf(mu):
    """Cumulative weights of N - 2 given N >= 2 for N ~ Poisson(mu), as
    multiples of the weight at its mode: entry i weighs mu^i / (i + 2)!
    over the mode's. The table ends where the rest weighs less than 2^-64
    of the mode; past the mode the ratios mu / (i + 3) of successive
    weights fall, so the rest is below a geometric sum."""
    mode = max(0, math.floor(mu) - 2)
    log_mu = math.log(mu)
    log_mode = math.lgamma(mode + 3) - mode * log_mu
    weights, i = [], 0
    while True:
        w = math.exp(i * log_mu - math.lgamma(i + 3) + log_mode)
        weights.append(w)
        r = mu / (i + 3)  # the largest ratio of the weights after entry i
        if r < 1.0 and w * r < (1.0 - r) * 2.0**-64:
            cdf = np.cumsum(weights)
            cdf.flags.writeable = False  # shared by every call at this mu
            return cdf
        i += 1


def _ztp_counts(rng, mu, m):
    """m iid counts of N given N >= 1 for N ~ Poisson(mu).

    Up to a mean of 50 they take O(k) draws for the k of them that are at
    least 2: k ~ Binomial(m, q) with q = P(N >= 2 | N >= 1) =
    1 - mu / (e^mu - 1), those k come first, each 2 plus an inversion of
    ``_excess_cdf``, and every other count is 1. Above 50, where q is 1 to
    double precision and the table would grow like mu, they are Poisson(mu)
    draws with every 0 drawn again until it is not: a 0 has probability
    e^-mu < 2e-22, and the redraw keeps the law exact."""
    if mu > 50.0:
        counts = rng.poisson(mu, m)
        zero = np.flatnonzero(counts == 0)
        while zero.size:
            counts[zero] = rng.poisson(mu, zero.size)
            zero = zero[counts[zero] == 0]
        return counts
    counts = np.ones(m, dtype=np.int64)
    if m == 0:
        return counts
    # q = (e^mu - 1 - mu) / (e^mu - 1) without cancellation
    q = min(mu * g2(mu) / em1_over(mu), 1.0)
    k = rng.binomial(m, q)
    if k:
        cdf = _excess_cdf(mu)
        u = rng.random(k)
        u *= cdf[-1]
        # rounding may put u at the table's end: it then takes the last entry
        counts[:k] += 1 + np.searchsorted(cdf[:-1], u, side="right")
    return counts


def _poisson_counts(rng, mu, n):
    """n iid Poisson(mu) counts as ``(paths, counts)``: path ``paths[i]``
    has count ``counts[i]`` >= 1, every other path has 0.

    Only the paths that jump get a count: their number is
    Binomial(n, 1 - e^-mu), their indices a uniform subset, and their
    counts come from ``_ztp_counts``."""
    m = rng.binomial(n, -math.expm1(-mu))
    # choice returns its sample in random order, so the counts of 2 or more
    # that _ztp_counts puts first land on a uniform subset of the paths
    return rng.choice(n, m, replace=False), _ztp_counts(rng, mu, m)


def _finite_activity(m):
    """Compound-Poisson streams simulating an atomic or finite-activity
    density compensator exactly, with their exponential compensation."""
    if m.form == "atomic":
        streams = [(lam, lambda rng, counts, y=y: y * counts)
                   for y, lam in zip(m.locations, m.masses)]
        return streams, float(np.sum(m.masses * np.expm1(m.locations)))
    if m.form != "density":
        raise ConfigError(f"cannot simulate form {m.form!r} as compound Poisson")
    lam = m.total_intensity()
    if not np.isfinite(lam):
        raise ConfigError(
            "density compensator with infinite activity cannot be "
            "simulated as compound Poisson; declare it stable-like")
    sum_sampler = m.sum_sampler
    if sum_sampler is None:
        lo, hi = m.support()
        ys = np.linspace(max(lo, -60.0), min(hi, 60.0), 4097)
        sum_sampler = _per_jump(_table_sampler(ys, [m.fn(y) for y in ys]))
    compensation = (m.integrate(math.expm1, tol=1e-11) if m.exp_moments is None
                    else m.exp_moments[0])
    return [(lam, sum_sampler)], compensation


def _truncated_power_tail(m, eps):
    """Compound-Poisson streams for the stable-like jumps with |y| > eps, one
    per side, with their exponential compensation; each side's magnitudes
    come from the closed-form inverse CDF when c is constant, else from a
    table."""
    _check_cutoff(m, eps)
    a = m.alpha

    def inverse_cdf(rng, size):
        # in place: a block draws several jumps per path, so each temporary
        # here is a few MB
        u = rng.uniform(0.0, 1.0, size)
        np.multiply(u, eps ** -a - 1.0, out=u)
        np.subtract(eps ** -a, u, out=u)
        return np.power(u, -1.0 / a, out=u)

    grid = np.linspace(eps, 1.0, 4097)
    streams, compensation = [], 0.0
    for sign in (+1, -1):
        mags = inverse_cdf
        if m.constant_c is None:
            mags = _table_sampler(grid, [m.c(sign * v) * v ** (-1.0 - a) for v in grid])
        # sign the per-path sums: one multiply per path instead of per jump
        side_sum = _per_jump(mags)
        streams.append((m.side_mass(sign * eps),
                        lambda rng, counts, side_sum=side_sum, sign=sign:
                        sign * side_sum(rng, counts)))
        side, _ = quad_abs(lambda v: math.expm1(sign * v) * m.c(sign * v) * v ** (-1.0 - a),
                           eps, 1.0, 1e-9)
        compensation += side
    return streams, compensation


def _stable_increment(rng, m, t, out):
    """The small jumps of the stable-like m over [0, t] into ``out``, one
    clipped symmetric stable variate per path; their missing exponential
    compensation is o(t**(1/alpha))."""
    u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, out.size)
    e = rng.standard_exponential(out.size)
    scale = (m.c0 * t) ** (1.0 / m.alpha)
    return np.clip(scale * _stable_standard(u, e, m.alpha), -1.0, 1.0, out=out)


def _jump_law(m, scheme, eps):
    """The jump law of a simulation plan as ``(streams, compensation,
    stable)``: the compound-Poisson streams ``(intensity, sum_sampler)`` in
    draw order, the exponential compensation of what they draw, and the
    stable-like measure whose small jumps ``exact_stable_increment`` draws
    after them (``_stable_increment``), else None."""
    if m.is_empty():
        return [], 0.0, None
    exact = scheme == _EXACT_STABLE
    if m.form != "stable_like":
        if exact:
            raise ConfigError(
                "exact_stable_increment applies only to stable-like jumps")
        return (*_finite_activity(m), None)
    if exact and m.constant_c is None:
        raise ConfigError("exact_stable_increment requires a constant c")
    streams, compensation = ([], 0.0) if exact else _truncated_power_tail(m, eps)
    if not m.residual.is_empty():
        residual_streams, residual_compensation = _finite_activity(m.residual)
        streams += residual_streams
        compensation += residual_compensation
    return streams, compensation, m if exact else None


def _check_cutoff(m, eps):
    discarded = m.side_second_moment(eps) + m.side_second_moment(-eps)
    stable_total = m.side_second_moment(1.0) + m.side_second_moment(-1.0)
    total = stable_total + m.residual.integrate(lambda y: y * y, tol=1e-10)
    if discarded > 0.10 * total:
        raise CutoffTooCoarse(
            f"cutoff {eps} discards {discarded / total:.1%} of the jump "
            "variance (limit 10%)")


class _Horizon(NamedTuple):
    t: float
    log_drift: float  # of the log price, jump compensation included
    discount: float
    log_forward: float  # log E[S_t | jump sum 0]
    forward: float  # E S_t = S0 e^(integral of r), the exact mean of the control
    sd: float  # sigma sqrt(t)
    conditional: bool  # priced by the conditional kernel (module docstring)


class _SimulationPlan:
    """Frozen per-model sampling recipe for a list of horizons, each marked
    plain or conditional (module docstring), holding the jump law of
    ``_jump_law`` and both of its Poisson clocks: ``stream_sums`` draws
    each stream's own sparse counts for the plain kernel, ``jump_sums`` the
    superposed clock for the conditional one. The intra-block draw order is
    fixed: for the plain horizons the Gaussian (shared by all of them), then
    from the same generator state for each of them the streams in order and
    the stable increment; for a conditional horizon the superposed clock
    from the block's initial state."""

    def __init__(self, ec, ts, cfg, rate_fn):
        for t in ts:
            if not t > 0:
                raise DomainError(f"horizon must be positive, got {t}")
        self.sigma = ec.sigma
        self.streams, compensation, self.stable = _jump_law(
            ec.jumps, cfg.scheme, cfg.small_jump_cutoff)
        intensities = [float(lam) for lam, _ in self.streams]
        max_intensity = max(intensities, default=0.0)
        # the conditional kernel's superposed Poisson clock (``jump_sums``);
        # a total of 0, streams that cannot jump, leaves every maturity plain
        self.clock_intensity = sum(intensities)
        self.clock_weights = [lam / (self.clock_intensity or 1.0) for lam in intensities]
        # the control's mean is the forward and the fit can measure its own
        # error: not with the stable increment's uncompensated draw, nor with
        # a single atom (module docstring)
        self.controlled = self.stable is None and not (
            ec.jumps.form == "atomic" and np.unique(ec.jumps.locations).size == 1)
        half_variance = 0.5 * ec.variance()
        self.x0 = math.log(ec.S0)
        self.horizons = []
        for t in ts:
            if max_intensity * t > _POISSON_MAX:
                raise DomainError(
                    f"Poisson mean {max_intensity * t:g} at t = {t!r} exceeds "
                    f"the sampler's limit {_POISSON_MAX:g}")
            rate_integral = _rate_integral(ec, t, cfg, rate_fn)
            log_drift = rate_integral - half_variance * t - compensation * t
            if not math.isfinite(log_drift):
                raise DomainError(f"log drift at t = {t!r} is not finite")
            try:
                forward = ec.S0 * math.exp(rate_integral)
            except OverflowError:
                forward = math.inf
            sd = self.sigma * math.sqrt(t)
            self.horizons.append(_Horizon(
                t, log_drift, math.exp(-rate_integral),
                self.x0 + rate_integral - compensation * t, forward, sd,
                sd > 0 and self.clock_intensity > 0 and self.stable is None
                and max_intensity * t < _CONDITIONAL_BELOW))

    def draw_block(self, rng, ws, horizons):
        """Yield one block of samples of S_t for each of the given horizons,
        in order, each in the same workspace row; a block has ws.shape[1]
        paths."""
        z, x, jumps = ws[_GAUSSIAN], ws[_PRICE], ws[_JUMPS]
        if self.sigma > 0 and horizons:
            rng.standard_normal(out=z)
        after_gaussian = rng.bit_generator.state
        for h in horizons:
            rng.bit_generator.state = after_gaussian
            if self.sigma > 0:
                np.multiply(z, h.sd, out=x)
                x += self.x0 + h.log_drift
            else:
                x.fill(self.x0 + h.log_drift)
            if self.streams:
                x += self.stream_sums(rng, h.t, jumps)
            if self.stable is not None:
                x += _stable_increment(rng, self.stable, h.t, jumps)
            yield np.exp(x, out=x)

    def conditional_paths(self, t, n, n_total):
        """The paths a conditional cell of a block of n of the n_total paths
        at horizon t draws from and stands for: n, or ceil(n s / p) when
        that is more, with s = max(``_JUMPING_SHARE``, ``_JUMPING_PATHS`` /
        n_total) and p = 1 - e^(-Lambda t) the chance that a path jumps, so
        that on average n s of them jump and the blocks together at least
        ``_JUMPING_PATHS``; at most 2**53. It reads only n and n_total, so
        the cells do not depend on n_workers."""
        p = -math.expm1(-self.clock_intensity * t)
        jumping = n * max(_JUMPING_SHARE, _JUMPING_PATHS / n_total)
        if p * _MAX_CELL_PATHS <= jumping:
            return _MAX_CELL_PATHS
        return max(n, math.ceil(jumping / p))

    def stream_sums(self, rng, t, out):
        """The plain kernel's jump sums at horizon t of a block of out.size
        paths, into ``out``: each stream in turn draws the counts of only
        the paths that jump (``_poisson_counts``) and adds their sums."""
        out.fill(0.0)
        for lam, sum_sampler in self.streams:
            paths, counts = _poisson_counts(rng, lam * t, out.size)
            out[paths] += sum_sampler(rng, counts)
        return out

    def jump_sums(self, rng, t, n):
        """The jump sums at horizon t of the paths of a block of n that jump
        (at least one jump, though the sizes may cancel), in no fixed order.

        The streams are drawn as one superposed Poisson clock of intensity
        Lambda, the sum of theirs: m ~ Binomial(n, 1 - e^(-Lambda t)) paths
        jump, with counts from ``_ztp_counts``, and with several streams one
        multinomial draw splits each path's count among them in proportion
        to their intensities. No path index is drawn: the estimator is a
        symmetric function of the jump sums, whose joint law this is."""
        mu = self.clock_intensity * t
        counts = _ztp_counts(rng, mu, rng.binomial(n, -math.expm1(-mu)))
        if len(self.streams) == 1:
            return self.streams[0][1](rng, counts)
        split = rng.multinomial(counts, self.clock_weights)
        sums = np.zeros(counts.size)
        for (_, sum_sampler), stream_counts in zip(self.streams, split.T):
            sums += sum_sampler(rng, stream_counts)
        return sums


def _rate_integral(ec, t, cfg, rate_fn):
    if rate_fn is None:
        return ec.r * t
    dt = t / cfg.n_steps
    mids = (np.arange(cfg.n_steps) + 0.5) * dt
    return float(sum(rate_fn(s) for s in mids) * dt)


def _for_each_block(cfg, work):
    """Call ``work(i, rng, lo, hi, ws)`` for every block i of paths [lo, hi)
    with its generator ``Philox(key=(master_seed, i))`` and the first
    hi - lo columns of its lane's workspace.

    Blocks are striped over min(n_workers, n_blocks) lanes. The calling
    thread runs lane 0, so a single worker starts no thread; handing its
    blocks to a pool thread measured 5-10% slower (2 vCPUs).
    """
    n = cfg.n_paths
    n_blocks = (n + _BLOCK - 1) // _BLOCK
    lanes = min(cfg.n_workers, n_blocks)

    def run_lane(lane):
        ws = np.empty((_WORKSPACE_ROWS, _BLOCK))
        for i in range(lane, n_blocks, lanes):
            lo = i * _BLOCK
            hi = min(lo + _BLOCK, n)
            key = np.array([cfg.master_seed, i], dtype=np.uint64)
            work(i, np.random.Generator(np.random.Philox(key=key)), lo, hi,
                 ws[:, :hi - lo])

    with ThreadPoolExecutor(max_workers=cfg.n_workers) as pool:
        helpers = pool.map(run_lane, range(1, lanes))
        run_lane(0)
        list(helpers)


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
        identical (ec, t, cfg) regardless of n_workers, and equal to the
        samples the estimators reduce at a horizon they price with the
        plain kernel (module docstring).
    """
    plan = _SimulationPlan(ec, [t], cfg, rate_fn)
    out = np.empty(cfg.n_paths)

    def fill(i, rng, lo, hi, ws):
        out[lo:hi] = next(plan.draw_block(rng, ws, plan.horizons))

    _for_each_block(cfg, fill)
    return out


class _Partial:
    """The moments of one block, or of blocks merged, over the whole (t, K)
    grid of ``price_grid``: per maturity ``count``, the paths its cells
    stand for; per cell ``mean``, the means of the call and of the control
    minus its exact mean, ``m2``, their 2 x 2 matrix of M2s and co-moment,
    and ``sides``, the paths above the strike and at or below it. Only a
    plain cell counts its sides: given J a conditional path lies on both,
    so no side of its cell is rare."""

    def __init__(self, n_ts, n_Ks, n):
        self.count = np.full((n_ts, 1), float(n))
        self.mean = np.zeros((2, n_ts, n_Ks))
        self.m2 = np.zeros((2, 2, n_ts, n_Ks))
        self.sides = np.full((2, n_ts, n_Ks), math.inf)

    def merge(self, b):
        """Fold in the partial b of the next block: the Chan-Golub-LeVeque
        update, each maturity with its own count, and the sides by sums."""
        total = self.count + b.count
        delta = b.mean - self.mean
        self.mean = self.mean + delta * (b.count / total)
        self.m2 = self.m2 + b.m2 + delta[:, None] * delta * (self.count * b.count / total)
        self.count = total
        self.sides = self.sides + b.sides

    def fit(self, plan, Ks):
        """Each cell's discounted Estimate, one list per horizon of plan:
        the calls less beta times the control, beta = Cov / Var of the
        merged moments, or the calls alone (beta = 0) where one of four
        rules says the fit cannot measure its own error (module docstring).
        A conditional maturity whose control has M2 0, one at which no jump
        moved a path, raises InsufficientSignal."""
        (call, control), ((m2_call, co), (_, m2_control)) = self.mean, self.m2
        for h, m2_h in zip(plan.horizons, m2_control):
            if h.conditional and (m2_h == 0).any():
                raise InsufficientSignal(f"no jump moved a path at t = {h.t!r}: the "
                                         "conditional estimate has no error to report")
        beta = co / m2_control
        fitted = m2_call - beta * co
        # a strike <= 0: the payoff is the control itself, a fit leaves nothing
        alone = (~(np.asarray(Ks) > 0)
                 # the stable increment's control misses its mean; one atom: two jump sums
                 | (not plan.controlled)
                 # a plain call is affine in S_t on each side: a few paths carry the residual
                 | (self.sides.min(axis=0) < _SIDE_PATHS)
                 # the residual is rounding (the call is affine in the control), or undefined
                 | ~(fitted > 1e-12 * m2_call))
        value = np.where(alone, call, call - beta * control)
        se = np.sqrt(np.where(alone, m2_call, fitted) / (self.count - 1))
        return [[Estimate(h.discount * float(v), h.discount * float(s) / math.sqrt(n), int(n))
                 for v, s in zip(values, ses)]
                for h, n, values, ses in zip(plan.horizons, self.count[:, 0], value, se)]


def _call_given_jumps(part, j, n, h, jump_sums, Ks):
    """Fill maturity j of the partial of a conditional block at horizon h,
    whose cells stand for n paths, for every strike in Ks: the means of the
    n calls E[(S_t - K)^+ | jump sum] and of the n controls F e^J - E S_t,
    the M2 of the calls, their co-moment with the controls and the M2 of
    the controls.

    Given its jump sum J a path's S_t is lognormal with mean F e^J,
    F = e^(h.log_forward), and log standard deviation h.sd, so its call is
    the Black-Scholes price and a strike <= 0 gives F e^J minus the strike.
    The jumping paths have the given jump sums and the other paths share
    the call and the control at J = 0, so each moment costs O(m) for the
    m paths that jump."""
    # imported here, so that commands without a conditional cell never load scipy
    from scipy.special import ndtr
    mean, m2 = part.mean[:, j], part.m2[:, :, j]
    part.count[j] = n
    x = np.concatenate(([0.0], jump_sums))
    x += h.log_forward
    g = np.exp(x)
    x /= h.sd
    # entry 0 is the value at J = 0 of the n - m paths that do not jump:
    # the sums count it once and ``rest`` adds the others
    rest = n - g.size
    e = g - h.forward
    mean[1] = (e.sum() + rest * e[0]) / n
    e -= mean[1, 0]
    m2[1, 1] = np.dot(e, e) + rest * e[0] ** 2
    for k, K in enumerate(Ks):
        if K > 0:
            d1 = x - (math.log(K) / h.sd - 0.5 * h.sd)
            c = ndtr(d1)
            c *= g
            d1 -= h.sd
            ndtr(d1, out=d1)
            d1 *= K
            c -= d1
            # rounding must not make a far out-of-the-money payoff negative
            np.maximum(c, 0.0, out=c)
        else:
            c = g - K
        mean[0, k] = (c.sum() + rest * c[0]) / n
        c -= mean[0, k]
        m2[0, 0, k] = np.dot(c, c) + rest * c[0] ** 2
        m2[0, 1, k] = m2[1, 0, k] = np.dot(c, e) + rest * c[0] * e[0]


def price_grid(ec, ts, Ks, cfg, rate_fn=None):
    """Discounted estimates of E (S_t - K)^+ for every t in ts and K in Ks
    from one streaming pass (see the module docstring), as one list of
    Estimates per t; strike 0 gives the discounted forward E S_t.

    Inputs beyond the range of floats give non-finite estimates and no
    numpy warning."""
    plan = _SimulationPlan(ec, ts, cfg, rate_fn)
    plain = [j for j, h in enumerate(plan.horizons) if not h.conditional]
    conditional = [(j, h) for j, h in enumerate(plan.horizons) if h.conditional]
    partials = {}

    def reduce_block(i, rng, lo, hi, ws):
        n = hi - lo
        start = rng.bit_generator.state
        pay = ws[_PAYOFF]
        part = _Partial(len(ts), len(Ks), n)
        # numpy's error state is per thread, so each lane sets its own
        with np.errstate(over="ignore", invalid="ignore"):
            samples = plan.draw_block(rng, ws, [plan.horizons[j] for j in plain])
            # the control S_t - E S_t, in the jump-sum row the draw is done with
            control = ws[_JUMPS]
            for j, s in zip(plain, samples):
                np.subtract(s, plan.horizons[j].forward, out=control)
                part.mean[1, j] = control.sum() / n
                control -= part.mean[1, j, 0]
                part.m2[1, 1, j] = np.dot(control, control)
                for k, K in enumerate(Ks):
                    np.subtract(s, K, out=pay)
                    np.maximum(pay, 0.0, out=pay)
                    part.sides[0, j, k] = np.count_nonzero(pay)
                    part.mean[0, j, k] = pay.sum() / n
                    pay -= part.mean[0, j, k]
                    part.m2[0, 1, j, k] = part.m2[1, 0, j, k] = np.dot(pay, control)
                    part.m2[0, 0, j, k] = np.square(pay, out=pay).sum()
                part.sides[1, j] = n - part.sides[0, j]
            for j, h in conditional:
                rng.bit_generator.state = start
                paths = plan.conditional_paths(h.t, n, cfg.n_paths)
                _call_given_jumps(part, j, paths, h, plan.jump_sums(rng, h.t, paths), Ks)
        partials[i] = part

    _for_each_block(cfg, reduce_block)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # in block order, so the output does not depend on n_workers
        for i in range(1, len(partials)):
            partials[0].merge(partials[i])
        return partials[0].fit(plan, Ks)


def _check_strike(K):
    if not K > 0:
        raise DomainError(f"strike must be positive, got {K}")


def estimate_call(ec, t, K, cfg, rate_fn=None):
    """Discounted Monte Carlo estimate of the call price E (S_t - K)^+.

    Reduces block by block, so memory does not grow with n_paths: with the
    plain kernel the payoffs of the samples simulate_terminal draws for the
    same inputs, with the conditional kernel each path's Black-Scholes
    price given its jump sum, either less its fitted control (module
    docstring). Each strike fits its own control coefficient, so estimates
    at different strikes are ordered only up to sampling error.
    """
    _check_strike(K)
    return price_grid(ec, [t], [K], cfg, rate_fn)[0][0]


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
    ratio (C(t) - constant_term) / t**p.

    One streaming pass prices every maturity; each estimate equals
    estimate_call's at the same inputs.
    """
    _check_strike(K)
    ts = sorted(t_grid, reverse=True)
    rows = []
    for t, (est,) in zip(ts, price_grid(ec, ts, [K], cfg)):
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
    within two standard errors of zero, or when fewer than two have a
    positive excess and a positive standard error: an exact estimate (one
    with no path variance, such as a maturity at which no path jumps) has
    no finite regression weight.
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
    if len(xs) < 2:
        raise InsufficientSignal(
            f"{len(xs)} of {len(rows)} estimates have a positive excess and "
            "a positive standard error; the exponent regression needs 2")
    xs, ys, ws = map(np.asarray, (xs, ys, ws))
    xbar = float(np.sum(ws * xs) / np.sum(ws))
    ybar = float(np.sum(ws * ys) / np.sum(ws))
    sxx = float(np.sum(ws * (xs - xbar) ** 2))
    slope = float(np.sum(ws * (xs - xbar) * (ys - ybar)) / sxx)
    return SlopeStudy(rows, p_hypothesis, slope, 1.0 / math.sqrt(sxx),
                      constant_term)
