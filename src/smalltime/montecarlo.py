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

Estimates stream: ``price_grid`` prices a whole maturity x strike grid in
one pass and keeps no sample. Each block reduces every (t, K) cell to a
partial stored under its block index: the count, the mean and the M2 (sum
of squared deviations) of the payoffs, the mean and M2 of their control
(below) and the co-moment of payoff and control, and the paths on each
side of the strike. The count is one per maturity: the block's paths for
a plain one, the paths its cells stand for (below) for a conditional one.
After all lanes finish the partials are merged in block order with the
Chan-Golub-LeVeque update, each maturity with its own count, the
co-moment like the M2s and the sides by sums, so the output is byte
identical for any ``n_workers`` and memory stays at about n_workers blocks
whatever n_paths. ``estimate_call`` is the 1 x 1 grid, ``slope_rows`` one
strike over all maturities, and strike 0 gives the discounted forward.

A block prices each maturity with one of two kernels. The rule reads only
the model and the maturity:

* conditional, when sigma sqrt(t) > 0, the jump law is compound-Poisson
  streams alone (no stable increment, below) and every stream's Poisson
  mean lam t is below ``_CONDITIONAL_BELOW`` = 0.5 (its comment gives the
  reason). Given
  its jump sum J a path's log price is Gaussian, so its payoff is replaced
  by its expectation given J: the Black-Scholes price at the forward
  F e^J, with F = E S_t / E e^J (conditional Monte Carlo, Glasserman 2003,
  section 4.5). The block restores its initial generator state and draws
  the jump sums from one superposed Poisson clock
  (``_SimulationPlan.jump_sums``), with no normals and no path index: with
  Lambda the sum of the stream intensities, m ~ Binomial(n', p) of n'
  paths jump, p = 1 - e^-Lambda t, their counts are zero-truncated
  Poisson(Lambda t) draws (``_ztp_counts``), and with several streams one
  multinomial draw splits each count among them in proportion to their
  intensities (superposition and thinning of Poisson processes). It prices
  only those m paths; the other n' - m share the price at J = 0, so the
  partial of the n' conditional payoffs costs O(m) and needs no row of
  length n'. The partial is a symmetric function of the n' jump sums,
  whose joint law the clock draws exactly, so no path needs an index: the
  estimator is the iid average of the n' payoffs with its iid standard
  error, is unbiased, and averaging the calls given J has a variance no
  larger than the plain one (Rao-Blackwell). Its draws are not those of
  the plain kernel.

  A cell of a block of n of the N = ``cfg.n_paths`` paths stands for
  n' = max(n, ceil(n s / p)) paths, with s = max(``_JUMPING_SHARE``,
  ``_JUMPING_PATHS`` / N) and p = 1 - e^-Lambda t
  (``_SimulationPlan.conditional_paths``), so that on average n s of them
  jump: 1/128 of the block's paths, and 1024 over the blocks of the cell
  at least. n' reads only n and N, so the output does not depend on
  n_workers, and it is at most 2**53, which keeps the count an exact float
  and the binomial draw in range when Lambda t is tiny. A path that does
  not jump costs nothing, so the cell prices its jumping paths only. The
  estimate's ``n_paths`` is then the sum of n' over the blocks, at least
  ``cfg.n_paths``, and its standard error is that of so many paths.

  The share is the largest whose ``verify`` op on the ``mc_merton_ladder``
  grid stays within about 10% of its time at s = 1/256: the op's cost per
  unit variance keeps falling to 1/32, but the op takes 8% longer at 1/128
  and 43% at 1/64 (the share table below). The floor keeps the standard
  error honest at small n_paths: with the share alone a cell of 100 paths
  rests on a handful of jump sums (Merton at t = 0.05, K = 1.1: z-scores
  against the exact series with sd 2427 over 300 seeds, two of them at
  standard error 0), with 1024 jumping paths their sd is 1.01 (CHANGES.md).

  The share table, as ``tools/sampler_costs.py --repeat 25 --number 40
  --seeds 64`` prints it (2 shared vCPUs): in ms the ladder grid's
  ``price_grid`` at K = 1.1 and one in-process ``verify`` at K = 1.1, the
  relative standard error at t = 1e-3 at each strike (median of 64 seeds),
  and the op's time times the squared relative SE averaged over the
  strikes, relative to s = 1/256:

      =====  =======  =========  ======  ======  ======  ======  ======  ==============
      share  grid ms  verify ms  K=0.8   K=0.9   K=1     K=1.1   K=1.2   op time x SE^2
      =====  =======  =========  ======  ======  ======  ======  ======  ==============
      1/256  6.85     8.21       0.0321  0.0265  0.0011  0.0161  0.0193  1.00
      1/128  7.17     8.85       0.0228  0.0188  0.0008  0.0114  0.0136  0.54
      1/64   9.21     11.76      0.0160  0.0133  0.0005  0.0080  0.0096  0.36
      1/32   13.14    16.09      0.0113  0.0094  0.0004  0.0057  0.0068  0.25
      =====  =======  =========  ======  ======  ======  ======  ======  ==============

* plain, for every other maturity: the block draws the standard normals
  once for all plain maturities (each scales the same vector by
  sigma sqrt(t)), snapshots the generator state, and for each maturity
  restores that state before drawing the jumps, so the maturity sees
  exactly the samples ``simulate_terminal`` returns for it.

Either way a maturity's realisation does not depend on the rest of the
grid, so each cell equals the ``estimate_call`` of that cell alone.
Jump-free models stay plain on purpose: their conditional estimate would
be the exact Black-Scholes price with standard error 0, and ``verify``
would no longer check Black-Scholes independently.

Every cell with a strike K > 0 then subtracts a control variate
(Glasserman 2003, section 4.1) whose mean is exactly the forward
E S_t = S0 e^(integral of r) (``_Horizon.forward``): each path's F e^J in
a conditional cell, its S_t in a plain one. Both kernels accumulate the
control minus the forward, so no sum of order 1 rounds a small value. The
estimate is mean(call) - beta mean(control - E S_t) with
beta = Cov(call, control) / Var(control) taken from the merged totals,
never from one block, so its bias is O(1/n) and the output stays byte
identical for any n_workers. Its M2 is the residual one, the M2 of the
calls minus beta times the co-moment, divided by n - 1 as for every other
cell (cells where that is only rounding keep beta = 0, below). The fitted
beta leaves the least residual of all on the sample, so one formula
serves strikes on both sides of the forward.

* Conditional cells: beta = 0 is the average of the calls given J and
  beta = 1 the average of the puts given J plus the exact forward minus
  the strike (put-call parity given J). Against the fixed rule beta = 1
  below the forward and 0 above it, on Merton (sigma 0.2, normal jumps
  N(0, 0.4) at intensity 1, 2**18 paths, 6 seeds, t = 1e-3 and 0.03) the
  standard error is 0.89 to 0.91 of that rule's at K = 0.8 and 0.9, 0.43
  to 0.47 at K = 1.0 with r = 0 and 0.87 to 0.89 with r = 0.05, and 0.45
  to 0.52 at K = 1.1 and 1.2. With mostly downward jumps (atoms -0.4 and
  -0.1 at intensity 1 each, r = 0.05) it is 0.25 to 0.31 at K = 0.8 and
  0.9 and 0.01 to 0.05 at K = 1.0, where beta = 1 leaves the variance of
  the jumping paths that end below the strike.
* Plain cells: on the ``euler_log`` models of the ``mc_stable`` benchmark
  (alpha 1.5, cutoff 0.01, t = 0.01, 2**18 paths, seeds 0 to 3) the
  variance is 0.32 to 0.33 of the calls' alone at K = 1.1 and 0.42 to 0.43
  at K = 1.2 with c = 1, and 0.27 and 0.35 to 0.36 with c(y) = 1 + y/2.

Four kinds of cell keep beta = 0, the average of the calls:

* a strike <= 0, whose payoff is the control itself: beta = 1 would give
  the exact discounted forward with standard error 0 and end the
  martingale check of ``simulate`` without a strike;
* every strike when the jump law is one atom. At short horizons almost no
  path jumps twice, so the sample holds two jump sums, on which the call
  given J is affine in F e^J: the fit leaves a residual of 0 and claims a
  standard error of 0 that the samples do not carry (one up atom of 0.3
  at intensity 1, sigma 0.2, t = 1e-3, K = 1.1, 2**20 paths, seed 3:
  2.49430e-4 +- 4.1e-14 against the series value 2.49498e-4; the calls
  alone give 2.48409e-4 +- 3.9e-6). The price of the rule: with one atom
  at -0.4 (r = 0.05) the calls have 1.54 to 1.66 times the standard error
  of beta = 1 at K = 0.8 (0.01 to 0.49 times it at K = 0.9 and 1.0);
* every strike under ``exact_stable_increment``, whose drift leaves out
  the exponential compensation of the small jumps, so E S_t is not the
  forward: with alpha 1.5, c = 1 and 2**20 paths, E S_t - 1 is
  8.1e-4 +- 4e-5 at t = 1e-3 and 8.2e-3 +- 1.4e-4 at t = 1e-2, against
  at-the-money prices of 8.6e-3 and 4.0e-2, so a fitted beta of about 0.5
  would bias them by 5 to 10%;
* a cell with fewer than ``_SIDE_PATHS`` = 256 paths on either side of
  the strike (above it, and at or below it). A plain call is affine in
  S_t on each side, so the fit's residual lives on the rarer side, and a
  handful of paths there claim a standard error they do not carry: with
  two down atoms (-0.1 and -0.2 at intensity 1, sigma 0, r = 0,
  t = 0.01, K = 0.75, 2**16 paths, 300 seeds), where 2 to 14 paths end
  below K, the z-scores against the exact series have sd 3.5 and minimum
  -28.9 without the floor, sd 1.05 and minimum -2.66 with it. Given J a
  conditional path's S_t lies on both sides of every strike and its call
  is affine in F e^J on neither, so a conditional cell counts as having no
  rare side.

The same holds for any sample on which the call is affine in the control,
for instance one in which a single path jumps, or one whose calls are all
deep in the money: a fit whose residual is at most 1e-12 of the M2 of the
calls, which is rounding, keeps beta = 0.

``simulate_terminal`` always draws plain samples. At short horizons almost
no path jumps (97 to 99.9% of the paths on the t <= 0.03 grid at
intensity 1), so a conditional maturity costs little: one ``verify`` of
the README Merton spec (2**20 paths, four maturities, one strike,
in-process) takes a median of 9 to 11 ms, against 60 to 65 ms with every
maturity plain, and 16 ms when each stream drew its own sparse counts and
path indices (two runs of 40 calls each, 2 shared vCPUs). Most of that
gain is cost per path; the variance falls only about 1.2x there, because
the paths that jump carry most of it. The share of jumping paths turns
that low cost into variance.

Each lane owns one workspace, four block-long rows allocated once per
call, and the plain kernel writes into it in place, in this order: the
standard normals (``standard_normal(out=)``); per maturity, the log price
(sigma sqrt(t) z, then plus x0 and the log drift, or a constant fill when
sigma = 0); the sums of all streams into the zeroed jump-sum row, added to
the log price at once, then the stable increment, if any, the same way;
``exp`` in place; the control S_t - E S_t into the jump-sum row; then the
payoff row per strike. A fresh 512 KB array per
step instead had glibc map and trim pages in every block:
40,960 minor page faults per 4-maturity 2**20-path Merton grid, against
992 with the workspace (fresh processes, ``getrusage``).

A compound-Poisson stream of intensity lam draws its block's counts only
for the paths that jump (``_poisson_counts``), at every Poisson mean per
path mu = lam t: their number is Binomial(n, 1 - e^-mu), the paths a
uniform subset (``rng.choice``), their counts zero-truncated Poisson
draws, and the ``sum_sampler`` hook gets only those counts. At short
horizons mu is small (at most 0.03 on a t <= 0.03 grid at intensity 1), so
the block costs O(n mu) instead of O(n). At large mu almost every path
jumps, and this way still costs less than one ``rng.poisson(mu)`` draw per
path: at mu = 6.66 that took 6.54 ms for the counts against 4.20 this way,
and 17.49 against 12.23 ms with the closed-form power tail (runs of
``tools/sampler_costs.py``, whose per-stream table CHANGES.md keeps).

The zero-truncated counts (``_ztp_counts``, shared with the conditional
clock) cost O(k) draws for the k of them that are 2 or more: k ~
Binomial(m, q) with q = P(N >= 2 | N >= 1) = 1 - mu / (e^mu - 1), each of
those is 2 plus an inversion of a short table of N - 2 given N >= 2,
built once per mu, and every other count is 1. Those k come first; the
random order of ``rng.choice`` puts them on a uniform subset of the paths.
Above mu = 50, where q is 1 to double precision and the table would grow
like mu, the counts are ``rng.poisson(mu)`` draws with every 0 drawn
again, so the table never has more than 129 entries. Per block of 2**16
paths at mu = 0.001, 0.003, 0.01, 0.03 and 0.3, ``_poisson_counts`` takes
13, 18, 35, 60 and 210 us, of which the counts (the binomial draw for m
included) take 3, 5, 9, 10 and 53 us; with one first-arrival uniform and
an array-mean ``rng.poisson`` per jumping path it took 27, 34, 62, 114 and
696 us (fastest of 15 x 200 calls, best of four runs, 2 shared vCPUs). The
rest is ``rng.choice``, which the conditional clock does not call.

The power-tail streams of stable-like models (mu of about 6.7 at t = 0.01,
cutoff 0.01) draw the same way: all but about 0.1% of their paths jump.
Still allocated per block: the path indices and the counts, what the hooks
return, the per-jump owner index of ``_per_jump``, and one row of per-jump
draws per power-tail side or CDF table, each transformed in place (the
CDF table's in chunks, below).

The Laplace row draws each path's sum as the difference of two Gamma draws
(``laplace_jumps``). In an earlier run, summing one Laplace draw per jump
of the paths that jump instead took 0.03, 0.25, 1.57, 2.83, 3.49, 4.56 and
22.40 ms, against the Laplace row of the per-stream table (CHANGES.md):
the Gamma pair is about as fast up to mu = 0.5, up to 17% slower
at 0.7 and 1, twice as fast at 6.66, and it allocates per path, not per
jump.

Jump sizes without a closed-form sampler come from a CDF table: a
density's without ``sum_sampler``, and each side of the power tail when c
is a callable. ``_table_sampler`` draws them by Walker's alias method, O(1)
per draw, in the law of the former ``np.interp`` inversion of the table.
That inversion's binary search over 4097 nodes in random order cost 33.0
ms per side of a 2**16-path block at t = 0.01 (about 436,000 jumps,
callable c), against 6.7 ms now, the 4.1 ms of the Philox uniforms
included in both; in the per-stream table the two power-tail rows now
cost alike. The draw runs in place over chunks of ``_TABLE_CHUNK`` draws with
reused index and scratch rows; per side of that block, in ms (fastest of
15, 2 shared vCPUs):

    ===========  ====  ====  ====  ====  =====  =====  =====  ===============
    chunk        1024  2048  4096  8192  16384  32768  65536  whole (436,000)
    ===========  ====  ====  ====  ====  =====  =====  =====  ===============
    alias draw   13.4  9.2   8.1   6.7   6.7    6.7    7.3    15.7
    ===========  ====  ====  ====  ====  =====  =====  =====  ===============

Unchunked, its block-long index and scratch rows also raise the peak RSS
of six callable-c ``estimate_call`` at 2**18 paths from 91.6 to 98.2 MB
(93.9 MB with the inversion).

A plan holds its jump law as three plain values (``_jump_law``):

* the compound-Poisson streams ``(intensity, sum_sampler)``, in draw
  order: one per atom of an atomic measure, one for a finite-activity
  density (its ``sum_sampler``, else draws from a CDF table summed per path
  by ``_per_jump``), one per side of the truncated stable-like tail, then
  those of a stable-like residual. ``sum_sampler(rng, counts)`` returns,
  per entry i, the sum of counts[i] iid jump sizes (0 for a count of 0);
  the plain kernel hands it the counts of the paths that jump
  (``_SimulationPlan.stream_sums``), the conditional one that stream's
  share of the clock's counts, zeros included;
* their exponential compensation, the integral of e^y - 1 against the
  simulated measure;
* the stable-like measure whose small jumps ``exact_stable_increment``
  draws after the streams (``_stable_increment``), else None.

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

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

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
# diffusion is priced by the conditional kernel (module docstring). Above it
# most paths jump, so the conditional kernel prices almost every path, and
# whether the variance it removes pays for that depends on the jump law.
# Conditional over plain work (time x SE^2; 2**18 paths, strikes 0.8 to
# 1.2, fastest time and median SE of 6 seeds, 2 shared vCPUs): 0.14 to 0.53
# for Merton (sigma 0.2, N(0, 0.4) jumps at intensity 20, t = 0.03, mean
# 0.6; 49 against 19 ms), but 0.25 to 2.56, a loss at K >= 1, for three
# atoms (0.1 at intensity 30, -0.1 at 20, -0.3 at 5, sigma 0.15, t = 0.05,
# means up to 1.5; 128 against 28 ms). No benchmark workload prices a
# maturity with a diffusion on the plain side, so a new value could not be
# measured: every maturity keeps the kernel it had when this value also
# chose how counts were drawn
_CONDITIONAL_BELOW = 0.5
# the share of a block's n paths that should jump on average in each of its
# conditional cells (``_SimulationPlan.conditional_paths``): the cost per
# unit variance of the ladder grid falls all the way to 1/32, so the share
# is the largest one whose extra time per ``verify`` op stays small (the
# module docstring's share table)
_JUMPING_SHARE = 1.0 / 128
# the fewest paths that should jump on average in a conditional cell,
# summed over its blocks, so that its standard error rests on enough jump
# sums to be honest whatever n_paths (module docstring)
_JUMPING_PATHS = 1024
# the most paths one conditional cell draws from: its count stays an exact
# float and fits the count of ``rng.binomial`` when Lambda t is tiny
_MAX_CELL_PATHS = 1 << 53
# the fewest paths on each side of the strike, above it and at or below
# it, with which a cell fits its control. A plain call is affine in S_t on
# either side, so the fit's residual lives on the rarer side: two down
# atoms (-0.1 and -0.2 at intensity 1, sigma 0, t = 0.01, K = 0.75, 2**16
# paths, 2 to 14 of them below K) gave z-scores against the exact series
# with sd 3.5 and minimum -28.9 over 300 seeds without this floor, sd 1.05
# and minimum -2.66 with it (module docstring)
_SIDE_PATHS = 256
# draws per pass of the CDF-table sampler (module docstring, measured table)
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
    (module docstring)."""
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
        # the total is 0 only for a lone stream of intensity 0
        self.clock_intensity = sum(intensities)
        self.clock_weights = [lam / (self.clock_intensity or 1.0) for lam in intensities]
        # the control's mean is the forward and the fit can measure its own
        # error: not with the stable increment's uncompensated draw, nor with
        # a single atom (module docstring)
        jumps = ec.jumps
        self.controlled = self.stable is None and not (
            jumps.form == "atomic" and np.unique(jumps.locations).size == 1)
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
                sd > 0 and bool(self.streams) and self.stable is None
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


def _call_given_jumps(n, h, jump_sums, Ks, mean, m2):
    """Partials of a conditional block at horizon h for every strike in Ks:
    the means of the n calls E[(S_t - K)^+ | jump sum] and of the n controls
    F e^J - E S_t into ``mean[:, k]``, and the M2 of the calls, their
    co-moment with the controls and the M2 of the controls into ``m2[:, k]``.

    Given its jump sum J a path's S_t is lognormal with mean F e^J,
    F = e^(h.log_forward), and log standard deviation h.sd, so its call is
    the Black-Scholes price and a strike <= 0 gives F e^J minus the strike.
    The jumping paths have the given jump sums and the other paths share
    the call and the control at J = 0, so each moment costs O(m) for the
    m paths that jump. ``price_grid`` turns the merged partials into the
    estimate (module docstring)."""
    x = np.concatenate(([0.0], jump_sums))
    x += h.log_forward
    g = np.exp(x)
    x /= h.sd
    # entry 0 is the value at J = 0 of the n - m paths that do not jump:
    # the sums count it once and ``rest`` adds the others
    rest = n - g.size
    e = g - h.forward
    control = (e.sum() + rest * e[0]) / n
    e -= control
    m2_control = np.dot(e, e) + rest * e[0] ** 2
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
        call = (c.sum() + rest * c[0]) / n
        c -= call
        mean[0, k], mean[1, k] = call, control
        m2[0, k] = np.dot(c, c) + rest * c[0] ** 2
        m2[1, k] = np.dot(c, e) + rest * c[0] * e[0]
        m2[2, k] = m2_control


def price_grid(ec, ts, Ks, cfg, rate_fn=None):
    """Discounted estimates of E (S_t - K)^+ for every t in ts and K in Ks
    from one streaming pass (see the module docstring), as one list of
    Estimates per t; strike 0 gives the discounted forward E S_t.

    Inputs beyond the range of floats give non-finite estimates and no
    numpy warning."""
    plan = _SimulationPlan(ec, ts, cfg, rate_fn)
    plain = [j for j, h in enumerate(plan.horizons) if not h.conditional]
    conditional = [j for j, h in enumerate(plan.horizons) if h.conditional]
    partials = {}

    def reduce_block(i, rng, lo, hi, ws):
        n = hi - lo
        start = rng.bit_generator.state
        pay = ws[_PAYOFF]
        # per maturity the paths its cells stand for; per cell the means of
        # the call and of the control minus its exact mean, the M2 of the
        # call, the co-moment and the M2 of the control, and the paths above
        # the strike and at or below it, which a plain cell counts: given J
        # a conditional path lies on both sides, so no side of its cell is
        # rare (module docstring)
        count = np.full((len(ts), 1), float(n))
        mean = np.zeros((2, len(ts), len(Ks)))
        m2 = np.zeros((3, len(ts), len(Ks)))
        sides = np.full((2, len(ts), len(Ks)), math.inf)
        # numpy's error state is per thread, so each lane sets its own
        with np.errstate(over="ignore", invalid="ignore"):
            samples = plan.draw_block(rng, ws, [plan.horizons[j] for j in plain])
            # the control S_t - E S_t, in the jump-sum row the draw is done with
            control = ws[_JUMPS]
            for j, s in zip(plain, samples):
                np.subtract(s, plan.horizons[j].forward, out=control)
                mean[1, j] = control.sum() / n
                control -= mean[1, j, 0]
                m2[2, j] = np.dot(control, control)
                for k, K in enumerate(Ks):
                    np.subtract(s, K, out=pay)
                    np.maximum(pay, 0.0, out=pay)
                    sides[0, j, k] = np.count_nonzero(pay)
                    mean[0, j, k] = pay.sum() / n
                    pay -= mean[0, j, k]
                    m2[1, j, k] = np.dot(pay, control)
                    m2[0, j, k] = np.square(pay, out=pay).sum()
                sides[1, j] = n - sides[0, j]
            for j in conditional:
                h = plan.horizons[j]
                rng.bit_generator.state = start
                paths = plan.conditional_paths(h.t, n, cfg.n_paths)
                _call_given_jumps(paths, h, plan.jump_sums(rng, h.t, paths), Ks,
                                  mean[:, j], m2[:, j])
                count[j] = paths
        partials[i] = (count, mean, m2, sides)

    _for_each_block(cfg, reduce_block)
    # merge in block order (Chan-Golub-LeVeque), the co-moment like the M2s,
    # each maturity with its own count, and the sides by sums
    n, mean, m2, sides = partials[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, len(partials)):
            n_b, mean_b, m2_b, sides_b = partials[i]
            total = n + n_b
            delta = mean_b - mean
            mean = mean + delta * (n_b / total)
            m2 = m2 + m2_b + delta[[0, 0, 1]] * delta[[0, 1, 1]] * (n * n_b / total)
            n = total
            sides = sides + sides_b
    (call, control), (m2_call, co, m2_control) = mean, m2
    rare_side = sides.min(axis=0)

    def estimate(j, k):
        h, paths = plan.horizons[j], n[j, 0]
        value, residual = call[j, k], m2_call[j, k]
        if (plan.controlled and Ks[k] > 0 and m2_control[j, k] > 0
                and rare_side[j, k] >= _SIDE_PATHS):
            # the control variate with its coefficient fitted on the merged
            # totals; the residual is the M2 left after the fit. A fit that
            # leaves only rounding cannot measure its own error (module
            # docstring), so the calls stay alone
            beta = co[j, k] / m2_control[j, k]
            fitted = residual - beta * co[j, k]
            if fitted > 1e-12 * residual:
                value = value - beta * control[j, k]
                residual = fitted
        return Estimate(h.discount * float(value),
                        h.discount * math.sqrt(residual / (paths - 1)) / math.sqrt(paths),
                        int(paths))

    with np.errstate(over="ignore", invalid="ignore"):
        return [[estimate(j, k) for k in range(len(Ks))] for j in range(len(ts))]


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
