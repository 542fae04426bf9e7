"""Simulator correctness: oracles, martingale checks, determinism, schemes.

Monte Carlo assertions use generous z-score bands (4 standard errors unless
the source statement says otherwise) with fixed seeds, so they are
deterministic.
"""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gamma
from scipy.stats import chisquare, ks_2samp, norm, poisson

import smalltime as st
from smalltime.montecarlo import (_CONDITIONAL_BELOW, _JUMPING_PATHS, _JUMPING_SHARE,
                                  _WORKSPACE_ROWS, _excess_cdf, _Partial, _poisson_counts,
                                  _SimulationPlan, _stable_standard, _table_sampler,
                                  _ztp_counts, price_grid)
from test_exact_prices import atomic_call, merton_call


def bs_call(S0, K, sigma, t, r=0.0):
    if sigma == 0:
        return max(S0 - K * math.exp(-r * t), 0.0)
    d1 = (math.log(S0 / K) + (r + sigma**2 / 2) * t) / (sigma * math.sqrt(t))
    d2 = d1 - sigma * math.sqrt(t)
    return S0 * norm.cdf(d1) - K * math.exp(-r * t) * norm.cdf(d2)


MERTON = st.ExpModelCharacteristics(1.0, 0.0, 0.2, st.normal_jumps(1.0, 0.0, 0.4))


def test_degenerate_paths_are_flat():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0)
    s = st.simulate_terminal(ec, 0.01, st.SimConfig(n_paths=500))
    assert np.all(s == 1.0)


def test_all_samples_positive():
    s = st.simulate_terminal(MERTON, 0.05, st.SimConfig(n_paths=20000, master_seed=2))
    assert np.all(s > 0.0)


def test_diffusive_martingale_mean():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2)
    s = st.simulate_terminal(ec, 0.01, st.SimConfig(n_paths=400000, master_seed=1))
    se = s.std(ddof=1) / math.sqrt(s.size)
    assert abs(s.mean() - 1.0) <= 4 * se


def test_martingale_mean_all_jump_forms():
    cases = [
        MERTON,
        st.ExpModelCharacteristics(1.0, 0.04, 0.1, st.atomic([(0.4, 1.0), (-0.6, 0.5)])),
        st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.laplace_jumps(1.2, 0.25)),
        st.ExpModelCharacteristics(1.0, 0.0, 0.0,
                                   st.stable_like(1.5, 0.1,
                                                  residual=st.atomic([(0.8, 0.2)]))),
        # no sampler: inverted CDF table of the density
        st.ExpModelCharacteristics(1.0, 0.0, 0.1,
                                   st.density(lambda y: 3.0 * math.exp(-abs(y) / 0.2),
                                              (-1.5, 2.0))),
        # callable c: tabulated power tail
        st.ExpModelCharacteristics(1.0, 0.0, 0.0,
                                   st.stable_like(1.5, lambda y: 0.1 * (1.0 + 0.5 * y))),
    ]
    for i, ec in enumerate(cases):
        cfg = st.SimConfig(n_paths=400000, master_seed=10 + i,
                           small_jump_cutoff=0.003)
        t = 0.02
        s = st.simulate_terminal(ec, t, cfg)
        disc_mean = math.exp(-ec.r * t) * s.mean()
        se = s.std(ddof=1) / math.sqrt(s.size)
        assert abs(disc_mean - 1.0) <= 4 * se, f"case {i}"


def test_merton_second_moment_vs_generator_oracle():
    t = 0.01
    cfg = st.SimConfig(n_paths=4000000, master_seed=3)
    s = st.simulate_terminal(MERTON, t, cfg)
    q = (s - 1.0) ** 2
    mc = q.mean() / t
    se = q.std(ddof=1) / math.sqrt(q.size) / t
    f = st.polynomial([0.0, 0.0, 1.0], center=1.0)
    lf = st.apply_exp_generator(MERTON, f, 1.0)
    assert abs(mc - lf) <= 4 * se


def test_short_time_expectation_matches_mc_oracle():
    # first-order expansion of E f(ln S_t) against the simulator
    t = 1e-3
    f = st.gaussian_bump(center=0.15, width=0.5)
    chars = MERTON.log_characteristics()
    x0 = 0.0
    predicted = st.short_time_expectation(chars, f, x0, t)
    cfg = st.SimConfig(n_paths=2000000, master_seed=17)
    x = np.log(st.simulate_terminal(MERTON, t, cfg))
    vals = np.exp(-0.5 * ((x - 0.15) / 0.5) ** 2)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - predicted) <= 3 * se


def test_black_scholes_call_oracle():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2)
    cfg = st.SimConfig(n_paths=2000000, master_seed=7)
    est = st.estimate_call(ec, 0.01, 1.0, cfg)
    exact = 2 * norm.cdf(0.2 * math.sqrt(0.01) / 2) - 1
    assert abs(est.value - exact) <= 4 * est.std_error


def test_forward_identity_tiny_strike():
    cfg = st.SimConfig(n_paths=300000, master_seed=4)
    ec = st.ExpModelCharacteristics(1.0, 0.03, 0.2, st.atomic([(0.3, 0.8)]))
    t = 0.02
    est = st.estimate_call(ec, t, 1e-12, cfg)
    # discounted E S_t - K ~ S0
    assert abs(est.value - 1.0) <= 4 * est.std_error + 1e-12
    # strike 0 averages every path's forward without a control, so its
    # standard error stays that of the martingale check
    (forward,) = price_grid(ec, [t], [0.0], cfg)[0]
    assert forward.std_error > 0
    assert abs(forward.value - 1.0) <= 4 * forward.std_error


def test_huge_strike_exactly_zero():
    cfg = st.SimConfig(n_paths=100000, master_seed=5)
    est = st.estimate_call(MERTON, 0.01, math.exp(10.0), cfg)
    assert est.value == 0.0
    assert est.std_error == 0.0


def _plain_brute_force(ec, t, K, cfg):
    """A plain cell from the ``simulate_terminal`` samples: the calls less
    beta times the control S_t minus its exact mean, the forward, with
    beta = Cov / Var from ``np.cov``, and the standard error of the
    residual; both discounted, with beta."""
    s = st.simulate_terminal(ec, t, cfg)
    call = np.maximum(s - K, 0.0)
    (var_call, cov), (_, var_s) = np.cov(call, s)
    beta = cov / var_s
    disc = math.exp(-ec.r * t)
    value = call.mean() - beta * (s.mean() - ec.S0 / disc)
    return disc * value, disc * math.sqrt((var_call - beta * cov) / s.size), beta


def _calls_alone(ec, t, K, cfg):
    """A cell that keeps beta = 0: the discounted average of the calls over
    the ``simulate_terminal`` samples and its standard error."""
    call = np.maximum(st.simulate_terminal(ec, t, cfg) - K, 0.0)
    disc = math.exp(-ec.r * t)
    return disc * call.mean(), disc * call.std(ddof=1) / math.sqrt(call.size)


def test_estimate_fields():
    # a plain cell fits its control S_t: its value and standard error are
    # those of the brute force over the samples simulate_terminal returns
    cfg = st.SimConfig(n_paths=50000, master_seed=6)
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2)
    t, K = 0.01, 1.0
    est = st.estimate_call(ec, t, K, cfg)
    value, se, beta = _plain_brute_force(ec, t, K, cfg)
    assert est.n_paths == 50000
    assert 0.0 < beta < 1.0
    assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0)
    assert est.std_error < _calls_alone(ec, t, K, cfg)[1]


# ----------------------------------------------------------------------
# determinism and common random numbers

def test_bit_identical_reruns_and_workers():
    cfg1 = st.SimConfig(n_paths=200000, master_seed=11, n_workers=1)
    cfg3 = st.SimConfig(n_paths=200000, master_seed=11, n_workers=3)
    cfg4 = st.SimConfig(n_paths=200000, master_seed=11, n_workers=4)
    a = st.simulate_terminal(MERTON, 0.01, cfg1)
    b = st.simulate_terminal(MERTON, 0.01, cfg1)
    c = st.simulate_terminal(MERTON, 0.01, cfg4)
    d = st.simulate_terminal(MERTON, 0.01, cfg3)  # 4 blocks on 3 lanes
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)
    assert np.array_equal(a, d)


def test_seed_changes_samples():
    a = st.simulate_terminal(MERTON, 0.01, st.SimConfig(n_paths=10000, master_seed=0))
    b = st.simulate_terminal(MERTON, 0.01, st.SimConfig(n_paths=10000, master_seed=1))
    assert not np.array_equal(a, b)


def test_pathwise_monotonicity_in_strike():
    cfg = st.SimConfig(n_paths=100000, master_seed=12)
    vals = [st.estimate_call(MERTON, 0.01, K, cfg).value
            for K in (0.9, 1.0, 1.1, 1.3)]
    assert all(a >= b for a, b in zip(vals[:-1], vals[1:]))


# ----------------------------------------------------------------------
# Poisson counts per block

# the plain kernel's streams of a maturity with a diffusion start at the
# kernel crossover; 60 and 800 take the large-mean branch of _ztp_counts
COUNT_MEANS = [1e-300, 1e-3, 0.03, float(np.nextafter(_CONDITIONAL_BELOW, 0.0)),
               _CONDITIONAL_BELOW, 6.66, 60.0, 800.0]


def _philox(*key):
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def _pooled_chisquare(observed, expected):
    """Chi-square p-value of the observed against the expected counts, with
    every cell that expects fewer than 5 pooled into one."""
    observed, expected = np.ravel(observed), np.ravel(expected)
    small = expected < 5.0
    obs = np.append(observed[~small], observed[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    if exp[-1] == 0.0:
        obs, exp = obs[:-1], exp[:-1]
    return chisquare(obs, exp * (obs.sum() / exp.sum())).pvalue


@pytest.mark.parametrize("n", [100, 2**16 + 500])
@pytest.mark.parametrize("mu", COUNT_MEANS)
def test_poisson_counts_law(mu, n):
    rng = _philox(77, n)
    calls = max(1, 2**18 // n)
    full = np.zeros((calls, n), dtype=np.int64)
    for row in full:
        paths, counts = _poisson_counts(rng, mu, n)
        # at every mean only the paths that jump get a count
        assert paths.dtype.kind == "i" and paths.size == counts.size
        assert np.unique(paths).size == paths.size
        assert paths.size == 0 or 0 <= paths.min() <= paths.max() < n
        assert counts.dtype.kind == "i" and np.all(counts >= 1)
        row[paths] = counts
    full = full.ravel()
    N = full.size
    if mu == 1e-300:
        assert not full.any()  # no path jumps: the m = 0 draw
        return
    assert abs(full.mean() - mu) <= 5 * math.sqrt(mu / N)
    # the sample variance of Poisson(mu) counts has variance ~ (mu + 2 mu^2) / N
    assert abs(full.var(ddof=1) - mu) <= 5 * math.sqrt((mu + 2 * mu * mu) / N)
    # chi-square over the counts, zeros included: the tail from where fewer
    # than 5 counts are expected per bin in the last bin, and every other
    # bin that expects fewer than 5 pooled
    top = int(poisson.isf(5.0 / N, mu))
    observed = np.bincount(np.minimum(full, top), minlength=top + 1)
    expected = N * poisson.pmf(np.arange(top + 1), mu)
    expected[top] = N * poisson.sf(top - 1, mu)
    assert _pooled_chisquare(observed, expected) > 1e-3


ZTP_MEANS = [1e-300, 1e-6, 1e-3, 0.03, 0.3, float(np.nextafter(_CONDITIONAL_BELOW, 0.0)),
             # a superposed clock's total mean can lie above the crossover
             3.0]


@pytest.mark.parametrize("mu", ZTP_MEANS)
def test_ztp_counts_law(mu):
    # 2^20 counts against P(N = j | N >= 1), the tail pooled where fewer
    # than 5 are expected
    rng = _philox(79, 0)
    counts = np.concatenate([_ztp_counts(rng, mu, 2**16) for _ in range(16)])
    N = counts.size
    assert counts.dtype.kind == "i" and counts.min() >= 1
    if mu == 1e-300:
        assert np.all(counts == 1)  # k = 0
        return
    top = int(poisson.isf(1e-12, mu)) + 2
    observed = np.bincount(np.minimum(counts, top), minlength=top + 1)[1:]
    j = np.arange(1, top + 1)
    expected = N * poisson.pmf(j, mu) / -math.expm1(-mu)
    expected[-1] = N * poisson.sf(top - 1, mu) / -math.expm1(-mu)
    if expected[1:].sum() < 5.0:
        # about one count of 2 in 2^20 at mu = 1e-6: only rare ones allowed
        assert observed[1:].sum() <= 10 and observed[2:].sum() == 0
        return
    assert _pooled_chisquare(observed, expected) > 1e-3


@pytest.mark.parametrize("mu, bins, calls", [(0.015, 64, 1024), (0.3, 16, 16)])
def test_poisson_counts_multi_jump_paths_uniform(mu, bins, calls):
    # _ztp_counts puts the counts of 2 or more first, and choice's random
    # order must spread them over the block: a chi-square of (position bin,
    # count 0, 1, 2, ... pooled at the top) against uniform positions and
    # Poisson(mu) counts. At 0.015 choice takes Floyd's path (m below n/50),
    # whose unshuffled i-th index never exceeds n - m + i, so the top bin
    # would lose about 95% of its counts of 2; at 0.3 it takes the tail
    # shuffle
    n, top = 2**16, 2 if mu < 0.1 else 3
    rng = _philox(83, bins)
    observed = np.zeros(bins * (top + 1), dtype=np.int64)
    for _ in range(calls):
        paths, counts = _poisson_counts(rng, mu, n)
        row = np.zeros(n, dtype=np.int64)
        row[paths] = counts
        cell = np.arange(n) * bins // n * (top + 1) + np.minimum(row, top)
        observed += np.bincount(cell, minlength=observed.size)
    p = poisson.pmf(np.arange(top + 1), mu)
    p[top] = poisson.sf(top - 1, mu)
    expected = np.tile(calls * n / bins * p, bins)
    assert expected.min() >= 5.0
    assert chisquare(observed, expected).pvalue > 1e-3


def test_conditional_clock_splits_counts_by_intensity():
    # jump sizes 1 and 2^-6 at intensities 0.3 and 0.2 (t = 1): a path's jump
    # sum N1 + N2 / 64 gives both counts back exactly. The (N1, N2) table of
    # 2^20 paths, the paths that do not jump included, against
    # Poisson(0.3) x Poisson(0.2)
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.15, st.atomic([(1.0, 0.3), (2.0**-6, 0.2)]))
    plan = _SimulationPlan(ec, [1.0], st.SimConfig(n_paths=100), None)
    assert plan.horizons[0].conditional and len(plan.streams) == 2
    n, calls, top = 2**16, 16, 4
    rng = _philox(89, 0)
    observed = np.zeros((top + 1, top + 1), dtype=np.int64)
    for _ in range(calls):
        sums = plan.jump_sums(rng, 1.0, n)
        n1 = np.floor(sums)
        n2 = (sums - n1) * 64.0
        assert np.all(n2 == np.floor(n2)) and np.all(n1 + n2 >= 1)
        np.add.at(observed, (np.minimum(n1, top).astype(int), np.minimum(n2, top).astype(int)), 1)
        observed[0, 0] += n - sums.size
    marginals = []
    for mu in (0.3, 0.2):
        p = poisson.pmf(np.arange(top + 1), mu)
        p[top] = poisson.sf(top - 1, mu)
        marginals.append(p)
    expected = calls * n * np.outer(*marginals)
    assert _pooled_chisquare(observed, expected) > 1e-3


class _EdgeGenerator:
    """Generator stand-in for ``_ztp_counts``: records the probability the
    binomial draw gets, makes k of the counts 2 or more (default none), and
    hands over the given uniforms."""

    def __init__(self, k=0, u=()):
        self.k, self.u, self.q = k, np.asarray(u, dtype=float), None

    def binomial(self, m, q):
        self.q = q
        return self.k

    def random(self, size):
        return self.u[:size].copy()


@pytest.mark.parametrize("mu", [5e-324, 1e-300, 1e-6, 1e-4, np.nextafter(1e-4, 1.0), 0.5,
                                3.0, 50.0])
def test_ztp_counts_q_is_a_probability(mu):
    # q = 1 - mu / (e^mu - 1) on both sides of g2's series switch, at the
    # smallest means and at the largest mean that draws from the table
    rng = _EdgeGenerator()
    assert np.array_equal(_ztp_counts(rng, mu, 7), np.ones(7))
    assert 0.0 <= rng.q <= 1.0
    if mu < 1e-3:
        exact = mu / 2 - mu * mu / 12  # the next term is mu^4 / 720
    else:
        exact = 1.0 - mu / math.expm1(mu)  # cancels less than 2e-13
    assert rng.q == pytest.approx(exact, rel=1e-10, abs=0.0)


class _ZerosFirstGenerator:
    """Generator stand-in for the large-mean branch of ``_ztp_counts``: the
    first ``poisson`` draw has a 0 in every other entry, the second a 0 in
    its first entry, and every other entry is a positive Poisson draw."""

    def __init__(self):
        self.rng, self.draws = _philox(97, 0), []

    def poisson(self, mu, size):
        counts = np.maximum(self.rng.poisson(mu, size), 1)
        if len(self.draws) == 0:
            counts[::2] = 0
        elif len(self.draws) == 1:
            counts[0] = 0
        self.draws.append(counts.copy())
        return counts


@pytest.mark.parametrize("mu", [np.nextafter(50.0, 51.0), 709.0, 710.0, 1e6])
def test_ztp_counts_redraws_zeros(mu):
    # above 50 the counts are Poisson draws with every 0 drawn again, as
    # often as it takes; the counts that were not 0 are kept
    rng = _ZerosFirstGenerator()
    counts = _ztp_counts(rng, mu, 7)
    assert counts.size == 7 and counts.min() >= 1
    assert np.array_equal(counts[1::2], rng.draws[0][1::2])
    assert len(rng.draws) == 3


@pytest.mark.parametrize("mu", [1e-300, 0.3, 3.0])
def test_ztp_counts_table_end(mu):
    # the smallest uniform takes the first entry (count 2), the largest an
    # entry of positive mass, and a uniform of 1, standing in for the rounding
    # of u times the table's total up to the total, takes the last entry, not
    # one past the table
    cdf = _excess_cdf(mu)
    assert np.all(np.diff(cdf) >= 0.0) and not cdf.flags.writeable
    rng = _EdgeGenerator(k=3, u=[0.0, np.nextafter(1.0, 0.0), 1.0])
    counts = _ztp_counts(rng, mu, 5)
    assert counts[0] == 2 and counts[2] == 1 + cdf.size and list(counts[3:]) == [1, 1]
    i = counts[1] - 2
    assert cdf[i] > (cdf[i - 1] if i else 0.0)


@pytest.mark.parametrize("mu", [800.0, 1e4])
def test_ztp_counts_large_means(mu):
    # the large-mean branch: Poisson draws, with any 0 drawn again
    counts = _ztp_counts(_philox(7, 1), mu, 4096)
    assert counts.min() >= 2
    assert abs(counts.mean() - mu) <= 5 * math.sqrt(mu / counts.size)
    assert abs(counts.var() / mu - 1.0) <= 0.15


def test_plain_draw_without_jumps():
    # no path jumps: every hook of the plain kernel (both power-tail sides,
    # then the normal residual) sees an empty count vector, and every
    # sample is exp(x0 + log drift)
    seen = []

    def recording(sum_sampler):
        def hook(rng, counts):
            seen.append(counts.size)
            return sum_sampler(rng, counts)
        return hook

    ec = st.ExpModelCharacteristics(
        2.0, 0.0, 0.0, st.stable_like(1.5, 0.1, st.normal_jumps(1.0, 0.0, 0.4)))
    plan = _SimulationPlan(ec, [1e-300], st.SimConfig(n_paths=100), None)
    plan.streams = [(lam, recording(hook)) for lam, hook in plan.streams]
    ws = np.full((_WORKSPACE_ROWS, 2**16), np.nan)
    (h,) = plan.horizons
    (samples,) = plan.draw_block(_philox(1, 1), ws, plan.horizons)
    assert seen == [0, 0, 0]
    assert np.all(samples == math.exp(plan.x0 + h.log_drift))


def test_sampler_costs_tool_runs():
    # the cost tool reaches into the simulator's private draws; one call per
    # cell keeps it quick
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(root / "tools" / "sampler_costs.py"), "--repeat", "1",
         "--number", "1"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    heads = [line.split()[:2] for line in run.stdout.splitlines()]
    assert ["mu", "0.001"] in heads and ["jumping", "paths"] in heads, run.stdout


@pytest.mark.parametrize("k", [0, 1, 5, 40])
def test_laplace_sum_sampler_law(k):
    # one Gamma pair per path against k per-jump Laplace draws per path
    sampler = st.laplace_jumps(1.0, 0.2, 0.05).sum_sampler
    rng = _philox(3, k)
    counts = np.full(20000, k)
    counts[::7] = 0
    sums = sampler(rng, counts)
    assert sums.shape == counts.shape and not sums[counts == 0].any()
    if k == 0:
        return
    reference = rng.laplace(0.05, 0.2, (20000, k)).sum(axis=1)
    assert ks_2samp(sums[counts > 0], reference).pvalue > 1e-3


def _interp_inversion(rng, size, grid, cdf):
    """The CDF-table draw the alias sampler replaced, kept as the reference
    law: inverse of the piecewise-linear CDF through (grid, cdf)."""
    return np.interp(rng.uniform(0.0, 1.0, size), cdf, grid)


_POWER_GRID = np.linspace(0.01, 1.0, 4097)
_SIGNED_GRID = np.linspace(-1.0, 1.0, 4097)
_SPIKE = np.ones(4097)
_SPIKE[0] = 1e6
TABLE_LAWS = {
    # one side of the callable-c power tail: c(y) = 1 + y/2, alpha 1.5,
    # cutoff 0.01
    "power_tail": (_POWER_GRID, (1.0 + 0.5 * _POWER_GRID) * _POWER_GRID ** -2.5),
    # zero on [-0.25, 0.25], negative values clamped: 1024 zero-mass cells
    "zero_cells": (_SIGNED_GRID, np.where(np.abs(_SIGNED_GRID) > 0.25,
                                          3.0 * (1.0 - np.abs(_SIGNED_GRID)), -1.0)),
    # the first cell holds 99.2% of the mass
    "one_cell": (_SIGNED_GRID, _SPIKE),
}


@pytest.mark.parametrize("case", TABLE_LAWS)
def test_table_sampler_law(case):
    grid, dens = TABLE_LAWS[case]
    clamped = np.maximum(dens, 0.0)
    cdf = np.concatenate([[0.0], np.cumsum((clamped[1:] + clamped[:-1]) * 0.5 * np.diff(grid))])
    cdf /= cdf[-1]
    mass = np.diff(cdf)
    n = 2_000_000
    draws = _table_sampler(grid, dens)(_philox(11, 0), n)
    assert draws.shape == (n,)
    assert grid[0] <= draws.min() and draws.max() <= grid[-1]
    # cell i is [grid[i], grid[i+1]); the top node belongs to the last cell
    cell = np.minimum(np.searchsorted(grid, draws, side="right") - 1, mass.size - 1)
    observed = np.bincount(cell, minlength=mass.size)
    assert not observed[mass == 0.0].any()
    # chi-square of cell frequencies against the trapezoid masses, adjacent
    # cells pooled until each bin expects at least 5 draws
    expected = n * mass
    edges, acc = [0], 0.0
    for i, e in enumerate(expected):
        acc += e
        if acc >= 5.0:
            edges.append(i + 1)
            acc = 0.0
    edges[-1] = mass.size
    obs = np.add.reduceat(observed, edges[:-1])
    exp = np.add.reduceat(expected, edges[:-1])
    assert chisquare(obs, exp * (n / exp.sum())).pvalue > 1e-3
    # the whole law, in-cell placement included, against the inversion
    reference = _interp_inversion(_philox(11, 1), n, grid, cdf)
    assert ks_2samp(draws, reference).pvalue > 1e-3


# ----------------------------------------------------------------------
# streaming grid core

GRID_CASES = {
    "merton": (MERTON, "euler_log"),
    "atomic_pure_jump": (st.ExpModelCharacteristics(
        1.0, 0.03, 0.0, st.atomic([(0.3, 2.0), (-0.4, 1.0)])), "euler_log"),
    "stable_euler": (st.ExpModelCharacteristics(
        1.0, 0.0, 0.1, st.stable_like(1.5, 0.1)), "euler_log"),
    "stable_exact": (st.ExpModelCharacteristics(
        1.0, 0.0, 0.1, st.stable_like(1.5, 0.1)), "exact_stable_increment"),
    # Poisson means 0.6, 0.15 and 0.03 at the grid's maturities: the first
    # is priced by the plain kernel, the other two by the conditional one
    "mixed_kernels": (st.ExpModelCharacteristics(
        1.0, 0.01, 0.15, st.atomic([(0.1, 30.0), (-0.1, 20.0)])), "euler_log"),
}


@pytest.mark.parametrize("case", GRID_CASES)
def test_price_grid_equals_per_cell_estimates(case):
    ec, scheme = GRID_CASES[case]
    ts, Ks = [0.02, 0.005, 1e-3], [0.95, 1.0, 1.1]
    cfg = st.SimConfig(n_paths=2 * 2**16 + 500, master_seed=31, scheme=scheme,
                       small_jump_cutoff=0.005)
    cells = [[st.estimate_call(ec, t, K, cfg) for K in Ks] for t in ts]
    for workers in (1, 2, 3):
        grid = price_grid(ec, ts, Ks, st.SimConfig(**{**vars(cfg), "n_workers": workers}))
        assert grid == cells, f"n_workers={workers}"


PLAIN_GRID_CASES = {
    # no diffusion: every maturity is plain
    "three_atoms": st.ExpModelCharacteristics(
        1.0, 0.02, 0.0, st.atomic([(0.25, 3.0), (-0.15, 4.0), (0.05, 6.0)])),
    # the power tail's Poisson means are 0.94 and 3.8 per path at t = 0.005
    # and 0.02, above the crossover
    "stable_euler": st.ExpModelCharacteristics(1.0, 0.0, 0.1, st.stable_like(1.5, 0.1)),
}


@pytest.mark.parametrize("case", PLAIN_GRID_CASES)
def test_plain_grid_matches_brute_force(case):
    # every plain cell with a strike > 0 and 256 paths on each side of it
    # fits beta on the totals merged over two full blocks and a partial
    # one, whatever the number of workers
    ec = PLAIN_GRID_CASES[case]
    ts, Ks = [0.02, 0.005], [0.9, 1.0, 1.1]
    cfg = st.SimConfig(n_paths=2 * 2**16 + 500, master_seed=37, small_jump_cutoff=0.005)
    plan = _SimulationPlan(ec, ts, cfg, None)
    assert not any(h.conditional for h in plan.horizons)
    cells = [[_plain_brute_force(ec, t, K, cfg) for K in Ks] for t in ts]
    for workers in (1, 2, 3):
        grid = price_grid(ec, ts, Ks, st.SimConfig(**{**vars(cfg), "n_workers": workers}))
        for t, row, brute in zip(ts, grid, cells):
            for K, est, (value, se, _) in zip(Ks, row, brute):
                assert est.value == pytest.approx(value, rel=1e-12, abs=0.0), (workers, t, K)
                assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0), (workers, t, K)
                assert est.n_paths == cfg.n_paths


def test_plain_strike_zero_keeps_the_martingale_check():
    # strike 0 is the control itself: a fit would give the exact forward
    # with standard error 0, so the cell averages S_t
    ec = PLAIN_GRID_CASES["three_atoms"]
    t = 0.02
    cfg = st.SimConfig(n_paths=2**16 + 500, master_seed=41)
    (est,) = price_grid(ec, [t], [0.0], cfg)[0]
    value, se = _calls_alone(ec, t, 0.0, cfg)
    assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0) and se > 0
    assert abs(est.value - 1.0) <= 4 * est.std_error


def test_stable_increment_keeps_the_calls_alone():
    # exact_stable_increment leaves out the exponential compensation of the
    # small jumps, so E S_t is not the forward and a fitted control would
    # bias the price: its cells average the calls
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.stable_like(1.5, 1.0))
    cfg = st.SimConfig(n_paths=2**18, master_seed=43, scheme="exact_stable_increment")
    s = st.simulate_terminal(ec, 0.01, cfg)
    assert s.mean() - 1.0 > 10 * s.std(ddof=1) / math.sqrt(s.size)
    for t in (1e-3, 0.01):
        est = st.estimate_call(ec, t, 1.0, cfg)
        value, se = _calls_alone(ec, t, 1.0, cfg)
        assert est.value == pytest.approx(value, rel=1e-12, abs=0.0), t
        assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0), t


def test_single_atom_without_diffusion_keeps_the_calls_alone():
    # Poisson mean 0.9 per path: the samples hold several jump counts on
    # both sides of each strike, so only the rule for one atom keeps beta = 0
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.atomic([(0.1, 30.0)]))
    t = 0.03
    cfg = st.SimConfig(n_paths=2**16 + 500, master_seed=47)
    s = st.simulate_terminal(ec, t, cfg)
    for K, est in zip((0.95, 1.05), price_grid(ec, [t], [0.95, 1.05], cfg)[0]):
        assert min(np.count_nonzero(s > K), np.count_nonzero(s <= K)) >= 1000, K
        value, se = _calls_alone(ec, t, K, cfg)
        assert est.value == pytest.approx(value, rel=1e-12, abs=0.0), K
        assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0), K


# two down atoms without a diffusion: at t = 0.01 a path ends below 0.75
# only after two jumps or more, so a block of 2^16 has about 13 such paths
RARE_SIDE_ATOMS = [(-0.1, 1.0), (-0.2, 1.0)]
RARE_SIDE = st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.atomic(RARE_SIDE_ATOMS))


def test_rare_side_of_the_strike_keeps_the_calls_alone():
    # above the strike the call is S_t - K, affine in the control, so the
    # fit's residual lives on the few paths below it: fewer than 256 on a
    # side keep beta = 0. At K = 0.95 every path that jumps ends below the
    # strike, enough of them to fit
    t, Ks = 0.01, [0.75, 0.95]
    cfg = st.SimConfig(n_paths=2**16, master_seed=0)
    s = st.simulate_terminal(RARE_SIDE, t, cfg)
    rare, fitted = price_grid(RARE_SIDE, [t], Ks, cfg)[0]
    assert 0 < np.count_nonzero(s <= 0.75) < 256 <= np.count_nonzero(s <= 0.95)
    value, se = _calls_alone(RARE_SIDE, t, 0.75, cfg)
    assert rare.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert rare.std_error == pytest.approx(se, rel=1e-12, abs=0.0)
    value, se, _ = _plain_brute_force(RARE_SIDE, t, 0.95, cfg)
    assert fitted.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert fitted.std_error == pytest.approx(se, rel=1e-12, abs=0.0)


def test_rare_side_z_scores_against_the_exact_series():
    # without the floor of 256 paths a side, 19.7 was the largest |z| over
    # these seeds (and -28.9 the smallest z over 300)
    t, K = 0.01, 0.75
    exact = atomic_call(1.0, K, t, 0.0, 0.0, RARE_SIDE_ATOMS)
    z = []
    for seed in range(100):
        est = st.estimate_call(RARE_SIDE, t, K, st.SimConfig(n_paths=2**16, master_seed=seed))
        z.append((est.value - exact) / est.std_error)
    assert max(map(abs, z)) < 4.5, z


def test_price_grid_blocks_are_simulate_terminal_samples():
    # every maturity after the first restores the generator state that
    # follows the shared Gaussian draw
    ts = [0.03, 0.01, 1e-3]
    cfg = st.SimConfig(n_paths=2**16 + 300, master_seed=8)
    plan = _SimulationPlan(MERTON, ts, cfg, None)
    whole = [st.simulate_terminal(MERTON, t, cfg) for t in ts]
    for i, (lo, hi) in enumerate([(0, 2**16), (2**16, cfg.n_paths)]):
        key = np.array([cfg.master_seed, i], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        ws = np.empty((_WORKSPACE_ROWS, hi - lo))
        for t, samples, block in zip(ts, whole, plan.draw_block(rng, ws, plan.horizons)):
            assert np.array_equal(block, samples[lo:hi]), f"t={t} block {i}"


CONDITIONAL_CASES = {
    # one stream (t = 0.03: Poisson mean 0.03)
    "merton": (MERTON, 0.03),
    # at t = 1e-3 about 40 of the 40000 paths would jump: the cell stands
    # for enough paths that ``_JUMPING_PATHS`` of them jump on average. Its
    # value at K = 1.15 (1.4e-4) is the mean of the calls less beta times
    # that of the control minus the forward
    "merton_floor": (MERTON, 1e-3),
    # two streams, Poisson means 0.4 and 0.3 (a clock of total mean 0.7):
    # a path's count is split between them, and one jump of each size
    # leaves a jump sum of exactly 0
    "two_atoms": (st.ExpModelCharacteristics(
        1.0, 0.02, 0.15, st.atomic([(0.1, 0.4), (-0.1, 0.3)])), 1.0),
    "laplace": (st.ExpModelCharacteristics(
        1.0, 0.02, 0.15, st.laplace_jumps(1.5, 0.2, 0.05)), 0.2),
}


def _cell_paths(n, n_total, p):
    """The paths a conditional cell of a block of n of n_total paths stands
    for when a path jumps with probability p: enough that on average
    ``_JUMPING_SHARE`` of the block's paths jump, and ``_JUMPING_PATHS``
    over all the blocks."""
    return max(n, math.ceil(n * max(_JUMPING_SHARE, _JUMPING_PATHS / n_total) / p))


def _redrawn_block(ec, t, n, seed):
    """The horizon and the per-path jump sums of the one block of n paths,
    redrawn from its key through the superposed clock. The cell stands for
    n' paths (``_cell_paths``): the number m of those n' that jump, their
    zero-truncated counts at the total mean, with several streams a
    multinomial split by intensity, then each stream's sums. No path index
    is drawn, so the paths that jump fill the first m entries of a row with
    one entry per path of the n'; the counts come back in a second row."""
    plan = _SimulationPlan(ec, [t], st.SimConfig(n_paths=n, master_seed=seed), None)
    (h,) = plan.horizons
    assert h.conditional
    rng = _philox(seed, 0)
    lams = [lam for lam, _ in plan.streams]
    mu = sum(lams) * t
    p = -math.expm1(-mu)
    n_cell = _cell_paths(n, n, p)
    m = rng.binomial(n_cell, p)
    counts = _ztp_counts(rng, mu, m)
    split = (counts[:, None] if len(lams) == 1
             else rng.multinomial(counts, [lam / sum(lams) for lam in lams]))
    jumps, n_jumps = np.zeros(n_cell), np.zeros(n_cell, dtype=np.int64)
    n_jumps[:m] = counts
    for (_, sum_sampler), stream_counts in zip(plan.streams, split.T):
        jumps[:m] += sum_sampler(rng, stream_counts)
    return h, jumps, n_jumps


def _call_and_control(ec, h, jumps, K):
    """Per path the call given its jump sum, Black-Scholes at the forward
    F e^J (F e^J - K for K <= 0), and the control F e^J."""
    sd = ec.sigma * math.sqrt(h.t)
    log_forward = math.log(ec.S0) + h.log_drift + 0.5 * sd * sd + jumps
    control = np.exp(log_forward)
    if K <= 0.0:
        return control - K, control
    d1 = (log_forward - math.log(K)) / sd + 0.5 * sd
    return np.maximum(control * norm.cdf(d1) - K * norm.cdf(d1 - sd), 0.0), control


def _fitted_control(call, control, forward):
    """The value and the residual M2 of the control variate with the least
    squares coefficient, and the residual M2 as a function of any beta.

    The sums are exact (``math.fsum``): a floored cell stands for about a
    million paths, and the rounding of ``np.dot`` over them, which the
    fit's cancellation amplifies, reached 3e-12 of the standard error."""
    n = call.size
    call_mean = math.fsum(call) / n
    dc, dy = call - call_mean, control - math.fsum(control) / n
    m2_c, co, m2_y = math.fsum(dc * dc), math.fsum(dc * dy), math.fsum(dy * dy)
    beta = co / m2_y

    def residual(b):
        return m2_c - 2.0 * b * co + b * b * m2_y

    return call_mean - beta * math.fsum(control - forward) / n, m2_c - beta * co, residual


@pytest.mark.parametrize("case", CONDITIONAL_CASES)
def test_conditional_block_matches_brute_force(case):
    ec, t = CONDITIONAL_CASES[case]
    Ks = [0.0, 0.9, 1.0, 1.15]
    n = 40000  # one partial block
    h, jumps, n_jumps = _redrawn_block(ec, t, n, seed=5)
    if case == "two_atoms":
        assert np.any((n_jumps > 0) & (jumps == 0.0))
    # given its jump sum a path's log price is Gaussian: its call is the
    # Black-Scholes price. A strike > 0 subtracts beta times the control
    # F e^J minus its exact mean, the forward, with beta = Cov / Var fitted
    # on the block; its standard error is that of the residual. Strike 0 is
    # the plain average of F e^J
    forward = ec.S0 * math.exp(ec.r * t)
    disc = math.exp(-ec.r * t)
    n_cell = jumps.size
    assert (n_cell > n) == (case == "merton_floor")
    for K, est in zip(Ks, price_grid(ec, [t], Ks, st.SimConfig(n_paths=n, master_seed=5))[0]):
        call, control = _call_and_control(ec, h, jumps, K)
        if K > 0.0:
            value, m2, _ = _fitted_control(call, control, forward)
        else:
            value, m2 = call.mean(), np.sum((call - call.mean()) ** 2)
        assert est.value == pytest.approx(disc * value, rel=2e-14, abs=0.0), K
        assert est.std_error == pytest.approx(disc * math.sqrt(m2 / (n_cell - 1) / n_cell),
                                              rel=2e-13, abs=0.0), K
        assert est.n_paths == n_cell, K


def test_conditional_cell_of_few_paths_fits_its_control():
    # given J a conditional path lies on both sides of every strike, so the
    # floor of paths a side does not apply: the cell of a run of 100 paths
    # (Poisson mean 0.3, about 26 of them would jump) stands for the paths
    # of the absolute floor on jumping paths and fits beta
    ec, t, n = MERTON, 0.3, 100
    h, jumps, _ = _redrawn_block(ec, t, n, seed=5)
    n_cell = jumps.size
    assert n_cell == _cell_paths(n, n, -math.expm1(-t)) > n
    Ks = [0.9, 1.1]
    for K, est in zip(Ks, price_grid(ec, [t], Ks, st.SimConfig(n_paths=n, master_seed=5))[0]):
        call, control = _call_and_control(ec, h, jumps, K)
        value, m2, _ = _fitted_control(call, control, ec.S0)
        assert est.value == pytest.approx(value, rel=1e-12, abs=0.0), K
        assert est.std_error == pytest.approx(math.sqrt(m2 / (n_cell - 1) / n_cell),
                                              rel=1e-12, abs=0.0), K
        assert est.std_error < call.std(ddof=1) / math.sqrt(n_cell), K


def test_conditional_count_sums_the_blocks():
    # a block of n_b of the n paths gives a conditional cell of
    # ``_cell_paths(n_b, n, p)`` paths, p = 1 - e^(-Lambda t), at most
    # 2**53, and the estimate counts the sum over the blocks; a plain cell
    # counts n_b. At Lambda = 1, t = 0.6 is plain, t = 0.03 conditional
    # with more than the share of jumping paths on average, t = 1e-3 is
    # floored, and at t = 4e-16 every block reaches the cap, where some 3.6
    # of its paths jump on average. At t = 5e-324 no path jumps, and the
    # maturity raises InsufficientSignal
    blocks = [2**16, 2**16, 500]
    n = sum(blocks)
    p = -math.expm1(-1e-3)
    floored = sum(_cell_paths(n_b, n, p) for n_b in blocks)
    assert floored > n
    ts, counts = [0.6, 0.03, 1e-3, 4e-16], [n] * 2 + [floored, 3 * 2**53]
    cfg = st.SimConfig(n_paths=n, master_seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = price_grid(MERTON, ts, [1.0], cfg)
        with pytest.raises(st.InsufficientSignal, match="t = 5e-324"):
            price_grid(MERTON, ts + [5e-324], [1.0], cfg)
    for t, n_cell, (est,) in zip(ts, counts, grid):
        assert est.n_paths == n_cell, t
        assert math.isfinite(est.value) and est.std_error > 0.0, t


def test_unresolved_conditional_cell_raises_insufficient_signal():
    # at intensity 1e-14 about 0.09 of the 2**53 paths a cell may stand for
    # jump on average, so the cell would report the price at J = 0 with
    # standard error 0
    ec = st.ExpModelCharacteristics(1.0, 0.05, 0.2, st.normal_jumps(1e-14, 0.0, 0.4))
    cfg = st.SimConfig(n_paths=1000)
    with pytest.raises(st.InsufficientSignal, match=r"t = 0\.001\b"):
        st.estimate_call(ec, 1e-3, 1.05, cfg)
    # the rule reads the control, not the call: far out of the money the
    # calls given J underflow to 0, but paths jumped, so the cell resolves
    (est,) = price_grid(MERTON, [1e-3], [100.0], cfg)[0]
    assert (est.value, est.std_error) == (0.0, 0.0) and est.n_paths > cfg.n_paths
    # a stream of intensity 0 draws no jump: the model is priced plain,
    # like one without jumps
    ec = st.ExpModelCharacteristics(1.0, 0.05, 0.2, st.normal_jumps(0.0, 0.0, 0.4))
    est = st.estimate_call(ec, 1e-3, 1.0, cfg)
    assert est.n_paths == cfg.n_paths and est.std_error > 0


def test_merge_matches_one_pass_moments():
    # blocks of unequal counts, per maturity as floored conditional cells
    # have them, merged in block order against the moments of all of a
    # cell's (call, control) samples at once, summed exactly
    rng = np.random.default_rng(11)
    counts = np.array([[4000, 4000, 31], [70001, 70001, 547]], dtype=float)
    Ks = [0.9, 1.1]
    samples = {}
    for j, k in np.ndindex(counts.shape[0], len(Ks)):
        n = int(counts[j].sum())
        control = rng.normal(0.01, 0.05, n)
        samples[j, k] = (np.maximum(1.0 + control - Ks[k], 0.0) + rng.normal(0.0, 0.01, n),
                         control)
    starts = (np.cumsum(counts, axis=1) - counts).astype(int)
    merged = None
    for b in range(counts.shape[1]):
        part = _Partial(counts.shape[0], len(Ks), 0)
        part.count[:, 0] = counts[:, b]
        for (j, k), xs in samples.items():
            block = [x[starts[j, b]:starts[j, b] + int(counts[j, b])] for x in xs]
            part.mean[:, j, k] = [math.fsum(x) / x.size for x in block]
            dev = [x - m for x, m in zip(block, part.mean[:, j, k])]
            part.m2[:, :, j, k] = [[math.fsum(a * c) for c in dev] for a in dev]
            part.sides[:, j, k] = [np.count_nonzero(block[0] > 0), np.count_nonzero(block[0] <= 0)]
        if merged is None:
            merged = part
        else:
            merged.merge(part)
    assert merged.count[:, 0].tolist() == counts.sum(axis=1).tolist()
    for (j, k), xs in samples.items():
        n = xs[0].size
        mean = [math.fsum(x) / n for x in xs]
        dev = [x - m for x, m in zip(xs, mean)]
        m2 = [[math.fsum(a * c) for c in dev] for a in dev]
        np.testing.assert_allclose(merged.mean[:, j, k], mean, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(merged.m2[:, :, j, k], m2, rtol=1e-12, atol=0.0)
        assert merged.m2[0, 1, j, k] == merged.m2[1, 0, j, k], (j, k)
        assert merged.sides[:, j, k].tolist() == [np.count_nonzero(xs[0] > 0),
                                                  np.count_nonzero(xs[0] <= 0)], (j, k)


@pytest.mark.parametrize("t", [0.05, 0.3])
def test_few_paths_report_an_honest_standard_error(t):
    # at 100 paths a cell would rest on about 5 (t = 0.05) or 26 (t = 0.3)
    # jump sums, whose fit claims far less error than it has (sd(z) 2427 at
    # t = 0.05 over 300 seeds), and some seeds draw no jump at all, leaving
    # the price at J = 0 with standard error 0. The floor of
    # ``_JUMPING_PATHS`` jumping paths per cell makes the z-scores against
    # the exact series standard
    K = 1.1
    exact = merton_call(1.0, K, t, 0.0, 0.2, 1.0, 0.0, 0.4)
    z = []
    for seed in range(300):
        est = st.estimate_call(MERTON, t, K, st.SimConfig(n_paths=100, master_seed=seed))
        assert est.std_error > 0, seed
        z.append((est.value - exact) / est.std_error)
    assert np.std(z) < 1.2 and np.max(np.abs(z)) < 5, (np.std(z), np.min(z), np.max(z))


@pytest.mark.parametrize("r", [0.0, 0.05])
def test_fitted_control_dominates_both_fixed_coefficients(r):
    # beta fitted on the sample minimises the residual over every beta, so
    # its standard error is at most that of beta = 0 (the calls alone) and
    # of beta = 1 (the puts plus the exact forward)
    ec = st.ExpModelCharacteristics(1.0, r, 0.2, st.normal_jumps(1.0, 0.0, 0.4))
    n = 2**16
    for t in (1e-3, 0.03):
        h, jumps, _ = _redrawn_block(ec, t, n, seed=7)
        Ks = [0.8, 0.9, 1.0, 1.1, 1.2]
        row = price_grid(ec, [t], Ks, st.SimConfig(n_paths=n, master_seed=7))[0]
        for K, est in zip(Ks, row):
            call, control = _call_and_control(ec, h, jumps, K)
            _, _, residual = _fitted_control(call, control, ec.S0 * math.exp(r * t))
            fixed = min(residual(0.0), residual(1.0))
            n_cell = jumps.size
            se = math.exp(-r * t) * math.sqrt(fixed / (n_cell - 1) / n_cell)
            assert est.std_error <= se * (1.0 + 1e-12), (t, K, est.std_error, se)


AFFINE_CASES = {
    # with one atom a sample at N <= 1 sees two jump sums; some 1024 paths
    # jump, and with seed 11 one of them twice
    "single_atom": (st.ExpModelCharacteristics(1.0, 0.0, 0.2, st.atomic([(0.3, 1.0)])),
                    40000, 12),
    # two atoms, the second so rare (intensity 1e-6) that none of the
    # cell's some 1024 jumping paths draws it: with seed 3 each jumps once,
    # so the sample holds two jump sums and only the fit's rounding rule
    # keeps beta = 0
    "second_atom_not_drawn": (st.ExpModelCharacteristics(
        1.0, 0.0, 0.2, st.atomic([(0.3, 1.0), (-0.2, 1e-6)])), 100, 3),
}


@pytest.mark.parametrize("case", AFFINE_CASES)
def test_affine_samples_keep_the_calls_alone(case):
    # on two jump sums the call given J is affine in F e^J: a fitted
    # control would leave a residual of 0 and claim a standard error of 0,
    # so these cells average the calls (beta = 0); a single atom by rule,
    # any other sample because its fit leaves only rounding
    ec, n, seed = AFFINE_CASES[case]
    t = 1e-3
    h, jumps, n_jumps = _redrawn_block(ec, t, n, seed)
    assert n_jumps.max() <= 1 and np.unique(jumps).size == 2
    Ks = [0.9, 1.0, 1.1]
    for K, est in zip(Ks, price_grid(ec, [t], Ks, st.SimConfig(n_paths=n, master_seed=seed))[0]):
        call, control = _call_and_control(ec, h, jumps, K)
        m2 = np.sum((call - call.mean()) ** 2)
        n_cell = call.size
        assert est.value == pytest.approx(call.mean(), rel=1e-12, abs=0.0), K
        assert est.std_error == pytest.approx(math.sqrt(m2 / (n_cell - 1) / n_cell),
                                              rel=1e-12, abs=0.0), K
        assert est.std_error > 0, K
        # the fit these cells avoid
        _, fitted_m2, _ = _fitted_control(call, control, ec.S0)
        assert fitted_m2 <= 1e-12 * m2, K


@pytest.mark.parametrize("r", [0.0, 0.05])
def test_conditional_itm_estimates_are_at_least_intrinsic(r):
    # not a bound by construction: below the forward the fitted control
    # F e^J takes out the sampling error of the forward, which could put an
    # average of the calls alone below S0 - K e^(-rt); what is left is far
    # below the time value here, so no seed falls under that line
    ec = st.ExpModelCharacteristics(1.0, r, 0.2, st.normal_jumps(1.0, 0.0, 0.4))
    ts, Ks = [0.03, 1e-3], [0.8, 0.9, 0.95, 1.0]
    for seed in range(20):
        grid = price_grid(ec, ts, Ks, st.SimConfig(n_paths=2**16, master_seed=seed))
        for t, row in zip(ts, grid):
            for K, est in zip(Ks, row):
                if K < math.exp(r * t):
                    intrinsic = 1.0 - K * math.exp(-r * t)
                    assert est.value >= intrinsic - 1e-12, (seed, t, K, est, intrinsic)


def _pin(ec, scheme="euler_log", cutoff=0.005, ts=(0.02, 0.005, 1e-3), Ks=(1.0, 1.1)):
    return ec, scheme, cutoff, ts, Ks


PINNED_CASES = {
    **{name: _pin(ec, scheme) for name, (ec, scheme) in GRID_CASES.items()},
    "three_atoms_no_diffusion": _pin(st.ExpModelCharacteristics(
        1.0, 0.02, 0.0, st.atomic([(0.25, 3.0), (-0.15, 4.0), (0.05, 6.0)]))),
    # the Laplace sampler's Gamma pairs, and the two paths that sum per-jump
    # draws: the CDF table of a density without hooks, and the tables of a
    # callable c
    "laplace": _pin(st.ExpModelCharacteristics(
        1.0, 0.02, 0.15, st.laplace_jumps(1.5, 0.2, 0.05))),
    "density_cdf_table": _pin(st.ExpModelCharacteristics(
        1.0, 0.0, 0.0, st.density(lambda y: 3.0 * (1.0 - abs(y)), (-1.0, 1.0)))),
    "stable_callable_c": _pin(st.ExpModelCharacteristics(
        1.0, 0.0, 0.1, st.stable_like(1.5, lambda y: 0.1 * (1.0 + 0.5 * y)))),
    # the euler_log models of the mc_stable benchmark workload: every
    # power-tail stream has a Poisson mean of about 6.7 per path, so all but
    # about 0.1% of the paths jump
    "mc_stable_const_c": _pin(st.ExpModelCharacteristics(
        1.0, 0.0, 0.0, st.stable_like(1.5, 1.0)), cutoff=0.01, ts=(0.01,), Ks=(1.1, 1.2)),
    "mc_stable_callable_c": _pin(st.ExpModelCharacteristics(
        1.0, 0.0, 0.0, st.stable_like(1.5, lambda y: 1.0 + 0.5 * y)),
        cutoff=0.01, ts=(0.01,), Ks=(1.1, 1.2)),
}

# SHA-256 of the simulate_terminal samples at each maturity, and the
# (value, std_error) of every price_grid cell; every printed estimate moves
# with them, so a kernel change that is meant to be exact keeps them
PINNED = {
    "merton": (
        "3af812474ed4403a8b70bea2de1b9010f53157348777bfa181fe7e96f36b29bb",
        [(0.014391818954109372, 9.596271372945604e-05),
         (0.0032434381107671866, 8.986944740410471e-05),
         (0.0064400139918519795, 2.7752542193516363e-05),
         (0.0008029732492549505, 2.5142788768414215e-05),
         (0.0026858643163070596, 5.639775315927853e-06),
         (0.00016069592748647042, 5.038760967027129e-06)]),
    "atomic_pure_jump": (
        "06ff047ed29f88c28e02bf8d7a08659a7b7d1ccbc291868473a3b325d0cebba4",
        [(0.013451884777894142, 0.00014303214084495638),
         (0.009596053521682354, 0.00010459614620824675),
         (0.003534012757220107, 7.591884349759145e-05),
         (0.0025316511805075037, 5.5047493198302575e-05),
         (0.0007248523218868169, 6.18645092128207e-05),
         (0.0005173959495116736, 4.4158576193729956e-05)]),
    "stable_euler": (
        "9dc212dde4d4a63fa6e5ca4ff1c0c5b3ac0b460dd6756801397659793f250b39",
        [(0.024796521747711405, 0.00013847460323127215),
         (0.006570022940699199, 0.0001443843526401975),
         (0.009899115543217969, 7.32824318527303e-05),
         (0.001515354846990267, 7.399159991634595e-05),
         (0.003256877281049202, 3.4549753774816345e-05),
         (0.00028170607676662724, 3.2762918355849526e-05)]),
    "stable_exact": (
        "f659f21c7fed69c226798ae7b402df7b8b98575d24d84e0f13900eefa9516236",
        [(0.015119250153813157, 0.00020735937038590568),
         (0.0024704978832971757, 0.00017329703385705048),
         (0.0063580271861803875, 0.0001129677080326076),
         (0.0006668606937750465, 9.544042182868988e-05),
         (0.0023664334630470354, 5.044171037775903e-05),
         (0.00015125191487642213, 4.153206469521639e-05)]),
    "mixed_kernels": (
        "21d266bcea5e72296df67edddd2fca1581bbf0390043c5f99b1fa7553d9ce5a4",
        [(0.03921281707972012, 0.00012782907128081433),
         (0.010976672768640389, 0.00011150811807577061),
         (0.015118730434783388, 7.751859782537397e-05),
         (0.0016244524302293042, 4.143042576360877e-05),
         (0.004318045165540946, 3.9235805961677e-05),
         (0.00018505494960504502, 1.0070182265403715e-05)]),
    "three_atoms_no_diffusion": (
        "66a21d78c3a9d3af4c3856dbd8cc698f78b530b3e94b6fe8870e76820aa79661",
        [(0.0201312576350825, 0.00011709171079384747),
         (0.010202536701216956, 9.14088941406361e-05),
         (0.005665518976433359, 6.52301235364178e-05),
         (0.0027147554571220743, 4.63853148328766e-05),
         (0.0011206383978149095, 2.886205949978552e-05),
         (0.0005638183222571433, 3.963241329292371e-05)]),
    "laplace": (
        "16ebbcb668fb1e7eee4db8a2b7d37da932b1777a0a75dee74f8739c75006cc39",
        [(0.011761043933055446, 7.878228667205482e-05),
         (0.003187828495561814, 7.55790003244905e-05),
         (0.005091182108379854, 2.8677423300002814e-05),
         (0.0008122614821899467, 2.6673490886545043e-05),
         (0.002066746068860744, 5.706328493138378e-06),
         (0.000160468772944287, 5.194009485763571e-06)]),
    "density_cdf_table": (
        "2c0e128a9d6b5c56a126a30202f00bd11d58e6cf7c6104f721724fb63faa3f4c",
        [(0.012690855265841681, 0.00017731752977441243),
         (0.010075833254306834, 0.00015957241318759988),
         (0.003346093308367994, 9.429639595408688e-05),
         (0.0026790273497675162, 8.367214489652956e-05),
         (0.0005737601752741437, 7.677364606138956e-05),
         (0.00044704464888405593, 6.600612221078982e-05)]),
    "stable_callable_c": (
        "17c56982f68792c1e96f6cb45380ae7b6a55f34adeac481317783bd13352e353",
        [(0.025439917902131563, 0.00013951729582418242),
         (0.007910190323450247, 0.00015115786947744562),
         (0.010163643492627541, 7.417873792631736e-05),
         (0.0019706549591749045, 7.992193574861474e-05),
         (0.0032978993524377938, 3.4320735968412254e-05),
         (0.00036336258556544834, 3.247504174425866e-05)]),
    "mc_stable_const_c": (
        "645b85242c5c937dd49618db7be6818e406c7c7e67ff22c8328602cef1594115",
        [(0.03384212715946551, 0.00029408695776330187),
         (0.02055909395786682, 0.00028668406505989583)]),
    "mc_stable_callable_c": (
        "a7b0809c44ef900958ebad66098d74205c5054a8c3fc666eabe1276496d10c07",
        [(0.037941730157107785, 0.00030233402883595475),
         (0.024872923646146596, 0.00030349192758268376)]),
}


@pytest.mark.parametrize("case", PINNED_CASES)
def test_samples_and_grid_match_pinned_bytes(case):
    # a partial last block on a full-size workspace; the atoms without a
    # diffusion need the jump-sum row zeroed again for every maturity
    ec, scheme, cutoff, ts, Ks = PINNED_CASES[case]
    sha, cells = PINNED[case]
    for workers in (1, 2, 3):
        cfg = st.SimConfig(n_paths=2**16 + 500, master_seed=31, scheme=scheme,
                           small_jump_cutoff=cutoff, n_workers=workers)
        digest = hashlib.sha256()
        for t in ts:
            digest.update(st.simulate_terminal(ec, t, cfg).tobytes())
        grid = price_grid(ec, ts, Ks, cfg)
        assert digest.hexdigest() == sha, f"n_workers={workers}"
        assert repr([(e.value, e.std_error) for row in grid for e in row]) == repr(cells), \
            f"n_workers={workers}"


def test_estimate_memory_flat_in_paths():
    def traced_peak_mb(n_paths):
        tracemalloc.start()
        try:
            st.estimate_call(MERTON, 0.01, 1.1, st.SimConfig(n_paths=n_paths, master_seed=1))
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    small, large = traced_peak_mb(2**18), traced_peak_mb(2**21)
    assert large < 8.0, large
    assert large <= 1.5 * small, (small, large)


# ----------------------------------------------------------------------
# stable-like schemes

def test_cms_standard_stable_moments():
    rng = np.random.default_rng(42)
    n = 400000
    u = rng.uniform(-np.pi / 2, np.pi / 2, n)
    e = rng.standard_exponential(n)
    z = _stable_standard(u, e, 1.5)
    # E|Z| = (2/pi) Gamma(1 - 1/alpha) for cf exp(-|z|^alpha)
    expect = 2.0 / math.pi * gamma(1.0 - 1.0 / 1.5)
    assert abs(np.mean(np.abs(z)) - expect) < 0.03 * expect
    assert abs(np.median(z)) < 0.01


def test_stable_exact_scheme_matches_quadrature_coefficient():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.stable_like(1.5, 0.1))
    cfg = st.SimConfig(n_paths=1000000, master_seed=5,
                       scheme="exact_stable_increment")
    t = 1e-4
    est = st.estimate_call(ec, t, 1.0, cfg)
    pred = st.atm_coefficient(ec).coefficient
    scale = t ** (1 / 1.5)
    assert abs(est.value / scale - pred) <= 4 * est.std_error / scale + 0.05 * pred


@pytest.mark.parametrize("jumps", [lambda lam: st.normal_jumps(lam, 0.0, 0.4),
                                   lambda lam: st.laplace_jumps(lam, 0.2)],
                         ids=["normal", "laplace"])
def test_scaling_keeps_jump_samplers(jumps):
    cfg = st.SimConfig(n_paths=1000, master_seed=3)
    scaled = jumps(1.0).scaled(2.0)
    direct = jumps(2.0)
    a, b = (st.simulate_terminal(st.ExpModelCharacteristics(1.0, 0.0, 0.2, m),
                                 0.01, cfg) for m in (scaled, direct))
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_cutoff_too_coarse_guard():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.stable_like(1.5, 0.1))
    with pytest.raises(st.CutoffTooCoarse):
        st.simulate_terminal(ec, 1e-3, st.SimConfig(n_paths=1000,
                                                    small_jump_cutoff=0.5))


def test_scheme_measure_mismatch():
    with pytest.raises(st.ConfigError):
        st.simulate_terminal(MERTON, 0.01,
                             st.SimConfig(n_paths=1000,
                                          scheme="exact_stable_increment"))
    varying = st.stable_like(1.5, lambda y: 0.1 * (1 + 0.1 * y * y))
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, varying)
    with pytest.raises(st.ConfigError):
        st.simulate_terminal(ec, 0.01,
                             st.SimConfig(n_paths=1000,
                                          scheme="exact_stable_increment"))


def test_config_validation():
    with pytest.raises(st.InvariantViolation):
        st.SimConfig(n_paths=50)
    with pytest.raises(st.InvariantViolation):
        st.SimConfig(n_paths=1000, small_jump_cutoff=0.0)
    with pytest.raises(st.ConfigError):
        st.SimConfig(n_paths=1000, scheme="euler")


# ----------------------------------------------------------------------
# slope studies

def test_slope_study_black_scholes_exponent():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2)
    cfg = st.SimConfig(n_paths=400000, master_seed=21)
    grid = [1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2]
    study = st.slope_study(ec, 1.0, grid, 0.5, cfg)
    assert abs(study.exponent - 0.5) < 0.02
    # ratios flat near the predicted coefficient
    pred = st.atm_coefficient(ec).coefficient
    for row in study.rows:
        assert abs(row.ratio - pred) < 0.05 * pred + 4 * row.ratio_std_error


def test_slope_study_merton_otm_ratio_converges():
    cfg = st.SimConfig(n_paths=2000000, master_seed=22)
    grid = [3e-4, 1e-3, 1e-2, 0.03]
    study = st.slope_study(MERTON, 1.2, grid, 1.0, cfg)
    pred = st.otm_slope(MERTON, 1.2).coefficient
    smallest = min(study.rows, key=lambda r: r.t)
    assert abs(smallest.ratio - pred) <= 3 * smallest.ratio_std_error + 0.02 * pred


def test_slope_study_grid_validation():
    cfg = st.SimConfig(n_paths=1000)
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2)
    with pytest.raises(st.DomainError):
        st.slope_study(ec, 1.0, [1e-3, 1e-2], 0.5, cfg)
    with pytest.raises(st.DomainError):
        st.slope_study(ec, 1.0, [1e-3, 2e-3, 4e-3, 8e-3], 0.5, cfg)
    with pytest.raises(st.DomainError):
        st.slope_study(ec, 1.0, [0.003, 0.03, 0.1, 0.3], 0.5, cfg)


def test_slope_study_insufficient_signal():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0)  # everything is zero a.s.
    cfg = st.SimConfig(n_paths=1000, master_seed=1)
    with pytest.raises(st.InsufficientSignal):
        st.slope_study(ec, 1.0, [1e-4, 1e-3, 1e-2, 0.05], 0.5, cfg)


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_slope_study_exact_rows_raise_insufficient_signal(sigma):
    # a jump too rare to occur in 1000 paths, nor in the 2**53 a
    # conditional cell stands for at most: with sigma = 0 every row is the
    # deterministic price, whose standard error of 0 gives the regression
    # no weight (it ended in a ZeroDivisionError); with sigma > 0 the
    # conditional kernel refuses the rows itself, since no jump moved a path
    ec = st.ExpModelCharacteristics(1.0, 0.05, sigma, st.atomic([(0.1, 1e-20)]))
    cfg = st.SimConfig(n_paths=1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(st.InsufficientSignal):
            st.slope_study(ec, 1.0, [1e-3, 3e-3, 1e-2, 0.1], 1.0, cfg)


def test_stepwise_rate_hook():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0)
    cfg = st.SimConfig(n_paths=500, n_steps=100)
    t = 0.5
    rate = lambda s: 0.02 if s < 0.25 else 0.06
    s = st.simulate_terminal(ec, t, cfg, rate_fn=rate)
    # deterministic model: S_t = exp(integral of r)
    assert s[0] == pytest.approx(math.exp(0.02 * 0.25 + 0.06 * 0.25), rel=1e-9)
