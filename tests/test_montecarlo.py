"""Simulator correctness: oracles, martingale checks, determinism, schemes.

Monte Carlo assertions use generous z-score bands (4 standard errors unless
the source statement says otherwise) with fixed seeds, so they are
deterministic.
"""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import gamma
from scipy.stats import chisquare, ks_2samp, norm, poisson

import smalltime as st
from smalltime.montecarlo import (_SPARSE_BELOW, _WORKSPACE_ROWS, _CompoundPoisson,
                                  _poisson_counts, _SimulationPlan, _stable_standard,
                                  _table_sampler, price_grid)


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


def test_huge_strike_exactly_zero():
    cfg = st.SimConfig(n_paths=100000, master_seed=5)
    est = st.estimate_call(MERTON, 0.01, math.exp(10.0), cfg)
    assert est.value == 0.0
    assert est.std_error == 0.0


def test_estimate_fields():
    cfg = st.SimConfig(n_paths=50000, master_seed=6)
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2)
    t, K = 0.01, 1.0
    est = st.estimate_call(ec, t, K, cfg)
    s = st.simulate_terminal(ec, t, cfg)
    pay = np.maximum(s - K, 0.0)
    assert est.n_paths == 50000
    assert est.value == pytest.approx(pay.mean())
    assert est.std_error == pytest.approx(pay.std(ddof=1) / math.sqrt(pay.size))


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

COUNT_MEANS = [1e-300, 1e-3, 0.03, float(np.nextafter(_SPARSE_BELOW, 0.0)), _SPARSE_BELOW,
               6.66]


def _philox(*key):
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


@pytest.mark.parametrize("n", [100, 2**16 + 500])
@pytest.mark.parametrize("mu", COUNT_MEANS)
def test_poisson_counts_law(mu, n):
    rng = _philox(77, n)
    calls = max(1, 2**18 // n)
    full = np.zeros((calls, n), dtype=np.int64)
    for row in full:
        paths, counts = _poisson_counts(rng, mu, n)
        if mu < _SPARSE_BELOW:
            assert paths.dtype.kind == "i" and paths.size == counts.size
            assert np.unique(paths).size == paths.size
            assert paths.size == 0 or 0 <= paths.min() <= paths.max() < n
            assert np.all(counts >= 1)
        else:
            assert paths == slice(None) and counts.size == n
        row[paths] = counts
    full = full.ravel()
    N = full.size
    if mu == 1e-300:
        assert not full.any()  # no path jumps: the m = 0 draw
        return
    assert abs(full.mean() - mu) <= 5 * math.sqrt(mu / N)
    # the sample variance of Poisson(mu) counts has variance ~ (mu + 2 mu^2) / N
    assert abs(full.var(ddof=1) - mu) <= 5 * math.sqrt((mu + 2 * mu * mu) / N)
    # chi-square over the counts, zeros included, with the tail pooled into
    # the last bin from where fewer than 5 counts are expected per bin
    top = int(poisson.isf(5.0 / N, mu))
    observed = np.bincount(np.minimum(full, top), minlength=top + 1)
    expected = N * poisson.pmf(np.arange(top + 1), mu)
    expected[top] = N * poisson.sf(top - 1, mu)
    assert chisquare(observed, expected).pvalue > 1e-3


def test_poisson_counts_dense_branch_is_one_draw_per_path():
    a, b = _philox(5, 0), _philox(5, 0)
    paths, counts = _poisson_counts(a, _SPARSE_BELOW, 1000)
    assert paths == slice(None)
    assert np.array_equal(counts, b.poisson(_SPARSE_BELOW, 1000))


class _EdgeUniforms:
    """Generator stand-in: every path jumps, and the first-arrival uniforms
    are given, so the residual means reach the sampler as computed."""

    def __init__(self, u):
        self.u = np.asarray(u)
        self.means = None

    def binomial(self, n, p):
        return self.u.size

    def choice(self, n, m, replace):
        return np.arange(m)

    def random(self, m):
        return self.u.copy()

    def poisson(self, lam):
        self.means = lam.copy()
        return np.zeros(lam.size, dtype=np.int64)


def test_poisson_counts_residual_mean_clamped_at_zero():
    # U = 0 leaves the whole mean mu; U -> 1 leaves about 0, and one ulp
    # past 1 stands in for the rounding that lands below 0
    mu = 0.3
    rng = _EdgeUniforms([0.0, 0.5, np.nextafter(1.0, 0.0), 1.0 + 2.0**-52])
    paths, counts = _poisson_counts(rng, mu, 10)
    assert np.all(rng.means >= 0.0)
    assert rng.means[0] == pytest.approx(mu, rel=1e-15)
    assert rng.means[1] == pytest.approx(mu + math.log1p(0.5 * math.expm1(-mu)), rel=1e-14)
    assert rng.means[3] == 0.0
    assert np.array_equal(counts, [1, 1, 1, 1])


def test_compound_poisson_draw_without_jumps():
    # m = 0: every hook sees an empty count vector and the row stays zero
    normal = st.normal_jumps(1.0, 0.0, 0.4).sum_sampler
    part = _CompoundPoisson([(1.0, normal), (2.0, lambda rng, counts: 0.3 * counts)], 0.0)
    out = np.full(2**16, np.nan)
    assert not part.draw(_philox(1, 1), 1e-300, out).any()


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
    # two streams, Poisson means 0.4 and 0.3: paths that jump on both merge,
    # and one jump of each size leaves a jump sum of exactly 0
    "two_atoms": (st.ExpModelCharacteristics(
        1.0, 0.02, 0.15, st.atomic([(0.1, 0.4), (-0.1, 0.3)])), 1.0),
    "laplace": (st.ExpModelCharacteristics(
        1.0, 0.02, 0.15, st.laplace_jumps(1.5, 0.2, 0.05)), 0.2),
}


@pytest.mark.parametrize("case", CONDITIONAL_CASES)
def test_conditional_block_matches_brute_force(case):
    ec, t = CONDITIONAL_CASES[case]
    Ks = [0.0, 0.9, 1.0, 1.15]
    n = 40000  # one partial block
    cfg = st.SimConfig(n_paths=n, master_seed=5)
    plan = _SimulationPlan(ec, [t], cfg, None)
    (h,) = plan.horizons
    assert h.conditional
    # redraw the block's jumps from its key, stream by stream, into a row
    # with one entry per path
    rng = _philox(cfg.master_seed, 0)
    jumps, n_jumps = np.zeros(n), np.zeros(n, dtype=np.int64)
    for part in plan.parts:
        for lam, sum_sampler in part.streams:
            paths, counts = _poisson_counts(rng, lam * t, n)
            jumps[paths] += sum_sampler(rng, counts)
            n_jumps[paths] += counts
    if case == "two_atoms":
        assert np.any((n_jumps > 0) & (jumps == 0.0))
    # given its jump sum, a path's log price is Gaussian: Black-Scholes
    sd = ec.sigma * math.sqrt(t)
    log_forward = math.log(ec.S0) + h.log_drift + 0.5 * sd * sd + jumps
    disc = math.exp(-ec.r * t)
    for K, est in zip(Ks, price_grid(ec, [t], Ks, cfg)[0]):
        if K == 0.0:
            pay = np.exp(log_forward)
        else:
            d1 = (log_forward - math.log(K)) / sd + 0.5 * sd
            pay = np.maximum(np.exp(log_forward) * norm.cdf(d1) - K * norm.cdf(d1 - sd), 0.0)
        m2 = np.sum((pay - pay.mean()) ** 2)
        assert est.value == pytest.approx(disc * pay.mean(), rel=1e-12, abs=0.0), K
        assert est.std_error == pytest.approx(disc * math.sqrt(m2 / (n - 1) / n),
                                              rel=1e-12, abs=0.0), K


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
    # power-tail stream has a Poisson mean of about 6.7 per path, so these
    # draws take the dense branch of _poisson_counts
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
        "3b198b1ec65670134e78142356ca51a7683cf5c05b3f43b4e444cc94c4c4acc1",
        [(0.014660236925646738, 0.00024380955291232015),
         (0.0035219907054372993, 0.000221236892415991),
         (0.006581335119981393, 0.00012024335482423489),
         (0.0009331164523379236, 0.00010713961886175472),
         (0.002602297804498049, 3.272612157007303e-05),
         (9.117833458578242e-05, 2.7564821854101154e-05)]),
    "atomic_pure_jump": (
        "9e4bc8adab31f5defaa9b9433e0e855dc1f64302754d961fe6fa555f546197fc",
        [(0.013498789580237236, 0.0002664284162129544),
         (0.009624441556874438, 0.00019324891062430814),
         (0.003499919117566137, 0.00013600965923839887),
         (0.0024991000833486207, 9.75002821394594e-05),
         (0.0007248523218868169, 6.18645092128207e-05),
         (0.0005173959495116736, 4.4158576193729956e-05)]),
    "stable_euler": (
        "5829365ab7d55905f425a674b64dde9ee5ae2d89785a0ffa5971f190bc9a4f16",
        [(0.02448602070685249, 0.00026127584178214805),
         (0.0062583432199923884, 0.000199991959369654),
         (0.009746971153677201, 0.0001293869185162644),
         (0.0014015345759261016, 9.300150676203625e-05),
         (0.003271682690464079, 6.068270031291083e-05),
         (0.0002759903870051287, 4.361338792548923e-05)]),
    "stable_exact": (
        "f659f21c7fed69c226798ae7b402df7b8b98575d24d84e0f13900eefa9516236",
        [(0.015119250153813157, 0.00020735937038590568),
         (0.0024704978832971757, 0.00017329703385705048),
         (0.0063580271861803875, 0.0001129677080326076),
         (0.0006668606937750465, 9.544042182868988e-05),
         (0.0023664334630470354, 5.044171037775903e-05),
         (0.00015125191487642213, 4.153206469521639e-05)]),
    "mixed_kernels": (
        "d226021c2cf3bac0ed446c74cbb55d7fa3f03be613d8d7077532d928310f473d",
        [(0.039058021059896565, 0.00026706580776608983),
         (0.010885298015087138, 0.00015229695604704061),
         (0.015097174946797312, 0.0001442950389855734),
         (0.0015630246890086814, 4.65266022157073e-05),
         (0.00433197801767225, 6.885689239581449e-05),
         (0.0001865657273277128, 1.0664067930626778e-05)]),
    "three_atoms_no_diffusion": (
        "5f0890d5fa3a6bc0137e08c12d9f0a79c950c9c2d0093d46c74bbd0657ce8f86",
        [(0.02021337060821712, 0.00026343365661423654),
         (0.010242432913857211, 0.00017697853396183037),
         (0.005632495542465708, 0.0001388322372025432),
         (0.0027473655087229755, 8.941988719596688e-05),
         (0.001154791508617537, 6.309038255914211e-05),
         (0.0005635733193935029, 4.0056969964289434e-05)]),
    "laplace": (
        "7683b4b2e046967def30fbf13297c23b48a510d57a10c6804603a2f2cad05b4c",
        [(0.01170367580650052, 0.00020455470036247607),
         (0.003156073464169566, 0.00017719724777287346),
         (0.0051493799075439965, 0.0001132617532535771),
         (0.0008504799985135487, 9.92584698251705e-05),
         (0.002114213241202125, 5.1836597465492285e-05),
         (0.0001992093968829423, 4.4467658567406913e-05)]),
    "density_cdf_table": (
        "962fcd324e70e8c44efd0c87f8fa1c805fb5650a080e9d5b00dd15ac7de09d7b",
        [(0.012500799551940394, 0.00037631954443001817),
         (0.009846388379643698, 0.00032985338516993985),
         (0.0031857757013925535, 0.00019167242085294406),
         (0.0025186087760718304, 0.00016789738587921754),
         (0.0006772621102162142, 8.654253484040891e-05),
         (0.0005391391240107146, 7.520350666800905e-05)]),
    "stable_callable_c": (
        "8458f9b1be699e9ac0203849468712fd817d92635a617a42681f49ef582391ce",
        [(0.025609695915435406, 0.00031026300129364165),
         (0.008069572615196188, 0.00025136316769906004),
         (0.009816917773285597, 0.00014773744690346787),
         (0.001714891687497447, 0.00011304766059358071),
         (0.0032671939178099073, 7.887552269721588e-05),
         (0.0003700518280316711, 6.468209173125383e-05)]),
    "mc_stable_const_c": (
        "419be66fa0b8a54db57b3338b387f287881ec511a4b7e6dd9eb3e03d2f6d5df6",
        [(0.034327201487247425, 0.0005231615324513755),
         (0.021222673348521064, 0.00045064097016799974)]),
    "mc_stable_callable_c": (
        "35cfdc2c6aac09a17b136420ffff9c0d8cc47e354b0527b8c49ac3f55ab91175",
        [(0.037472129330609165, 0.0005838919781961286),
         (0.024349765898298972, 0.0005117167484700015)]),
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


def test_cutoff_consistency_halving():
    # the cutoff must sit in the dense-jump regime (many retained jumps per
    # path); the drop-and-compensate bias then falls below MC resolution
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.stable_like(1.5, 0.1))
    t, K = 0.01, 1.0
    e1 = st.estimate_call(ec, t, K, st.SimConfig(n_paths=100000, master_seed=9,
                                                 small_jump_cutoff=0.001))
    e2 = st.estimate_call(ec, t, K, st.SimConfig(n_paths=100000, master_seed=9,
                                                 small_jump_cutoff=0.0005))
    combined = math.hypot(e1.std_error, e2.std_error)
    assert abs(e1.value - e2.value) <= 2 * combined


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
    # a jump too rare to occur in 1000 paths: with sigma = 0 every row is
    # the deterministic price, with sigma > 0 the conditional kernel's
    # Black-Scholes price; either way the standard errors are 0, the
    # regression has no weight, and it ended in a ZeroDivisionError
    ec = st.ExpModelCharacteristics(1.0, 0.05, sigma, st.atomic([(0.1, 1e-9)]))
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
