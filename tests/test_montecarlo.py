"""Simulator correctness: oracles, martingale checks, determinism, schemes.

Monte Carlo assertions use generous z-score bands (4 standard errors unless
the source statement says otherwise) with fixed seeds, so they are
deterministic.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gamma
from scipy.stats import norm

import smalltime as st
from smalltime.montecarlo import (_WORKSPACE_ROWS, _SimulationPlan, _stable_standard,
                                  price_grid)


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
# streaming grid core

GRID_CASES = {
    "merton": (MERTON, "euler_log"),
    "atomic_pure_jump": (st.ExpModelCharacteristics(
        1.0, 0.03, 0.0, st.atomic([(0.3, 2.0), (-0.4, 1.0)])), "euler_log"),
    "stable_euler": (st.ExpModelCharacteristics(
        1.0, 0.0, 0.1, st.stable_like(1.5, 0.1)), "euler_log"),
    "stable_exact": (st.ExpModelCharacteristics(
        1.0, 0.0, 0.1, st.stable_like(1.5, 0.1)), "exact_stable_increment"),
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
        for t, samples, block in zip(ts, whole, plan.draw_block(rng, ws)):
            assert np.array_equal(block, samples[lo:hi]), f"t={t} block {i}"


PINNED_CASES = {
    **GRID_CASES,
    "three_atoms_no_diffusion": (st.ExpModelCharacteristics(
        1.0, 0.02, 0.0, st.atomic([(0.25, 3.0), (-0.15, 4.0), (0.05, 6.0)])), "euler_log"),
    # the three paths that sum per-jump draws: a Laplace sampler, the CDF
    # table of a density without hooks, and the tables of a callable c
    "laplace": (st.ExpModelCharacteristics(
        1.0, 0.02, 0.15, st.laplace_jumps(1.5, 0.2, 0.05)), "euler_log"),
    "density_cdf_table": (st.ExpModelCharacteristics(
        1.0, 0.0, 0.0, st.density(lambda y: 3.0 * (1.0 - abs(y)), (-1.0, 1.0))), "euler_log"),
    "stable_callable_c": (st.ExpModelCharacteristics(
        1.0, 0.0, 0.1, st.stable_like(1.5, lambda y: 0.1 * (1.0 + 0.5 * y))), "euler_log"),
}

# SHA-256 of the simulate_terminal samples at the three maturities, and the
# (value, std_error) of every price_grid cell; every printed estimate moves
# with them, so a kernel change that is meant to be exact keeps them
PINNED = {
    "merton": (
        "77c754442f9e425c65d564313a053ff9a1b2309c25f37259d6726440ca410f16",
        [(0.014234617799773686, 0.00021456288384244683),
         (0.0030529320679162633, 0.00018124537581723493),
         (0.006261775764150118, 0.00010454848423569481),
         (0.0006523087614876507, 8.831409779833041e-05),
         (0.0027004571748212363, 5.574428772604095e-05),
         (0.0001711122665180325, 4.827046154775799e-05)]),
    "atomic_pure_jump": (
        "0e956e1522a75c205b6d35866d5c6b7d09875e221bce64f373407275ea397c4b",
        [(0.013604201220616601, 0.0002695617954004226),
         (0.009734393448843682, 0.00019674779082186027),
         (0.0035686965057059555, 0.0001382706711136758),
         (0.0025542505859998503, 9.970935763383885e-05),
         (0.000703688750444866, 6.0956537375876196e-05),
         (0.000502289498431041, 4.351047045340078e-05)]),
    "stable_euler": (
        "ab33d59929724a387cddf2b869df78e5f1461cb5b6e419ba09767782b794ac43",
        [(0.02448602070685249, 0.00026127584178214805),
         (0.0062583432199923884, 0.000199991959369654),
         (0.009746971153677201, 0.0001293869185162644),
         (0.0014015345759261016, 9.300150676203625e-05),
         (0.0032099982820967678, 6.320169882959569e-05),
         (0.0002820473144557203, 4.716414095785909e-05)]),
    "stable_exact": (
        "f659f21c7fed69c226798ae7b402df7b8b98575d24d84e0f13900eefa9516236",
        [(0.015119250153813157, 0.00020735937038590568),
         (0.0024704978832971757, 0.00017329703385705048),
         (0.0063580271861803875, 0.0001129677080326076),
         (0.0006668606937750465, 9.544042182868988e-05),
         (0.0023664334630470354, 5.044171037775903e-05),
         (0.00015125191487642213, 4.153206469521639e-05)]),
    "three_atoms_no_diffusion": (
        "d5d51a3bd36ba63b34030ada82803d1ec153ff3a09e831e0478e8d4d67c37206",
        [(0.020379920051166265, 0.0002665136593536777),
         (0.010380970122503526, 0.00018044498225378442),
         (0.005666652124387487, 0.0001397073691731489),
         (0.0027778178056739166, 9.025994938251347e-05),
         (0.001170711508344418, 6.300787195477995e-05),
         (0.0005672392753461457, 3.966130909172254e-05)]),
    "laplace": (
        "dc0f8cb8e391a1ead480686175fdf10cdada60141a4e91929393cd5118f018c0",
        [(0.011727437034554101, 0.0002201079230541634),
         (0.0032304110480539557, 0.00018921561970072298),
         (0.005061750313127433, 0.00010396964455329399),
         (0.000791609206762606, 8.663065881740394e-05),
         (0.002019235904590536, 3.521170639840189e-05),
         (0.00011881783183028191, 2.6090579545949855e-05)]),
    "density_cdf_table": (
        "62e1cd5a15b3f9874c5c23d3713c05e2641b748e383364d2885d5d5dd5c71d87",
        [(0.012482768938010357, 0.00036982968406817663),
         (0.009883002763794146, 0.0003223714263499996),
         (0.003528529769607504, 0.00020107602185650842),
         (0.002845587189203461, 0.00017571825391013852),
         (0.0007605998000632037, 9.286220677987495e-05),
         (0.0006140211466403524, 8.094040295812372e-05)]),
    "stable_callable_c": (
        "fadc01018476474eef75e026d8ace7f26532df2dc051a6010b6dbe08608d2e4f",
        [(0.02480367952511354, 0.00029257067339143064),
         (0.00739190792708452, 0.00023321685737476733),
         (0.009822751641569235, 0.0001425798513251723),
         (0.0016903479775522026, 0.00010636678707388586),
         (0.0032185262792508848, 7.015837925240733e-05),
         (0.0003415255048599315, 5.423994294352175e-05)]),
}


@pytest.mark.parametrize("case", PINNED_CASES)
def test_samples_and_grid_match_pinned_bytes(case):
    # a partial last block on a full-size workspace; the atoms without a
    # diffusion need the jump-sum row zeroed again for every maturity
    ec, scheme = PINNED_CASES[case]
    ts, Ks = [0.02, 0.005, 1e-3], [1.0, 1.1]
    sha, cells = PINNED[case]
    for workers in (1, 2, 3):
        cfg = st.SimConfig(n_paths=2**16 + 500, master_seed=31, scheme=scheme,
                           small_jump_cutoff=0.005, n_workers=workers)
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


def test_stepwise_rate_hook():
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0)
    cfg = st.SimConfig(n_paths=500, n_steps=100)
    t = 0.5
    rate = lambda s: 0.02 if s < 0.25 else 0.06
    s = st.simulate_terminal(ec, t, cfg, rate_fn=rate)
    # deterministic model: S_t = exp(integral of r)
    assert s[0] == pytest.approx(math.exp(0.02 * 0.25 + 0.06 * 0.25), rel=1e-9)
