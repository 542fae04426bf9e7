"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Every test prints a single [ACCEPTANCE] PASS/FAIL line (visible with
``pytest -s`` or in the captured output section) including its runtime, so
the suite doubles as a checklist. Monte Carlo criteria use fixed seeds.

Run with: pytest tests/test_acceptance.py -v -s
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest
from scipy.special import gamma
from scipy.stats import norm

import smalltime as st
from smalltime import cli


@contextlib.contextmanager
def criterion(number, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[ACCEPTANCE] {number} {name}: FAIL ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[ACCEPTANCE] {number} {name}: PASS ({elapsed:.1f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s over budget {budget_s}s"


MERTON = st.ExpModelCharacteristics(1.0, 0.0, 0.2, st.normal_jumps(1.0, 0.0, 0.4))


def test_criterion_1_generator_limit():
    with criterion(1, "generator short-time limit (Merton, 1e6 paths)", 30):
        t = 1e-3
        f = st.gaussian_bump(center=0.2, width=0.6)
        chars = MERTON.log_characteristics()
        x0 = math.log(MERTON.S0)
        lf = st.apply_generator(chars, f, x0)
        cfg = st.SimConfig(n_paths=1_000_000, master_seed=101)
        samples = np.log(st.simulate_terminal(MERTON, t, cfg))
        fv = f.value
        vals = np.exp(-0.5 * ((samples - 0.2) / 0.6) ** 2)  # vectorized bump
        assert np.allclose(vals[:5], [fv(s) for s in samples[:5]])
        mc = (vals.mean() - fv(x0)) / t
        se = vals.std(ddof=1) / math.sqrt(vals.size) / t
        assert abs(mc - lf) <= 3 * se, f"mc={mc} lf={lf} 3se={3*se}"


def test_criterion_2_otm_slope_verify(tmp_path):
    with criterion(2, "OTM slope via verify (1e7 paths at smallest t)", 120):
        spec = {
            "model": {"S0": 1.0, "r": 0.0, "sigma": 0.2,
                      "jumps": {"type": "density", "family": "normal",
                                "intensity": 1.0, "mean": 0.0, "std": 0.4}},
            "query": {"strike": 1.2, "t_grid": [1e-3, 3e-3, 1e-2, 3e-2]},
            "sim": {"n_paths": 10_000_000, "master_seed": 202},
        }
        path = tmp_path / "merton.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "verdict.json"
        code = cli.main(["verify", "--spec", str(path), "--out", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["verdict"] == "PASS"
        # independent closed-form lognormal slope
        k = math.log(1.2)
        sig = 0.4
        oracle = (math.exp(sig**2 / 2) * norm.cdf((sig**2 - k) / sig)
                  - 1.2 * norm.cdf(-k / sig))
        smallest = min(rec["rows"], key=lambda r: r["t"])
        band = 3 * smallest["std_error"] / smallest["t"] + 0.05 * oracle
        assert abs(smallest["ratio"] - oracle) <= band


def test_criterion_3_psi_identity():
    with criterion(3, "psi identity on 20 random compensators", 5):
        rng = np.random.default_rng(303)
        tol = 1e-9
        for i in range(20):
            pick = i % 4
            if pick == 0:
                k = int(rng.integers(1, 6))
                m = st.atomic([(float(rng.uniform(-0.9, 0.9)),
                                float(rng.uniform(0.05, 2.0)))
                               for _ in range(k)])
            elif pick == 1:
                m = st.normal_jumps(float(rng.uniform(0.2, 2.0)),
                                    float(rng.uniform(-0.2, 0.2)),
                                    float(rng.uniform(0.2, 0.5)))
            elif pick == 2:
                m = st.laplace_jumps(float(rng.uniform(0.2, 2.0)),
                                     float(rng.uniform(0.1, 0.3)))
            else:
                decay = float(rng.uniform(2.5, 4.0))
                m = st.density(lambda y, d=decay: math.exp(-d * abs(y)),
                               (-np.inf, np.inf))
            S0 = float(rng.uniform(0.5, 2.0))
            K = S0 * float(rng.uniform(1.02, 1.8))
            z = math.log(K / S0)
            lhs = S0 * st.exp_double_tail_up(m, z, tol)
            rhs = st.integrate(m, lambda y: max(S0 * math.exp(y) - K, 0.0),
                               tol, points=[z])
            assert abs(lhs - rhs) <= 1e-7, f"measure {i}: gap {abs(lhs - rhs)}"


def test_criterion_4_atm_diffusive():
    with criterion(4, "ATM diffusive coefficient vs exact price", 5):
        ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2)
        res = st.atm_coefficient(ec)
        t = 1e-4
        exact = 1.0 * (2 * norm.cdf(0.2 * math.sqrt(t) / 2) - 1)
        assert abs(res.coefficient * math.sqrt(t) - exact) <= 1e-3 * exact
        with_jumps = st.ExpModelCharacteristics(
            1.0, 0.0, 0.2, st.atomic([(0.5, 2.0), (-0.3, 1.0)]))
        res_j = st.atm_coefficient(with_jumps)
        assert res_j.coefficient == res.coefficient  # bit identical


def test_criterion_5_atm_finite_variation():
    with criterion(5, "ATM finite-variation slope (1e7 paths)", 120):
        ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.atomic([(0.5, 2.0)]))
        t = 1e-3
        cfg = st.SimConfig(n_paths=10_000_000, master_seed=505)
        est = st.estimate_call(ec, t, 1.0, cfg)
        target = 2.0 * (math.exp(0.5) - 1.0)
        band = 3 * est.std_error / t + 0.05 * target
        assert abs(est.value / t - target) <= band, \
            f"ratio={est.value / t} target={target} band={band}"


def test_criterion_6_atm_stable():
    with criterion(6, "ATM stable exponent and coefficient", 120):
        alpha, c0 = 1.5, 0.1
        quad_coeff = st.stable_positive_part_constant(alpha, c0)
        closed = gamma(1.0 - 1.0 / alpha) * c0 ** (1.0 / alpha) / math.pi
        assert abs(quad_coeff - closed) <= 1e-6 * closed
        ec = st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.stable_like(alpha, c0))
        cfg = st.SimConfig(n_paths=2_000_000, master_seed=606,
                           scheme="exact_stable_increment")
        grid = [1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2]
        study = st.slope_study(ec, 1.0, grid, 1.0 / alpha, cfg)
        assert abs(study.exponent - 1.0 / alpha) <= 0.05, study.exponent
        smallest = min(study.rows, key=lambda r: r.t)
        band = 3 * smallest.ratio_std_error + 0.10 * quad_coeff
        assert abs(smallest.ratio - quad_coeff) <= band, \
            f"ratio={smallest.ratio} pred={quad_coeff} band={band}"


def test_criterion_7_verify_determinism(tmp_path, capsys):
    with criterion(7, "byte-identical verify output across parallelism", 60):
        spec = {
            "model": {"S0": 1.0, "r": 0.0, "sigma": 0.2,
                      "jumps": {"type": "atomic", "atoms": [[0.4, 1.0]]}},
            "query": {"strike": 1.1, "t_grid": [1e-3, 3e-3, 1e-2, 3e-2]},
            "sim": {"n_paths": 300_000, "master_seed": 707},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        outputs = []
        for fmt in ("json", "csv"):
            for workers in (1, 3):
                out = tmp_path / f"out_{fmt}_{workers}"
                code = cli.main(["verify", "--spec", str(path), "--seed", "707",
                                 "--workers", str(workers), "--format", fmt,
                                 "--out", str(out)])
                assert code == 0
                outputs.append((fmt, out.read_bytes()))
        assert outputs[0][1] == outputs[1][1]  # json, workers 1 vs 3
        assert outputs[2][1] == outputs[3][1]  # csv, workers 1 vs 3
        # a second identical invocation reproduces the bytes exactly
        out2 = tmp_path / "repeat"
        cli.main(["verify", "--spec", str(path), "--seed", "707",
                  "--workers", "1", "--format", "json", "--out", str(out2)])
        assert out2.read_bytes() == outputs[0][1]


def test_criterion_8_degenerate_reduction():
    with criterion(8, "degenerate-case generator reduction (50 cases)", 30):
        rng = np.random.default_rng(808)
        tol = 1e-9
        for case in range(50):
            sigma = float(rng.uniform(0.0, 0.5))
            beta = float(rng.normal(0.0, 0.4))
            kind = case % 3
            if kind == 0:
                jumps = st.no_jumps()
            elif kind == 1:
                k = int(rng.integers(1, 5))
                jumps = st.atomic([(float(rng.uniform(-0.8, 0.8)),
                                    float(rng.uniform(0.05, 1.5)))
                                   for _ in range(k)])
            else:
                jumps = st.normal_jumps(float(rng.uniform(0.2, 1.5)),
                                        float(rng.uniform(-0.2, 0.2)),
                                        float(rng.uniform(0.2, 0.45)))
            ch = st.LocalCharacteristics([beta], [[sigma]], jumps)
            x0 = float(rng.normal(0.0, 0.5))
            coeffs = [0.0, 0.0] + [float(v) for v in rng.normal(0.0, 1.0, 3)]
            f = st.polynomial(coeffs, center=x0)
            assert f.value(x0) == 0.0 and f.gradient(x0) == 0.0
            expected = 0.5 * sigma**2 * f.hessian(x0)
            if not jumps.is_empty():
                expected += st.integrate(jumps, lambda y: f.value(x0 + y), tol)
            got = st.apply_generator(ch, f, x0, tol)
            assert got == pytest.approx(expected, abs=1e-7), f"case {case}"
