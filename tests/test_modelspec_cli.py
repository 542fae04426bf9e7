"""Spec-file schema, CLI commands, exit codes, output determinism."""

import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst
from scipy import integrate
from scipy.stats import norm

import smalltime as st
from smalltime import cli, modelspec
from test_exact_prices import merton_call

BS_SPEC = {
    "model": {"S0": 1.0, "r": 0.0, "sigma": 0.2, "jumps": {"type": "none"}},
    "query": {"strike": 1.0, "t_grid": [0.001, 0.003, 0.01, 0.03]},
    "sim": {"n_paths": 100000, "master_seed": 0},
}

MERTON_SPEC = {
    "model": {"S0": 1.0, "r": 0.0, "sigma": 0.2,
              "jumps": {"type": "density", "family": "normal",
                        "intensity": 1.0, "mean": 0.0, "std": 0.4}},
    "query": {"strike": 1.2},
    "sim": {"n_paths": 200000, "master_seed": 0},
}


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


# ----------------------------------------------------------------------
# schema

def test_round_trip_parse_emit():
    for raw in (BS_SPEC, MERTON_SPEC,
                {"time_change": {"b": 0.1, "sigma2": 0.04, "theta0": 2.0,
                                 "nu": {"type": "atomic", "atoms": [[0.5, 1.0]]}}},
                {"markov": {"b": [0.0], "Sigma": [[0.2]],
                            "jump_map": {"type": "identity"},
                            "nu": {"type": "atomic", "atoms": [[0.5, 1.0], [-0.5, 1.0]]},
                            "f": {"family": "affine", "weights": [1.0]},
                            "Z0": [0.0]}}):
        spec = modelspec.parse(raw)
        assert modelspec.parse(modelspec.emit(spec)) == spec


def test_schema_rejects_bad_specs():
    bad = [
        {},  # no block
        {"model": BS_SPEC["model"], "time_change": {"theta0": 1.0}},  # two blocks
        {"model": {"S0": -1.0, "r": 0.0, "sigma": 0.2, "jumps": {"type": "none"}}},
        {"model": {"S0": 1.0, "jumps": {"type": "atomic", "atoms": [[0.1]]}}},
        {"model": {"S0": 1.0, "jumps": {"type": "weird"}}},
        {"model": BS_SPEC["model"], "sim": {"n_paths": "many"}},
        {"model": BS_SPEC["model"], "sim": {"n_paths": 50}},
        {"model": BS_SPEC["model"], "sim": {"scheme": "euler"}},
        {"model": BS_SPEC["model"], "extra": 1},
        {"model": {"S0": 1.0, "jumps": {"type": "stable_like", "alpha": 2.5, "c": 0.1}}},
        {"model": dict(BS_SPEC["model"], S0=math.inf)},
        {"model": {"S0": 1.0, "jumps": {"type": "atomic", "atoms": [["a", 1.0]]}}},
        {"model": BS_SPEC["model"], "query": {"t_grid": [0.01, math.inf]}},
    ]
    for raw in bad:
        with pytest.raises(st.SpecError):
            modelspec.parse(raw)


def test_spec_builds_model_objects():
    spec = modelspec.parse(MERTON_SPEC)
    ec = spec.exp_model()
    assert ec.S0 == 1.0 and ec.sigma == 0.2
    assert ec.jumps.form == "density"
    cfg = spec.sim_config(master_seed=5)
    assert cfg.master_seed == 5 and cfg.n_paths == 200000


def test_time_change_spec_characteristics():
    spec = modelspec.parse({"time_change": {"b": 0.1, "sigma2": 0.04,
                                            "theta0": 2.0,
                                            "nu": {"type": "atomic",
                                                   "atoms": [[0.5, 1.0]]}}})
    ch = spec.local_characteristics()
    assert ch.delta[0, 0] == pytest.approx(math.sqrt(0.04 * 2.0))


# ----------------------------------------------------------------------
# CLI commands

def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cmd_asymptotics_matches_library(tmp_path, capsys):
    path = write_spec(tmp_path, MERTON_SPEC)
    code, out, _ = run_cli(capsys, ["asymptotics", "--spec", path])
    assert code == 0
    rec = json.loads(out)
    lib = st.otm_slope(modelspec.parse(MERTON_SPEC).exp_model(), 1.2)
    assert rec["regime"] == "OTM"
    assert rec["coefficient"] == lib.coefficient
    assert rec["exponent"] == 1.0


def test_cmd_asymptotics_atm_bs(tmp_path, capsys):
    path = write_spec(tmp_path, BS_SPEC)
    code, out, _ = run_cli(capsys, ["asymptotics", "--spec", path])
    rec = json.loads(out)
    assert code == 0
    assert rec["regime"] == "ATM_Diffusive"
    assert rec["exponent"] == 0.5
    assert rec["coefficient"] == pytest.approx(0.2 / math.sqrt(2 * math.pi),
                                               rel=1e-12)


def test_cmd_asymptotics_zero_jump_otm(tmp_path, capsys):
    path = write_spec(tmp_path, BS_SPEC)
    code, out, _ = run_cli(capsys, ["asymptotics", "--spec", path,
                                    "--strike", "1.2"])
    rec = json.loads(out)
    assert code == 0 and rec["coefficient"] == 0.0


def test_cmd_asymptotics_laplace_kink_inside_the_otm_range(tmp_path, capsys):
    # the density's kink at its mean 0.05 lies above ln 1.05: before it was
    # a quadrature breakpoint the two OTM routes disagreed (exit 4)
    spec = {"model": {"S0": 1.0, "r": 0.0, "sigma": 0.2,
                      "jumps": {"type": "density", "family": "laplace", "intensity": 100.0,
                                "mean": 0.05, "scale": 0.2}},
            "query": {"strike": 1.05}}
    code, out, err = run_cli(capsys, ["asymptotics", "--spec", write_spec(tmp_path, spec)])
    assert code == 0, err
    assert json.loads(out)["regime"] == "OTM"


def test_cmd_expansion_examples(tmp_path, capsys):
    spec = {"model": {"S0": 2.0, "r": 0.07, "sigma": 0.0, "jumps": {"type": "none"}},
            "query": {"f": {"family": "affine", "weights": [1.0]}, "t": 0.01}}
    path = write_spec(tmp_path, spec)
    code, out, _ = run_cli(capsys, ["expansion", "--spec", path])
    rec = json.loads(out)
    assert code == 0
    assert rec["generator_value"] == pytest.approx(0.07 * 2.0, rel=1e-12)
    assert rec["expansion"] == pytest.approx(2.0 + 0.01 * 0.14, rel=1e-12)


def test_cmd_expansion_markov_base_point(tmp_path, capsys):
    spec = {"markov": {"b": [0.3], "Sigma": [[0.0]],
                       "jump_map": {"type": "identity"},
                       "nu": {"type": "none"},
                       "f": {"family": "affine", "weights": [1.0], "intercept": 2.0},
                       "Z0": [0.0]},
            "query": {"f": {"family": "polynomial", "coeffs": [0.0, 0.0, 1.0]},
                      "t": 0.01}}
    path = write_spec(tmp_path, spec)
    code, out, _ = run_cli(capsys, ["expansion", "--spec", path])
    rec = json.loads(out)
    assert code == 0
    # state is f(Z) with f(Z0) = 2, drift 0.3: L g = 0.3 * g'(2) = 1.2
    assert rec["x"] == 2.0
    assert rec["generator_value"] == pytest.approx(1.2, rel=1e-12)


MARKOV_2D = {"b": [0.1, 0.0], "Sigma": [[0.3, 0.0], [0.1, 0.2]],
             "f": {"family": "affine", "weights": [1.0, 1.0]}, "Z0": [0.0, 0.1]}


@pytest.mark.parametrize("spec, generator_value", [
    # 0.5 sigma^2 x^2 f''(x) at x = K = S0, with f''(K) = 0.75 n
    ({"model": BS_SPEC["model"],
      "query": {"f": {"family": "mollified_call", "strike": 1.0, "n": 1e6}}},
     0.5 * 0.04 * 0.75e6),
    # f(S0) and its derivatives vanish to double precision 1000 widths away
    ({"model": BS_SPEC["model"],
      "query": {"f": {"family": "gaussian_bump", "center": 0.0, "width": 1e-3}}},
     0.0),
    # the state is e^{30 z1 + z2} ~ 1.1 at Z0 = (0, 0.1): L g = the drift of f(Z)
    ({"markov": dict(MARKOV_2D, f={"family": "exp_affine", "weights": [30.0, 1.0]}),
      "query": {"f": {"family": "affine", "weights": [1.0]}}},
     math.exp(0.1) * (30.0 * 0.1 + 0.5 * (900.0 * 0.09 + 2 * 30.0 * 0.03 + 0.05))),
    # a bump 60 widths below S0, reached only by jumps: its remainder from
    # the far tail overflowed (quadrature error inf, exit 4); L f(S0) is
    # the jump integral of f(S0 e^y), here over u = S0 e^y
    ({"model": {"S0": 1.3, "r": 0.01, "sigma": 0.2, "jumps": MERTON_SPEC["model"]["jumps"]},
      "query": {"f": {"family": "gaussian_bump", "center": 1.0, "width": 5e-3}}},
     integrate.quad(lambda u: math.exp(-0.5 * ((u - 1.0) / 5e-3) ** 2)
                    * norm.pdf(math.log(u / 1.3), 0.0, 0.4) / u,
                    0.8, 1.2, points=[1.0], epsabs=1e-14, epsrel=1e-13)[0]),
], ids=["mollified_call_n_1e6", "gaussian_bump_width_1e-3", "markov_exp_affine_30",
        "gaussian_bump_from_far_tail"])
def test_cmd_expansion_on_sharp_or_large_functions(tmp_path, capsys, spec, generator_value):
    path = write_spec(tmp_path, spec)
    code, out, err = run_cli(capsys, ["expansion", "--spec", path, "--t", "0.001"])
    assert code == 0 and err == ""
    rec = json.loads(out, parse_constant=_reject_constant)
    assert rec["generator_value"] == pytest.approx(generator_value, rel=1e-12, abs=1e-300)


def test_cmd_expansion_wide_mollified_call_under_stable_jumps(tmp_path, capsys):
    # the band [0, 2] holds every jump: the direct quotient of the remainder
    # lost digits near y = 0 and quadrature refused it (exit 4)
    spec = {"model": {"S0": 1.0, "r": 0.01, "sigma": 0.2,
                      "jumps": {"type": "stable_like", "alpha": 1.5, "c": 1.0}},
            "query": {"f": {"family": "mollified_call", "strike": 1.0, "n": 1}}}
    path = write_spec(tmp_path, spec)
    code, out, err = run_cli(capsys, ["expansion", "--spec", path, "--t", "0.001"])
    assert code == 0 and err == ""
    rec = json.loads(out, parse_constant=_reject_constant)
    # r f'(1) + sigma^2 f''(1)/2 + the jump integral of f(e^y) - f(1) -
    # (e^y - 1) f'(1) against |y|^-2.5 on [-1, 1], the last by mpmath at 40
    # digits
    assert rec["generator_value"] == pytest.approx(1.585391894240993, rel=1e-9)


@pytest.mark.parametrize("nu", [
    {"type": "atomic", "atoms": [[0.1, 1.0]]},
    {"type": "density", "family": "normal", "intensity": 1.0, "mean": 0.0, "std": 0.3},
], ids=["atomic", "normal"])
@pytest.mark.parametrize("jump_map", [{"type": "identity"}, {"type": "scale", "factor": 2.0}],
                         ids=["identity", "scale"])
def test_exit_2_on_multi_coordinate_markov_with_jumps(tmp_path, capsys, nu, jump_map):
    spec = {"markov": dict(MARKOV_2D, nu=nu, jump_map=jump_map),
            "query": {"f": {"family": "affine", "weights": [1.0]}, "t": 0.001}}
    with pytest.raises(st.SpecError, match="2 coordinates takes no jumps"):
        modelspec.parse(spec)
    code, out, err = run_cli(capsys, ["expansion", "--spec", write_spec(tmp_path, spec)])
    assert code == 2 and out == ""
    assert err.startswith("spec error: ") and err.count("\n") == 1, err


def test_multi_coordinate_markov_without_jumps(tmp_path, capsys):
    spec = {"markov": MARKOV_2D, "query": {"f": {"family": "affine", "weights": [1.0]}}}
    code, out, _ = run_cli(capsys, ["expansion", "--spec", write_spec(tmp_path, spec),
                                    "--t", "0.001"])
    assert code == 0
    assert json.loads(out)["generator_value"] == pytest.approx(0.1, rel=1e-12)


def test_cmd_verify_pass_and_determinism(tmp_path, capsys):
    path = write_spec(tmp_path, BS_SPEC)
    argv = ["verify", "--spec", path, "--seed", "0"]
    code1, out1, _ = run_cli(capsys, argv + ["--workers", "1"])
    code2, out2, _ = run_cli(capsys, argv + ["--workers", "3"])
    assert code1 == code2 == 0
    assert out1 == out2
    rec = json.loads(out1)
    assert rec["verdict"] == "PASS"
    assert rec["predicted"] == pytest.approx(0.0797884560, rel=1e-8)
    assert len(rec["rows"]) == 4


def test_cmd_verify_forced_failure_exit_5(tmp_path, capsys, monkeypatch):
    path = write_spec(tmp_path, BS_SPEC)
    leading_term = cli.asym.leading_term

    def doubled(*args):
        res = leading_term(*args)
        return dataclasses.replace(res, coefficient=2.0 * res.coefficient)

    monkeypatch.setattr(cli.asym, "leading_term", doubled)
    code, out, err = run_cli(capsys, ["verify", "--spec", path])
    assert code == 5
    assert json.loads(out)["verdict"] == "FAIL"


def test_cmd_verify_csv_format(tmp_path, capsys):
    path = write_spec(tmp_path, BS_SPEC)
    code, out, _ = run_cli(capsys, ["verify", "--spec", path, "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,estimate,std_error,ratio,predicted"
    assert len(lines) == 5
    assert len(lines[1].split(",")) == 5


def test_asymptotics_and_verify_print_the_discounted_itm_slope(tmp_path, capsys):
    spec = {"model": {"S0": 1.0, "r": 0.05, "sigma": 0.2, "jumps": {"type": "none"}},
            "query": {"strike": 0.8, "t_grid": [0.001, 0.003, 0.01, 0.03]},
            "sim": {"n_paths": 200000, "master_seed": 0}}
    path = write_spec(tmp_path, spec)
    _, out, _ = run_cli(capsys, ["asymptotics", "--spec", path])
    coefficient = json.loads(out)["coefficient"]
    code, out, _ = run_cli(capsys, ["verify", "--spec", path])
    predicted = json.loads(out)["predicted"]
    assert code == 0
    assert coefficient == predicted
    # the slope of the discounted price: exact Black-Scholes
    t, vol = 1e-5, 0.2 * math.sqrt(1e-5)
    d1 = (math.log(1.0 / 0.8) + (0.05 + 0.02) * t) / vol
    cdf = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))
    bs = cdf(d1) - 0.8 * math.exp(-0.05 * t) * cdf(d1 - vol)
    assert coefficient == pytest.approx((bs - 0.2) / t, abs=1e-3)


def test_cmd_simulate_csv(tmp_path, capsys):
    path = write_spec(tmp_path, BS_SPEC)
    code, out, _ = run_cli(capsys, ["simulate", "--spec", path,
                                    "--t", "0.01", "--strike", "1.0",
                                    "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,estimate,std_error,ratio,predicted"
    t, est, se, ratio, pred = lines[1].split(",")
    assert float(t) == 0.01
    assert ratio == "" and pred == ""


def test_cmd_simulate_forward_without_strike(tmp_path, capsys):
    spec = {"model": BS_SPEC["model"], "sim": BS_SPEC["sim"]}
    path = write_spec(tmp_path, spec)
    code, out, _ = run_cli(capsys, ["simulate", "--spec", path, "--t", "0.01"])
    rec = json.loads(out)
    assert code == 0
    assert rec["estimate"] == pytest.approx(1.0, abs=4 * rec["std_error"])


# maturity per intensity: at 1e7 a Poisson mean of 0.1 per path
HIGH_INTENSITY_T = {500.0: 0.001, 5000.0: 0.001, 1e7: 1e-8}


@pytest.mark.parametrize("intensity", HIGH_INTENSITY_T)
def test_cmd_simulate_high_intensity_normal_jumps(tmp_path, capsys, intensity):
    # the quadrature errors of a density's intensity, compensation and
    # integrability check grow with the intensity: absolute budgets failed
    # here with exit 4 (500, 5000) and exit 1 (1e7)
    t = HIGH_INTENSITY_T[intensity]
    jumps = {"type": "density", "family": "normal", "intensity": intensity,
             "mean": 0.0, "std": 0.4}
    spec = {"model": {**MERTON_SPEC["model"], "jumps": jumps},
            "sim": {"n_paths": 100000, "master_seed": 3}}
    path = write_spec(tmp_path, spec)
    code, out, _ = run_cli(capsys, ["simulate", "--spec", path,
                                    "--t", repr(t), "--strike", "1.05"])
    assert code == 0
    rec = json.loads(out)
    price = merton_call(1.0, 1.05, t, 0.0, 0.2, intensity, 0.0, 0.4)
    assert rec["std_error"] > 0
    assert abs(rec["estimate"] - price) <= 5 * rec["std_error"], (rec, price)


@pytest.mark.parametrize("intensity", [1e5, 1e6, 1e7])
@pytest.mark.parametrize("argv", [
    ["asymptotics", "--strike", "0.95"],
    ["asymptotics", "--strike", "1.05"],
    ["expansion", "--t", "0.001"],
    ["simulate", "--t", "1e-8", "--strike", "1.0", "--paths", "1000"],
], ids=["itm", "otm", "expansion", "simulate"])
@pytest.mark.parametrize("mean", [0.0, -0.08], ids=["centred", "martingale"])
def test_high_intensity_normal_jumps_exit_0(tmp_path, capsys, intensity, argv, mean):
    # integrals against the compensator grow with the intensity and so do
    # their quadrature errors: absolute budgets exited 4 here at 1e5 (otm,
    # expansion) and at 1e7 (itm, otm, expansion). The martingale mean
    # -std^2/2 makes simulate's compensation integral of e^y - 1 cancel to
    # about 0, so a budget relative to |value| alone rejected it at 1e6
    jumps = {"type": "density", "family": "normal", "intensity": intensity,
             "mean": mean, "std": 0.4}
    spec = {"model": {**MERTON_SPEC["model"], "jumps": jumps}, "query": QUADRATIC_AT_ONE}
    path = write_spec(tmp_path, spec)
    code, out, err = run_cli(capsys, argv[:1] + ["--spec", path] + argv[1:])
    assert code == 0 and err == "", err
    rec = json.loads(out)
    if argv[0] == "asymptotics":
        # r = 0: the coefficient is linear in the intensity
        K = float(argv[2])
        ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2, st.normal_jumps(1.0, mean, 0.4))
        unit = (st.otm_slope if K > 1.0 else st.itm_slope)(ec, K).coefficient
        assert rec["coefficient"] == pytest.approx(intensity * unit, rel=1e-9)


def test_cmd_simulate_high_intensity_laplace_forward(tmp_path, capsys):
    jumps = {"type": "density", "family": "laplace", "intensity": 300.0,
             "mean": 0.05, "scale": 0.2}
    spec = {"model": {**MERTON_SPEC["model"], "jumps": jumps},
            "sim": {"n_paths": 100000, "master_seed": 3}}
    path = write_spec(tmp_path, spec)
    code, out, _ = run_cli(capsys, ["simulate", "--spec", path, "--t", "0.001"])
    assert code == 0
    rec = json.loads(out)
    assert rec["std_error"] > 0
    assert abs(rec["estimate"] - 1.0) <= 5 * rec["std_error"], rec


def test_out_flag_writes_file(tmp_path, capsys):
    path = write_spec(tmp_path, BS_SPEC)
    target = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, ["asymptotics", "--spec", path,
                                    "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["regime"] == "ATM_Diffusive"


# ----------------------------------------------------------------------
# exit codes

def test_exit_2_on_schema_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"model": {"S0": -3}}')
    code, _, err = run_cli(capsys, ["asymptotics", "--spec", str(path)])
    assert code == 2 and "spec error" in err


@pytest.mark.parametrize("jumps, message", [
    ({"type": "density", "family": "laplace", "intensity": 1.0, "scale": 0.5},
     "field 'scale' must be < 0.5"),
    ({"type": "atomic", "atoms": [[0.1, -1.0]]},
     "atom intensity must be >= 0.0, got -1.0 at 0.1"),
], ids=["laplace_scale", "negative_atom"])
def test_exit_2_on_jump_shape_the_constructor_rejects(tmp_path, capsys, jumps, message):
    spec = {"model": dict(MERTON_SPEC["model"], jumps=jumps)}
    path = write_spec(tmp_path, spec)
    code, out, err = run_cli(capsys, ["asymptotics", "--spec", path, "--strike", "1.2"])
    assert code == 2 and out == "" and err == f"spec error: {message}\n", err


@pytest.mark.parametrize("argv", [
    ["simulate", "--t", "0.01", "--strike", "1.0", "--paths", "50"],
    ["simulate", "--t", "0.01", "--strike", "1.0", "--workers", "0"],
    ["simulate", "--t", "0.01", "--strike", "1.0", "--seed", "-3"],
    ["simulate", "--t", "-1", "--strike", "1.0"],
    ["verify", "--t-grid", "0.01,-0.001"],
    ["expansion", "--t", "-1"],
    ["asymptotics", "--strike", "nan"],
    ["asymptotics", "--strike", "inf"],
    ["simulate", "--t", "inf", "--strike", "1.0"],
    ["verify", "--t-grid", "0.01,inf"],
    ["asymptotics", "--tol", "nan"],
])
def test_exit_2_on_out_of_range_flags(tmp_path, capsys, argv):
    spec = dict(BS_SPEC, query={"strike": 1.0, "t_grid": [0.001, 0.01],
                                "f": {"family": "affine", "weights": [1.0]}})
    path = write_spec(tmp_path, spec)
    code, out, err = run_cli(capsys, argv[:1] + ["--spec", path] + argv[1:])
    assert code == 2 and out == "" and err.startswith("spec error: ")


def test_exit_2_on_unknown_command(tmp_path):
    path = write_spec(tmp_path, BS_SPEC)
    with pytest.raises(SystemExit) as exc:
        cli.main(["price", "--spec", path])
    assert exc.value.code == 2


def test_exit_2_on_missing_file(capsys):
    code, _, err = run_cli(capsys, ["asymptotics", "--spec", "/nonexistent.json"])
    assert code == 2


def test_exit_3_on_regime_unknown(tmp_path, capsys, monkeypatch):
    path = write_spec(tmp_path, BS_SPEC)
    def boom(*a, **k):
        raise st.RegimeUnknown("no formula")
    monkeypatch.setattr(cli.asym, "classify_regime", boom)
    code, _, err = run_cli(capsys, ["asymptotics", "--spec", path])
    assert code == 3 and "no asymptotic regime" in err


def test_exit_4_on_quadrature_failure(tmp_path, capsys, monkeypatch):
    path = write_spec(tmp_path, MERTON_SPEC)
    def boom(*a, **k):
        raise st.QuadratureDivergence("budget exceeded")
    monkeypatch.setattr(cli.asym, "otm_slope", boom)
    code, _, err = run_cli(capsys, ["asymptotics", "--spec", path])
    assert code == 4 and "quadrature failure" in err


def test_exit_1_on_other_model_errors(tmp_path, capsys):
    spec = {"model": {"S0": 1.0, "sigma": 0.0,
                      "jumps": {"type": "stable_like", "alpha": 1.5, "c": 0.1}},
            "sim": {"n_paths": 1000, "small_jump_cutoff": 0.5}}
    path = write_spec(tmp_path, spec)
    code, _, err = run_cli(capsys, ["simulate", "--spec", path, "--t", "0.001",
                                    "--strike", "1.0"])
    assert code == 1 and "error" in err


def test_exit_1_on_unresolved_conditional_cell(tmp_path, capsys):
    # at intensity 1e-14 no path jumps even among the 2**53 a conditional
    # cell may stand for: its estimate has no standard error to report
    spec = {"model": dict(MERTON_SPEC["model"], r=0.05,
                          jumps=dict(MERTON_SPEC["model"]["jumps"], intensity=1e-14)),
            "sim": {"n_paths": 1000}}
    path = write_spec(tmp_path, spec)
    code, out, err = run_cli(capsys, ["simulate", "--spec", path, "--t", "0.001",
                                      "--strike", "1.05"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "t = 0.001" in err, err


QUADRATIC_AT_ONE = {"f": {"family": "polynomial", "coeffs": [0.0, 0.0, 1000.0]}, "x": 1.0}


@pytest.mark.parametrize("model, argv", [
    (MERTON_SPEC["model"], ["simulate", "--t", "1e300", "--strike", "1.0"]),
    (dict(MERTON_SPEC["model"], sigma=1e200), ["simulate", "--t", "0.01"]),
    (dict(MERTON_SPEC["model"], sigma=1e200), ["expansion", "--t", "0.01"]),
    (BS_SPEC["model"], ["expansion", "--t", "1e308"]),
], ids=["poisson_mean", "simulate_sigma", "expansion_sigma", "expansion_overflow"])
def test_exit_1_on_extreme_finite_inputs(tmp_path, capsys, model, argv):
    spec = {"model": model, "query": QUADRATIC_AT_ONE, "sim": {"n_paths": 1000}}
    path = write_spec(tmp_path, spec)
    code, out, err = run_cli(capsys, argv[:1] + ["--spec", path] + argv[1:])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("S0, sigma, argv", [
    (2.16e297, 0.2, ["simulate", "--strike", "1.0", "--t", "1.0", "--paths", "100"]),
    (1.7e308, 2.0, ["simulate", "--t", "1.0", "--paths", "140000", "--workers", "2"]),
    (1.7e308, 2.0, ["verify", "--strike", "1.0", "--t-grid", "0.001,0.003,0.01,0.1",
                    "--paths", "140000", "--workers", "2"]),
], ids=["payoff_square", "exp_and_merge", "verify_two_lanes"])
def test_overflow_is_one_error_line(tmp_path, capsys, S0, sigma, argv):
    # a numpy RuntimeWarning would reach stderr ahead of the error line; as
    # an error it escapes main, from the calling thread or a pool thread
    spec = {"model": dict(MERTON_SPEC["model"], S0=S0, sigma=sigma)}
    path = write_spec(tmp_path, spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, argv[:1] + ["--spec", path] + argv[1:])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


# ----------------------------------------------------------------------
# cold start: fresh interpreters, so that no earlier test has loaded scipy

# one JSON line after the import, then one per argv (a JSON list on the
# command line) run through cli.main: its exit code, stdout and the scipy
# modules loaded so far
SCIPY_PROBE = """
import contextlib, io, json, sys
import smalltime.cli

def record(**fields):
    scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    print(json.dumps(dict(fields, scipy=scipy)))

record()
for argv in map(json.loads, sys.argv[1:]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = smalltime.cli.main(argv)
    record(code=code, out=out.getvalue())
"""


def probe_scipy(*runs):
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *map(json.dumps, runs)],
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    records = [json.loads(line) for line in run.stdout.splitlines()]
    assert len(records) == len(runs) + 1 and all(r.get("code", 0) == 0 for r in records), \
        records
    return records


def test_cold_start_loads_scipy_only_for_an_integral(tmp_path):
    # atomic coefficients are finite sums, a jump-free simulation draws
    # plain cells, and a constant-c stable-like measure checks its
    # integrability in closed form, so none of them needs QUADPACK or ndtr
    atomic = write_spec(tmp_path, {
        "model": {"S0": 1.0, "r": 0.0, "sigma": 0.2,
                  "jumps": {"type": "atomic", "atoms": [[0.1, 1.0], [-0.2, 0.5]]}},
        "query": {"f": {"family": "gaussian_bump", "center": 0.0, "width": 0.5}}},
        "atomic.json")
    free = write_spec(tmp_path, BS_SPEC, "free.json")
    stable = write_spec(tmp_path, {
        "model": {"S0": 1.0, "r": 0.0, "sigma": 0.0,
                  "jumps": {"type": "stable_like", "alpha": 1.5, "c": 0.1}},
        "sim": {"n_paths": 1000, "master_seed": 0, "scheme": "exact_stable_increment"}},
        "stable.json")
    merton = write_spec(tmp_path, MERTON_SPEC, "merton.json")
    runs = [["asymptotics", "--spec", atomic, "--strike", K] for K in ("0.9", "1.0", "1.1")]
    runs += [["expansion", "--spec", atomic, "--t", "0.001"],
             ["simulate", "--spec", free, "--t", "0.01", "--strike", "1.0", "--paths", "1000"],
             ["asymptotics", "--spec", stable, "--strike", "1.0"],
             ["simulate", "--spec", stable, "--t", "0.01", "--strike", "1.0"],
             ["asymptotics", "--spec", merton]]
    *cold, last = [r["scipy"] for r in probe_scipy(*runs)]
    assert cold == [[]] * len(runs), cold
    # the probe sees an import: the normal density's OTM slope is an integral
    assert "scipy.integrate" in last


def test_shared_parser_matches_a_fresh_process(tmp_path):
    # main parses every call with one parser: flags, defaults and a usage
    # error in one call leave nothing behind for the next
    spec = write_spec(tmp_path, dict(BS_SPEC, sim={"n_paths": 1000, "master_seed": 0}))
    out = str(tmp_path / "out.csv")
    runs = [["simulate", "--spec", spec, "--t", "0.01", "--strike", "0.9",
             "--format", "csv", "--out", out],
            ["simulate", "--spec", spec, "--t", "0.01"],
            ["simulate", "--spec", spec, "--t", "x"],
            ["asymptotics", "--spec", spec]]

    def fresh(argv):
        root = Path(__file__).resolve().parent.parent
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-m", "smalltime.cli", *argv],
                             env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                             text=True, timeout=300)
        return run.returncode, run.stdout, run.stderr

    expected = []
    for argv in runs:
        expected.append((fresh(argv), Path(out).read_text() if "--out" in argv else None))
        Path(out).unlink(missing_ok=True)
    for argv, (want, want_file) in zip(runs, expected):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert (code, stdout.getvalue(), stderr.getvalue()) == want, argv
        if want_file is not None:
            assert Path(out).read_text() == want_file
    assert [w[0] for w, _ in expected] == [0, 0, 2, 0]
    assert expected[0][1].startswith("t,estimate")


def test_first_ndtr_import_races_in_the_pool(tmp_path):
    # normal jumps need no quadrature, so the conditional cells of the first
    # blocks import scipy.special, in lane 0 and a pool thread at once
    argv = ["simulate", "--spec", write_spec(tmp_path, MERTON_SPEC), "--t", "0.001",
            "--strike", "1.05", "--paths", str(3 * 2**16)]
    out = {}
    for workers in ("1", "2"):
        _, run = probe_scipy(argv + ["--workers", workers])
        assert "scipy.special" in run["scipy"] and "scipy.integrate" not in run["scipy"]
        out[workers] = run["out"]
    assert out["1"] == out["2"]
    assert json.loads(out["1"])["strike"] == 1.05


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# extreme finite magnitudes, mixed with ordinary ones so that some runs succeed
FINITE = hst.one_of(hst.floats(min_value=0.0, allow_infinity=False),
                    hst.floats(min_value=0.01, max_value=2.0))
# negative rates included: the spec rejects them (exit 2)
RATE = hst.one_of(hst.floats(allow_nan=False, allow_infinity=False),
                  hst.floats(min_value=-0.1, max_value=0.1))
# intensities whose Poisson means per path, intensity x t over the t grid
# below, fall on both sides of the kernel crossover (0.5)
INTENSITY = hst.one_of(FINITE, hst.floats(min_value=1.0, max_value=60.0))
FUZZ_T_GRID = [0.001, 0.003, 0.01, 0.03, 0.1]
SIGNED = hst.one_of(hst.floats(allow_nan=False, allow_infinity=False),
                    hst.floats(min_value=-3.0, max_value=3.0))
# query.f from every family: narrow bumps and bands, large weights and
# coefficients, and ordinary values
TEST_FUNCTION = hst.one_of(
    hst.fixed_dictionaries({"family": hst.just("polynomial"),
                            "coeffs": hst.lists(SIGNED, max_size=4), "center": SIGNED}),
    hst.fixed_dictionaries({"family": hst.just("affine"),
                            "weights": hst.lists(SIGNED, min_size=1, max_size=1),
                            "intercept": SIGNED}),
    hst.fixed_dictionaries({"family": hst.just("exp_affine"),
                            "weights": hst.lists(SIGNED, min_size=1, max_size=1),
                            "offset": SIGNED, "scale": SIGNED}),
    hst.fixed_dictionaries({"family": hst.just("gaussian_bump"), "center": SIGNED,
                            "width": hst.one_of(FINITE, hst.floats(min_value=1e-6,
                                                                   max_value=1e-3)),
                            "height": SIGNED, "offset": SIGNED}),
    hst.fixed_dictionaries({"family": hst.just("mollified_call"), "strike": FINITE,
                            "n": hst.one_of(FINITE, hst.floats(min_value=1.0,
                                                               max_value=1e12))}))


def _jump_block(jumps, intensity, std=0.4, scale=0.2, alpha=1.5):
    return {"normal": {"type": "density", "family": "normal", "intensity": intensity,
                       "mean": 0.0, "std": std},
            "atomic": {"type": "atomic", "atoms": [[0.3, intensity]]},
            "laplace": {"type": "density", "family": "laplace", "intensity": intensity,
                        "mean": 0.0, "scale": scale},
            "stable_like": {"type": "stable_like", "alpha": alpha, "c": intensity,
                            "residual": {"type": "atomic", "atoms": [[-0.2, 1.0]]}},
            }[jumps]


DEFAULT_SHAPE = {"std": 0.4, "scale": 0.2, "alpha": 1.5}
# jump shapes, each the default or drawn: tiny and huge widths, values the
# spec rejects with exit 2 (std 0, alpha outside (1, 2), a Laplace scale
# >= 0.5)
SHAPE = hst.fixed_dictionaries({key: hst.one_of(hst.just(value), FINITE)
                                for key, value in DEFAULT_SHAPE.items()})


def _fuzz_cli(tmp_path_factory, spec, argv):
    """Every outcome exits 0-5; a success, or a failed verify, writes strict
    JSON, any other exit leaves stdout empty; stderr holds one line on a
    nonzero exit and nothing on success."""
    path = write_spec(tmp_path_factory.getbasetemp(), spec, "fuzz.json")
    out, err = io.StringIO(), io.StringIO()
    # a numpy warning would print lines of its own ahead of the result
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv[:1] + ["--spec", path] + argv[1:])
    assert code in range(6), (code, err.getvalue())
    if code in (0, 5):
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == ""
    assert err.getvalue().count("\n") == (code != 0), err.getvalue()


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
# verify on ordinary models whose Poisson means straddle the crossover
@example(S0=1.0, r=0.05, sigma=0.2, intensity=30.0, strike=1.1, t=0.01, jumps="normal",
         command="verify", shape=DEFAULT_SHAPE)
@example(S0=1.0, r=0.02, sigma=0.0, intensity=12.0, strike=1.0, t=0.01, jumps="atomic",
         command="verify", shape=DEFAULT_SHAPE)
@example(S0=2.0, r=0.0, sigma=0.3, intensity=6.0, strike=1.5, t=0.01, jumps="atomic",
         command="verify", shape=DEFAULT_SHAPE)
# huge sigma on the conditional kernel: the Black-Scholes price given the
# jump sum tends to the forward (exit 5), and on top of a huge S0 the
# forward overflows (exit 1, not an OverflowError)
@example(S0=1.0, r=0.0, sigma=9.6e9, intensity=1.0, strike=1.0, t=0.01, jumps="laplace",
         command="verify", shape=DEFAULT_SHAPE)
@example(S0=1.7e308, r=0.0, sigma=9.6e9, intensity=1.0, strike=1.0, t=0.01, jumps="atomic",
         command="verify", shape=DEFAULT_SHAPE)
# an atom's intensity times its integrand overflows (numpy scalars warned)
@example(S0=1.0, r=0.0, sigma=0.0, intensity=1.468689319763899e+306, strike=0.0, t=0.0,
         jumps="atomic", command="expansion", shape=DEFAULT_SHAPE)
# the random draws rarely give asymptotics a stable-like model
@example(S0=1.0, r=0.0, sigma=0.0, intensity=0.1, strike=1.0, t=0.01, jumps="stable_like",
         command="asymptotics", shape=DEFAULT_SHAPE)
@example(S0=1.0, r=0.0, sigma=0.2, intensity=0.1, strike=1.2, t=0.01, jumps="stable_like",
         command="asymptotics", shape=DEFAULT_SHAPE)
# jump widths whose scaled distance or normalisation overflows (numpy
# warnings from the density's sign probes before)
@example(S0=1.0, r=0.0, sigma=0.2, intensity=1.0, strike=1.05, t=0.01, jumps="normal",
         command="asymptotics", shape=dict(DEFAULT_SHAPE, std=1e-300))
@example(S0=1.0, r=0.0, sigma=0.2, intensity=1.0, strike=1.05, t=0.01, jumps="laplace",
         command="expansion", shape=dict(DEFAULT_SHAPE, scale=5e-324))
# a conditional maturity whose clock has Lambda t near 5e-324 stands for
# 2**53 paths per block, the cap that keeps the binomial draw's count in
# range (simulate exits 0, verify 0 at the money and 5 out of it)
@example(S0=1.0, r=0.0, sigma=0.2, intensity=5e-324, strike=1.0, t=0.01, jumps="normal",
         command="simulate", shape=DEFAULT_SHAPE)
@example(S0=1.0, r=0.0, sigma=0.2, intensity=1.0, strike=1.0, t=5e-324, jumps="normal",
         command="simulate", shape=DEFAULT_SHAPE)
@example(S0=1.0, r=0.0, sigma=0.2, intensity=5e-324, strike=1.1, t=0.01, jumps="normal",
         command="verify", shape=DEFAULT_SHAPE)
@example(S0=1.0, r=0.0, sigma=0.2, intensity=5e-324, strike=1.0, t=0.01, jumps="normal",
         command="verify", shape=DEFAULT_SHAPE)
@given(S0=FINITE, r=RATE, sigma=FINITE, intensity=INTENSITY, strike=FINITE, t=FINITE,
       jumps=hst.sampled_from(["normal", "atomic", "laplace", "stable_like"]),
       command=hst.sampled_from(["asymptotics", "expansion", "simulate", "verify"]),
       shape=SHAPE)
def test_fuzz_extreme_finite_inputs(tmp_path_factory, S0, r, sigma, intensity, strike, t,
                                    jumps, command, shape):
    # the Monte Carlo commands get no stable-like jumps: the normal, atomic
    # and Laplace samplers draw one value per path however large the
    # intensity, while the power-tail sampler allocates one entry per jump
    assume(jumps != "stable_like" or command in ("asymptotics", "expansion"))
    spec = {"model": {"S0": S0, "r": r, "sigma": sigma,
                      "jumps": _jump_block(jumps, intensity, **shape)},
            "query": {"f": QUADRATIC_AT_ONE["f"], "t_grid": FUZZ_T_GRID}}
    _fuzz_cli(tmp_path_factory, spec, [command, f"--strike={strike!r}", f"--t={t!r}",
                                       "--paths", "100"])


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
# a band and a bump far narrower than a 1e-5 finite-difference step
@example(S0=1.0, sigma=0.2, intensity=1.0, jumps="laplace", at_feature=True,
         f={"family": "mollified_call", "strike": 1.0, "n": 1e12})
@example(S0=1.0, sigma=0.2, intensity=1.0, jumps="normal", at_feature=True,
         f={"family": "gaussian_bump", "center": 1.0, "width": 1e-6})
# a width whose square underflows (a ZeroDivisionError traceback before)
@example(S0=1.0, sigma=0.2, intensity=1.0, jumps="none", at_feature=False,
         f={"family": "gaussian_bump", "center": 0.0, "width": 3.7e-277})
@given(S0=hst.one_of(hst.just(1.0), hst.floats(min_value=0.5, max_value=2.0), FINITE),
       sigma=hst.one_of(hst.just(0.2), FINITE),
       intensity=hst.one_of(hst.just(1.0), INTENSITY),
       jumps=hst.sampled_from(["none", "normal", "atomic", "laplace", "stable_like"]),
       f=TEST_FUNCTION, at_feature=hst.booleans())
def test_fuzz_expansion_test_functions(tmp_path_factory, S0, sigma, intensity, jumps, f,
                                       at_feature):
    # the generator of every family, on the sharp feature (the band of a
    # mollified call, the peak of a bump) or at a drawn point
    if at_feature and f["family"] in ("gaussian_bump", "mollified_call"):
        f = dict(f, **{"center" if "center" in f else "strike": S0})
    jump_block = {"type": "none"} if jumps == "none" else _jump_block(jumps, intensity)
    spec = {"model": {"S0": S0, "r": 0.01, "sigma": sigma, "jumps": jump_block},
            "query": {"f": f}}
    _fuzz_cli(tmp_path_factory, spec, ["expansion", "--t", "0.001"])
