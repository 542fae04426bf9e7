"""Compare the observable output of a git revision with the working tree.

Usage::

    python tools/compare_outputs.py [REV]      # REV defaults to HEAD

Both trees run the same probes, each in a fresh interpreter with the tree's
``src`` on ``PYTHONPATH``:

* demos 01-05 (demo 05's ``spec file:`` line names a temporary directory and
  is dropped);
* the four README CLI commands on the README Merton spec, plus in-the-money
  (r > 0, no jumps), stable-like, Laplace and atomic variants, at-the-money
  runs of the Laplace and atomic specs, ``expansion`` on the jump-free,
  ``markov`` and ``time_change`` specs, and ``simulate`` without a strike
  (the discounted forward). The ``markov`` spec's image is not
  exponentially integrable, so it probes the rejection (exit 1); more
  ``markov`` specs, a Gaussian bump of normal jumps, and ``exp_affine`` of
  stable-like jumps at alpha 1.5 and, with a Gaussian bump too, at 1.8 and
  1.95, print a drift; ``asymptotics --strike 1.0`` runs on the stable-like
  spec and on one whose c = 1e308 overflows its integrability check
  (exit 1);
* high-intensity runs: ``asymptotics`` at strikes 0.95 and 1.05,
  ``expansion`` and ``simulate`` on normal jumps at intensities 1e5 and 1e7,
  the last two also with the martingale mean -std^2/2 at 1e7 (whose
  compensation integral cancels to about 0), and ``asymptotics`` and
  ``expansion`` on a stable-like model whose residual is normal jumps at
  intensity 1e7, and ``asymptotics`` on normal jumps of std 40, whose
  (e^y - 1)^2 overflows;
* an unresolved conditional cell: ``simulate`` at t = 1e-3 and strike 1.05
  on normal jumps at intensity 1e-14, where no path of the cell jumps;
* a sweep over every jump form x scheme x ``n_paths`` in {100, 2**16,
  2**17 + 1000} x ``n_workers`` in {1, 2} x t in {1e-3, 0.05} recording
  the SHA-256 of the ``simulate_terminal`` samples and then the
  ``estimate_call`` value, or the error raised, all in one process so that
  every call follows others, plus ``slope_rows`` over 3 strikes x 4
  maturities on four of the forms;
* an analytic sweep over the same jump forms recording the ``repr`` of the
  generators, the exponential double tails, ``leading_term`` at three
  strikes with and without a diffusion, ``from_time_changed_levy``, and
  ``from_markov`` on empty, atomic, normal and two-dimensional atomic
  measures with the tails and support of each image, or the error raised,
  and on a Gaussian bump of scaled normal jumps, whose level sets have two
  crossings, with its tails at five levels and its support;
* a function-family probe recording ``value``, ``gradient``, ``hessian``
  and ``curvature_remainder`` at fixed points for the five one-dimensional
  and three two-dimensional builtin families, ordinary and sharp (a
  mollified call with n = 1e6, a bump of width 1e-3, ``exp_affine`` with
  weights (30, 1)), or the error raised, plus ``expansion`` CLI runs on the
  sharp one-dimensional functions;
* a conditional-kernel probe recording every ``price_grid`` cell at
  strikes 0, 0.9, 1, 1.1 with 1 and 2 workers for Merton at t in {1e-5,
  1e-3, 0.03}, atoms at +-0.1 with sigma = 0.15, Laplace jumps with
  sigma = 0.15, and a grid whose Poisson means straddle the kernel
  crossover (plain and conditional maturities in one pass);
* a plain-kernel probe recording every ``price_grid`` cell at strikes 0,
  0.9, 1, 1.1 with 1 and 2 workers for the constant-c and callable-c
  ``euler_log`` models of the ``mc_stable`` benchmark at t = 0.01, three
  atoms without a diffusion at t in {1e-3, 0.02}, and
  ``exact_stable_increment`` at t in {1e-3, 0.01}.

Each probe records its exit code, stdout and stderr. The script prints a
unified diff of the two transcripts and exits 1 on any difference, 0 when
they are identical. Only the standard library is imported here; the probes
need the project's own dependencies.
"""

import difflib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DEMOS = ["01_generator_expansion.py", "02_moneyness_slopes.py",
         "03_atm_regimes.py", "04_markov_and_time_change.py",
         "05_cli_verify.py"]

SIM = {"n_paths": 200000, "master_seed": 0}
GRID = [0.001, 0.003, 0.01, 0.03]
BUMP = {"family": "gaussian_bump", "center": 0.2, "width": 0.6}


def _model(r, sigma, jumps):
    return {"S0": 1.0, "r": r, "sigma": sigma, "jumps": jumps}


SPECS = {
    "merton": {"model": _model(0.0, 0.2, {"type": "density", "family": "normal",
                                          "intensity": 1.0, "mean": 0.0, "std": 0.4}),
               "query": {"strike": 1.2, "t_grid": GRID, "f": BUMP}, "sim": SIM},
    "itm": {"model": _model(0.05, 0.2, {"type": "none"}),
            "query": {"strike": 0.8, "t_grid": GRID, "f": BUMP}, "sim": SIM},
    "stable": {"model": _model(0.0, 0.0, {"type": "stable_like", "alpha": 1.5, "c": 0.1}),
               "query": {"strike": 1.0, "t_grid": [1e-4, 3e-4, 1e-3, 3e-3]},
               "sim": {**SIM, "scheme": "exact_stable_increment"}},
    "laplace": {"model": _model(0.0, 0.1, {"type": "density", "family": "laplace",
                                           "intensity": 2.0, "mean": 0.0, "scale": 0.2}),
                "query": {"strike": 1.2, "t_grid": GRID}, "sim": SIM},
    "atomic": {"model": _model(0.02, 0.1, {"type": "atomic",
                                           "atoms": [[0.4, 1.0], [-0.6, 0.5]]}),
               "query": {"strike": 1.1, "t_grid": GRID}, "sim": SIM},
    "forward": {"model": _model(0.02, 0.2, {"type": "density", "family": "normal",
                                            "intensity": 1.0, "mean": 0.0, "std": 0.4}),
                "sim": SIM},
    "markov": {"markov": {"b": [0.1], "Sigma": [[0.3]],
                          "jump_map": {"type": "scale", "factor": 1.5},
                          "nu": {"type": "density", "family": "normal",
                                 "intensity": 1.0, "mean": 0.1, "std": 0.4},
                          "f": {"family": "polynomial", "coeffs": [0.0, 0.5, 1.0]},
                          "Z0": [0.2]},
               "query": {"f": BUMP}},
    # exponentially integrable images, so expansion prints a Markov drift:
    # the analytic zoo's shape, and stable-like small jumps
    "markov_bump": {"markov": {"b": [0.05], "Sigma": [[0.2]],
                               "jump_map": {"type": "scale", "factor": 0.9},
                               "nu": {"type": "density", "family": "normal",
                                      "intensity": 1.2, "mean": 0.02, "std": 0.2},
                               "f": {"family": "gaussian_bump", "center": 0.5,
                                     "width": 0.8},
                               "Z0": [0.1]},
                    "query": {"f": BUMP}},
    "markov_stable": {"markov": {"b": [0.0], "Sigma": [[0.2]],
                                 "jump_map": {"type": "identity"},
                                 "nu": {"type": "stable_like", "alpha": 1.5, "c": 0.3},
                                 "f": {"family": "exp_affine", "weights": [1.0]},
                                 "Z0": [0.0]},
                      "query": {"f": BUMP}},
    # the same shape nearer alpha = 2, with exp_affine and bump images: the
    # image's integrability probe needs its quotient by y without cancellation
    **{f"markov_stable_{alpha}_{f['family']}": {"markov": {
        "b": [0.0], "Sigma": [[0.2]], "jump_map": {"type": "identity"},
        "nu": {"type": "stable_like", "alpha": alpha, "c": 0.3}, "f": f, "Z0": [0.0]},
        "query": {"f": BUMP}}
       for alpha in (1.8, 1.95)
       for f in ({"family": "exp_affine", "weights": [1.0]},
                 {"family": "gaussian_bump", "center": 0.3, "width": 0.5})},
    "time_change": {"time_change": {"b": 0.05, "sigma2": 0.04, "theta0": 1.5,
                                    "nu": {"type": "atomic",
                                           "atoms": [[0.4, 1.0], [-0.6, 0.5]]}},
                    "query": {"f": BUMP}},
    "sharp_call": {"model": _model(0.01, 0.2, {"type": "none"}),
                   "query": {"f": {"family": "mollified_call", "strike": 1.0, "n": 1e6}}},
    **{name: {
        "model": _model(0.0, 0.2, {"type": "density", "family": "normal",
                                   "intensity": lam, "mean": mean, "std": 0.4}),
        "query": {"f": BUMP}, "sim": SIM}
       for name, lam, mean in (("normal_1e5", 1e5, 0.0), ("normal_1e7", 1e7, 0.0),
                               ("martingale_1e7", 1e7, -0.08))},
    "stable_residual": {"model": _model(0.0, 0.0, {
        "type": "stable_like", "alpha": 1.5, "c": 0.1,
        "residual": {"type": "density", "family": "normal", "intensity": 1e7,
                     "mean": 0.0, "std": 0.4}}),
        "query": {"strike": 1.05, "f": BUMP}},
    # 2c overflows: InvariantViolation, exit 1
    "stable_huge_c": {"model": _model(0.0, 0.0, {"type": "stable_like", "alpha": 1.5,
                                                 "c": 1e308}),
                      "query": {"strike": 1.0}},
    # (e^y - 1)^2 overflows against it: InvariantViolation, exit 1
    "huge_std": {"model": _model(0.0, 0.2, {"type": "density", "family": "normal",
                                            "intensity": 1.0, "mean": 0.0, "std": 40.0}),
                 "query": {"strike": 1.1}},
    # no path jumps, even among the 2**53 a conditional cell may stand for:
    # InsufficientSignal, exit 1
    "unresolved": {"model": _model(0.05, 0.2, {"type": "density", "family": "normal",
                                               "intensity": 1e-14, "mean": 0.0,
                                               "std": 0.4}),
                   "sim": {"n_paths": 1000, "master_seed": 0}},
    "sharp_bump": {"model": _model(0.01, 0.2, {"type": "density", "family": "normal",
                                               "intensity": 1.0, "mean": 0.0, "std": 0.4}),
                   "query": {"f": {"family": "gaussian_bump", "center": 1.0,
                                   "width": 1e-3}}},
}

README_COMMANDS = [
    ["asymptotics", "--strike", "1.2"],
    ["expansion", "--t", "0.001"],
    ["verify", "--t-grid", "0.001,0.003,0.01,0.03"],
    ["simulate", "--t", "0.01", "--strike", "1.0", "--format", "csv"],
]

CLI_RUNS = ([("merton", cmd) for cmd in README_COMMANDS]
            + [(name, cmd) for name in ("itm", "stable", "laplace", "atomic")
               for cmd in (["asymptotics"], ["verify"], ["verify", "--format", "csv"],
                           ["simulate", "--t", "0.01", "--workers", "2"])]
            + [("stable", ["simulate", "--t", "0.01"] + extra)
               for extra in ([], ["--strike", "1.05"])]
            + [(name, ["asymptotics", "--strike", "1.0"]) for name in ("laplace", "atomic")]
            + [(name, ["expansion", "--t", "0.001"])
               for name in ("itm", "markov", "time_change")]
            + [(name, ["expansion", "--t", "0.01"])
               for name in ("markov_bump", "markov_stable")]
            + [(name, ["expansion", "--t", "0.01"])
               for name in SPECS if name.startswith("markov_stable_")]
            + [(name, ["asymptotics", "--strike", "1.0"]) for name in ("stable", "stable_huge_c")]
            + [("forward", ["simulate", "--t", "0.01"] + extra)
               for extra in ([], ["--workers", "2", "--format", "csv"])]
            + [(name, ["expansion", "--t", "0.001"]) for name in ("sharp_call", "sharp_bump")]
            + [(name, cmd) for name in ("normal_1e5", "normal_1e7")
               for cmd in (["asymptotics", "--strike", "0.95"],
                           ["asymptotics", "--strike", "1.05"],
                           ["expansion", "--t", "0.001"],
                           ["simulate", "--t", "1e-8", "--strike", "1.0"])]
            + [("martingale_1e7", cmd)
               for cmd in (["expansion", "--t", "0.001"],
                           ["simulate", "--t", "1e-8", "--strike", "1.0"])]
            + [("stable_residual", cmd)
               for cmd in (["asymptotics"], ["expansion", "--t", "0.001"])]
            + [("huge_std", ["asymptotics"])]
            + [("unresolved", ["simulate", "--t", "0.001", "--strike", "1.05"])])

MODELS = r'''
import hashlib, math
import smalltime as st

dens = lambda y: 3.0 * math.exp(-abs(y) / 0.2)
MODELS = {
    "none": st.no_jumps(),
    "atomic": st.atomic([(0.4, 1.0), (-0.6, 0.5)]),
    "normal": st.normal_jumps(1.0, 0.1, 0.4),
    "normal_scaled": st.normal_jumps(1.0, 0.1, 0.4).scaled(2.5),
    "laplace": st.laplace_jumps(1.2, 0.25, 0.05),
    "laplace_scaled": st.laplace_jumps(1.2, 0.25, 0.05).scaled(0.5),
    "density_table": st.density(dens, (-1.5, 2.0)),
    "stable_const": st.stable_like(1.5, 0.1),
    "stable_linear": st.stable_like(1.4, lambda y: 0.1 * (1.0 + 0.5 * y)),
    "stable_quadratic": st.stable_like(1.3, lambda y: 0.1 * (1.0 + 0.5 * y * y)),
    "stable_normal": st.stable_like(1.5, 0.1, residual=st.normal_jumps(0.5, 0.0, 0.3)),
    "stable_atomic": st.stable_like(1.5, 0.1, residual=st.atomic([(0.8, 0.2)])),
    "stable_laplace": st.stable_like(1.5, 0.1, residual=st.laplace_jumps(0.7, 0.2)),
}
'''

SWEEP = MODELS + r'''
import itertools
CONFIGS = [("euler_log", 0.01), ("exact_stable_increment", 0.01), ("euler_log", 0.5)]
# fewer paths than a block, exactly one block, and a partial last block
N_PATHS = [100, 2**16, 2**17 + 1000]
for name, m in MODELS.items():
    ec = st.ExpModelCharacteristics(1.0, 0.01, 0.15, m)
    for (scheme, eps), n_paths in itertools.product(CONFIGS, N_PATHS):
        for workers in (1, 2):
            for t in (1e-3, 0.05):
                cfg = st.SimConfig(n_paths=n_paths, master_seed=7, scheme=scheme,
                                   small_jump_cutoff=eps, n_workers=workers)
                tag = f"{name} {scheme} eps={eps} n_paths={n_paths} workers={workers} t={t}:"
                try:
                    s = st.simulate_terminal(ec, t, cfg)
                    est = st.estimate_call(ec, t, 1.05, cfg)
                    print(tag, hashlib.sha256(s.tobytes()).hexdigest(),
                          repr(est.value), repr(est.std_error))
                except st.SmallTimeError as exc:
                    print(tag, type(exc).__name__, exc)
for name, scheme in [("normal", "euler_log"), ("atomic", "euler_log"),
                     ("stable_const", "euler_log"),
                     ("stable_const", "exact_stable_increment")]:
    ec = st.ExpModelCharacteristics(1.0, 0.01, 0.15, MODELS[name])
    for workers in (1, 2):
        cfg = st.SimConfig(n_paths=2**17 + 1000, master_seed=7, scheme=scheme,
                           n_workers=workers)
        for K in (0.9, 1.0, 1.1):
            tag = f"slope_rows {name} {scheme} K={K} workers={workers}:"
            try:
                print(tag, [vars(r) for r in
                            st.montecarlo.slope_rows(ec, K, [1e-3, 3e-3, 1e-2, 3e-2],
                                                     1.0, cfg, max(1.0 - K, 0.0))])
            except st.SmallTimeError as exc:
                print(tag, type(exc).__name__, exc)
'''

ANALYTIC = MODELS + r'''
from smalltime.asymptotics import leading_term

def probe(tag, fn):
    try:
        print(tag, repr(fn()))
    except st.SmallTimeError as exc:
        print(tag, type(exc).__name__, exc)

bump = st.gaussian_bump(center=0.2, width=0.6)
price_bump = st.gaussian_bump(center=1.1, width=0.3)
for name, m in MODELS.items():
    for sigma in (0.15, 0.0):
        ec = st.ExpModelCharacteristics(1.0, 0.01, sigma, m)
        tag = f"{name} sigma={sigma}"
        probe(f"{tag} generator:", lambda: st.apply_generator(ec.log_characteristics(), bump, 0.0))
        probe(f"{tag} exp generator:", lambda: st.apply_exp_generator(ec, price_bump, 1.0))
        for K in (0.8, 1.0, 1.2):
            probe(f"{tag} leading_term K={K}:",
                  lambda: vars(leading_term(ec, K)))
    for z in (0.1, 0.3):
        probe(f"{name} double tail up z={z}:", lambda: st.exp_double_tail_up(m, z))
        probe(f"{name} double tail down z={-z}:", lambda: st.exp_double_tail_down(m, -z))
    probe(f"{name} time change:", lambda: (
        lambda ch: (ch.beta.tolist(), ch.delta.tolist(), st.apply_generator(ch, bump, 0.0)))(
            st.from_time_changed_levy((0.05, 0.04, m), 1.5)))

quadratic = st.polynomial([0.0, 0.5, 1.0])
NUS = [("empty", st.no_jumps(), quadratic),
       ("atomic", MODELS["atomic"], quadratic),
       ("normal", MODELS["normal"], st.affine([2.0])),
       ("atomic_2d", st.atomic([((0.3, 0.1), 0.5), ((-0.2, 0.4), 1.2),
                                ((0.6, 0.6), 0.25)]), st.exp_affine([0.5, 1.0]))]
for name, nu, f in NUS:
    if f.dim == 1:
        args = ([0.1], [[0.3]], lambda y: 1.5 * y, nu, f, [0.2])
    else:
        args = ([0.1, 0.0], [[0.3, 0.0], [0.1, 0.2]], lambda y: y, nu, f, [0.0, 0.1])
    tag = f"from_markov {name}"
    try:
        ch = st.from_markov(*args)
    except st.SmallTimeError as exc:
        print(tag, type(exc).__name__, exc)
        continue
    probe(f"{tag} triplet:", lambda: (ch.beta.tolist(), ch.delta.tolist(), ch.jumps.form))
    probe(f"{tag} generator:", lambda: st.apply_generator(ch, bump, 0.3))
    probe(f"{tag} support:", lambda: ch.jumps.support())
    for u in (0.2, 0.5):
        probe(f"{tag} upper_tail {u}:", lambda: ch.jumps.upper_tail(u))
        probe(f"{tag} lower_tail {-u}:", lambda: ch.jumps.lower_tail(-u))

# a bump of scaled normal jumps: each level set of the image has two crossings
bump_image = st.from_markov([0.05], [[0.2]], lambda y: 1.2 * y,
                            st.normal_jumps(1.0, 0.02, 0.2),
                            st.gaussian_bump(0.5, 0.7), [0.1]).jumps
for u in (0.02, 0.08, 0.14):
    probe(f"from_markov bump upper_tail {u}:", lambda: bump_image.upper_tail(u))
for u in (-0.05, -0.3):
    probe(f"from_markov bump lower_tail {u}:", lambda: bump_image.lower_tail(u))
probe("from_markov bump support:", bump_image.support)
'''

FUNCTIONS = r'''
import numpy as np
import smalltime as st

FUNCTIONS = [
    ("polynomial", lambda: st.polynomial([0.3, -1.2, 0.7, 0.05], center=0.4)),
    ("affine", lambda: st.affine([1.7], intercept=-0.3)),
    ("exp_affine", lambda: st.exp_affine([0.8], offset=0.1, scale=1.4)),
    ("gaussian_bump", lambda: st.gaussian_bump(0.2, 0.7, height=2.0, offset=-0.5)),
    ("mollified_call", lambda: st.mollified_call(1.0, 25.0)),
    ("mollified_call n=1e6", lambda: st.mollified_call(1.0, 1e6)),
    ("gaussian_bump width=1e-3", lambda: st.gaussian_bump(1.0, 1e-3)),
    ("affine 2d", lambda: st.affine([1.0, -0.5], intercept=0.2)),
    ("exp_affine 2d", lambda: st.exp_affine([0.3, -0.4], offset=0.2, scale=1.5)),
    ("gaussian_bump 2d", lambda: st.gaussian_bump([0.1, -0.2], 0.8, height=1.5)),
    ("exp_affine 2d weights=(30,1)", lambda: st.exp_affine([30.0, 1.0])),
]
for name, make in FUNCTIONS:
    try:
        f = make()
    except st.SmallTimeError as exc:
        print(name, type(exc).__name__, exc)
        continue
    points = ([0.9, 1.0 - 3e-7, 1.0, 1.0 + 5e-7, 1.0004, 1.3] if f.dim == 1
              else [np.array([0.3, 0.1]), np.array([-0.2, 0.9])])
    for x in points:
        tag = f"{name} x={x!r}:"
        print(tag, repr(f.value(x)), repr(np.asarray(f.gradient(x)).tolist()),
              repr(np.asarray(f.hessian(x)).tolist()))
        # one remainder probe shows the DimensionMismatch of the 2-d families
        for y in ((0.0, 1e-9, 1e-6, -0.3, 0.5) if f.dim == 1 else (0.1,)):
            try:
                print(tag, f"curvature_remainder y={y!r}:", repr(f.curvature_remainder(x, y)))
            except (st.SmallTimeError, ArithmeticError) as exc:
                print(tag, f"curvature_remainder y={y!r}:", type(exc).__name__, exc)
'''

CONDITIONAL = r'''
import smalltime as st

MODELS = [
    ("merton", st.ExpModelCharacteristics(1.0, 0.0, 0.2, st.normal_jumps(1.0, 0.0, 0.4)),
     [1e-5, 1e-3, 0.03]),
    ("two_atoms", st.ExpModelCharacteristics(
        1.0, 0.02, 0.15, st.atomic([(0.1, 1.0), (-0.1, 1.0)])), [1e-3, 0.03]),
    ("laplace", st.ExpModelCharacteristics(
        1.0, 0.02, 0.15, st.laplace_jumps(1.5, 0.2, 0.05)), [1e-3, 0.03]),
    # Poisson means 0.6, 0.15 and 0.03 per path
    ("straddle", st.ExpModelCharacteristics(
        1.0, 0.01, 0.15, st.atomic([(0.1, 30.0), (-0.1, 20.0)])), [0.02, 0.005, 1e-3]),
]
for name, ec, ts in MODELS:
    for workers in (1, 2):
        cfg = st.SimConfig(n_paths=2**17 + 1000, master_seed=7, n_workers=workers)
        grid = st.price_grid(ec, ts, [0.0, 0.9, 1.0, 1.1], cfg)
        for t, row in zip(ts, grid):
            print(f"conditional {name} t={t} workers={workers}:",
                  [(e.value, e.std_error) for e in row])
'''

PLAIN = r'''
import smalltime as st

STABLE = st.ExpModelCharacteristics(1.0, 0.0, 0.0, st.stable_like(1.5, 1.0))
MODELS = [
    ("stable_const_c", STABLE, "euler_log", [0.01]),
    ("stable_callable_c", st.ExpModelCharacteristics(
        1.0, 0.0, 0.0, st.stable_like(1.5, lambda y: 1.0 + 0.5 * y)), "euler_log", [0.01]),
    ("three_atoms", st.ExpModelCharacteristics(
        1.0, 0.02, 0.0, st.atomic([(0.25, 3.0), (-0.15, 4.0), (0.05, 6.0)])), "euler_log",
     [1e-3, 0.02]),
    ("stable_exact", STABLE, "exact_stable_increment", [1e-3, 0.01]),
]
for name, ec, scheme, ts in MODELS:
    for workers in (1, 2):
        cfg = st.SimConfig(n_paths=2**17 + 1000, master_seed=7, scheme=scheme,
                           small_jump_cutoff=0.01, n_workers=workers)
        grid = st.price_grid(ec, ts, [0.0, 0.9, 1.0, 1.1], cfg)
        for t, row in zip(ts, grid):
            print(f"plain {name} t={t} workers={workers}:",
                  [(e.value, e.std_error) for e in row])
'''


def _run(tree, args, cwd):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    return [f"exit {proc.returncode}", *proc.stdout.splitlines(),
            "-- stderr", *proc.stderr.splitlines()]


def transcript(tree, spec_dir):
    lines = []
    for demo in DEMOS:
        out = _run(tree, [f"demos/{demo}"], tree)
        lines += [f"## demo {demo}"] + [x for x in out if not x.startswith("spec file:")]
    for name, cmd in CLI_RUNS:
        spec = str(spec_dir / f"{name}.json")
        lines.append(f"## cli {name} {' '.join(cmd)}")
        lines += _run(tree, ["-m", "smalltime.cli", cmd[0], "--spec", spec, *cmd[1:]],
                      spec_dir)
    lines.append("## sweep")
    lines += _run(tree, ["-c", SWEEP], spec_dir)
    lines.append("## analytic")
    lines += _run(tree, ["-c", ANALYTIC], spec_dir)
    lines.append("## functions")
    lines += _run(tree, ["-c", FUNCTIONS], spec_dir)
    lines.append("## conditional")
    lines += _run(tree, ["-c", CONDITIONAL], spec_dir)
    lines.append("## plain")
    lines += _run(tree, ["-c", PLAIN], spec_dir)
    return lines


def _extract(rev, dest):
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def main(argv):
    rev = argv[1] if len(argv) > 1 else "HEAD"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        old_tree, spec_dir = tmp / "rev", tmp / "specs"
        old_tree.mkdir()
        spec_dir.mkdir()
        _extract(rev, old_tree)
        for name, spec in SPECS.items():
            (spec_dir / f"{name}.json").write_text(json.dumps(spec))
        old = transcript(old_tree, spec_dir)
        new = transcript(ROOT, spec_dir)
    diff = list(difflib.unified_diff(old, new, rev, "working tree", lineterm=""))
    if diff:
        print("\n".join(diff))
        return 1
    sweep = new[new.index("## sweep"):new.index("## analytic")]
    analytic = new[new.index("## analytic"):new.index("## functions")]
    functions = new[new.index("## functions"):new.index("## conditional")]
    conditional = new[new.index("## conditional"):new.index("## plain")]
    plain = new[new.index("## plain"):]
    print(f"identical: {len(DEMOS)} demos, {len(CLI_RUNS)} CLI runs, "
          f"{sum('workers=' in x for x in sweep)} sweep rows, "
          f"{sum(':' in x for x in analytic)} analytic rows, "
          f"{sum(':' in x for x in functions)} function rows, "
          f"{sum('workers=' in x for x in conditional)} conditional rows, "
          f"{sum('workers=' in x for x in plain)} plain rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
