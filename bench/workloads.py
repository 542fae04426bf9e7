"""The benchmark's three workloads: inputs made from a seed, the operations
run on them, and the check of every operation's output.

A workload is built in two steps. The constructor makes the inputs (spec
files, models, per-round seeds); it is part of the timed set-up. ``prepare``
computes the reference values the checks need; it is not timed. Operations
come in rounds, and every round holds the whole operation mix, so a run that
stops after a whole round always measures the same mix.

Each operation's ``run`` makes exactly one call into the program; ``check``
reads the result and returns an ``Outcome``.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

# ``oracles`` (and the scipy.stats import it pulls in) is imported inside
# the untimed ``prepare`` methods, so it stays out of the measured set-up.
from smalltime import asymptotics, characteristics, cli, compensators, functions
from smalltime import montecarlo as mc
from smalltime.errors import QuadratureDivergence

# A Monte Carlo estimate must lie within SE_GATE standard errors of its
# oracle. The checked z-scores are standard normal for a correct program, and
# a comparison of two commits (about 70 runs of 30 s) checks about 2e4
# estimates, so the gate is set where a correct program fails such a batch
# with probability below 1e-3: P(|z| > 5.5) = 3.8e-8. At 4 SE a spurious
# failure is expected every few batches; one was observed (z = -4.34).
SE_GATE = 5.5
ANALYTIC_ABS = 1e-7  # oracle agreement for coefficients quadratured at tol 1e-9
TOL = 1e-9  # the CLI's default quadrature budget
ROUTE_GAP = 10.0 * TOL


@dataclass
class Outcome:
    ok: bool
    # standard error of (C - constant_term) over (C - constant_term) at the
    # smallest maturity; None for an exact (analytic) result
    rel_se: float | None = None
    message: str = ""


@dataclass
class Op:
    kind: str
    round: int
    run: object  # callable returning the program's raw result
    check: object  # callable(result) -> Outcome
    model_key: str = ""


def _close(value, ref, abs_tol=ANALYTIC_ABS, rel_tol=1e-7):
    return abs(value - ref) <= abs_tol + rel_tol * abs(ref)


def _fail(msg):
    return Outcome(False, None, msg)


def _read_json(path):
    """Read the output file a CLI op wrote, and remove it so the next op
    cannot be checked against stale output."""
    with open(path, encoding="utf-8") as fh:
        rec = json.load(fh)
    os.remove(path)
    return rec


def _seed_stream(seed, salt):
    rng = np.random.default_rng([seed, salt])
    while True:
        yield int(rng.integers(0, 2**63))


class Workload:
    name = ""
    monte_carlo = False

    def __init__(self, seed, workdir):
        self.workdir = workdir

    def prepare(self):
        pass

    def round(self, r):
        raise NotImplementedError

    def known_defects(self):
        """Status of each known program defect this workload steers around;
        run once per run, untimed and not counted as an op."""
        return []


# ----------------------------------------------------------------------
# mc_merton_ladder

MERTON = {"S0": 1.0, "r": 0.0, "sigma": 0.2,
          "jumps": {"type": "density", "family": "normal",
                    "intensity": 1.0, "mean": 0.0, "std": 0.4}}
LADDER_T = [1e-3, 3e-3, 1e-2, 3e-2]
LADDER_K = [0.8, 0.9, 1.0, 1.1, 1.2]
LADDER_PATHS = 1 << 20


class MertonLadder(Workload):
    """One op is ``smalltime verify`` on the README Merton spec at one strike;
    a round (sweep) covers the five strikes under one master seed."""

    name = "mc_merton_ladder"
    monte_carlo = True

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.spec_path = os.path.join(workdir, "merton.json")
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            json.dump({"model": MERTON, "query": {"t_grid": LADDER_T},
                       "sim": {"n_paths": LADDER_PATHS, "master_seed": 0,
                               "n_workers": 1}}, fh)
        self.out_path = os.path.join(workdir, "verify.json")
        stream = _seed_stream(seed, 1)
        self.seeds = [next(stream) for _ in range(400)]

    def prepare(self):
        import oracles

        p = MERTON
        j = p["jumps"]
        self.price = {(t, K): oracles.merton_call(p["S0"], K, t, p["r"], p["sigma"],
                                                  j["intensity"], j["mean"], j["std"])
                      for t in LADDER_T for K in LADDER_K}
        self.coef = {}
        for K in LADDER_K:
            if K > p["S0"]:
                self.coef[K] = oracles.normal_otm_slope(p["S0"], K, j["intensity"],
                                                        j["mean"], j["std"])
            elif K < p["S0"]:
                self.coef[K] = p["r"] * p["S0"] + oracles.normal_itm_put(
                    p["S0"], K, j["intensity"], j["mean"], j["std"])
            else:
                self.coef[K] = p["S0"] * p["sigma"] / math.sqrt(2.0 * math.pi)

    def round(self, r):
        seed = self.seeds[r % len(self.seeds)]
        return [self._op(r, seed, K) for K in LADDER_K]

    def _op(self, r, seed, K):
        argv = ["verify", "--spec", self.spec_path, "--strike", repr(K),
                "--seed", str(seed), "--out", self.out_path]

        return Op("verify", r, lambda: cli.main(argv), lambda code: self._check(code, K),
                  model_key="merton")

    def _check(self, code, K):
        if code not in (0, 5):
            return _fail(f"verify exit code {code}")
        rec = _read_json(self.out_path)
        S0 = MERTON["S0"]
        c0 = max(S0 - K, 0.0)
        p = rec["exponent"]
        a = rec["predicted"]
        if not _close(a, self.coef[K]):
            return _fail(f"predicted {a!r} vs oracle {self.coef[K]!r}")
        if rec["constant_term"] != c0:
            return _fail(f"constant term {rec['constant_term']!r}")
        rows = sorted(rec["rows"], key=lambda row: row["t"])
        if [row["t"] for row in rows] != LADDER_T:
            return _fail("rows do not cover the t grid")
        for row in rows:
            exact = self.price[(row["t"], K)]
            if abs(row["estimate"] - exact) > SE_GATE * row["std_error"]:
                return _fail(f"t={row['t']}: {row['estimate']!r} vs series "
                             f"{exact!r} (se {row['std_error']!r})")
            ratio = (row["estimate"] - c0) / row["t"] ** p
            if not math.isclose(row["ratio"], ratio, rel_tol=1e-12, abs_tol=1e-15):
                return _fail("ratio does not match its row")
        small = rows[0]
        scale = small["t"] ** p
        threshold = 3.0 * small["std_error"] / scale + 0.05 * abs(a)
        passed = abs(small["ratio"] - a) <= threshold
        # a FAIL verdict (exit 5) is correct output when the rows, checked
        # above, imply it: verify's own 3-SE gate fails about 0.3% of correct
        # estimates, and at K = S0 the O(t) jump term puts the exact ratio at
        # the edge of its 5% band
        if rec["verdict"] != ("PASS" if passed else "FAIL") or code != (0 if passed else 5):
            return _fail(f"verdict {rec['verdict']} / exit {code} disagree with the rows")
        return Outcome(True, small["std_error"] / (self.price[(small["t"], K)] - c0))


# ----------------------------------------------------------------------
# mc_stable

STABLE_ALPHA = 1.5
STABLE_C = 1.0
STABLE_CUTOFF = 0.01
STABLE_T_EULER = 0.01
STABLE_PATHS = 1 << 18


def _c_linear(y):
    return 1.0 + 0.5 * y


class StableMC(Workload):
    """One op is one ``estimate_call`` on a pure-jump stable-like model with
    alpha = 1.5. A round holds constant-c and callable-c ``euler_log`` at two
    OTM strikes each, and ``exact_stable_increment`` at the money for t = 1e-3
    and 1e-2. The three kinds differ in cost by about 8x and 2x; with two ops
    of each, the median op of a run is the middle of the constant-c ops."""

    name = "mc_stable"
    monte_carlo = True

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        st_const = compensators.stable_like(STABLE_ALPHA, STABLE_C)
        st_call = compensators.stable_like(STABLE_ALPHA, _c_linear)
        self.models = {
            "const": characteristics.ExpModelCharacteristics(1.0, 0.0, 0.0, st_const),
            "callable": characteristics.ExpModelCharacteristics(1.0, 0.0, 0.0, st_call),
        }
        # (kind, model, t, K, scheme)
        self.mix = [
            ("euler_const", "const", STABLE_T_EULER, 1.1, "euler_log"),
            ("euler_const", "const", STABLE_T_EULER, 1.2, "euler_log"),
            ("euler_callable", "callable", STABLE_T_EULER, 1.1, "euler_log"),
            ("euler_callable", "callable", STABLE_T_EULER, 1.2, "euler_log"),
            ("exact_atm", "const", 1e-3, 1.0, "exact_stable_increment"),
            ("exact_atm", "const", 1e-2, 1.0, "exact_stable_increment"),
        ]
        stream = _seed_stream(seed, 2)
        self.seeds = [next(stream) for _ in range(2000)]

    def prepare(self):
        import oracles

        laws = {"const": oracles.TruncatedStableLaw(STABLE_ALPHA, lambda y: STABLE_C,
                                                    STABLE_CUTOFF),
                "callable": oracles.TruncatedStableLaw(STABLE_ALPHA, _c_linear,
                                                       STABLE_CUTOFF)}
        self.price = {}
        for kind, model, t, K, scheme in self.mix:
            if scheme == "euler_log":
                self.price[(model, t, K)] = laws[model].call(1.0, K, t)
            else:
                self.price[(model, t, K)] = oracles.exact_stable_atm_call(
                    1.0, STABLE_ALPHA, STABLE_C, t)

    def round(self, r):
        ops = []
        for i, (kind, model, t, K, scheme) in enumerate(self.mix):
            seed = self.seeds[(r * len(self.mix) + i) % len(self.seeds)]
            cfg = mc.SimConfig(n_paths=STABLE_PATHS, master_seed=seed,
                               small_jump_cutoff=STABLE_CUTOFF, scheme=scheme,
                               n_workers=1)
            ec = self.models[model]
            ref = self.price[(model, t, K)]

            def run(ec=ec, t=t, K=K, cfg=cfg):
                return mc.estimate_call(ec, t, K, cfg)

            ops.append(Op(kind, r, run, lambda est, ref=ref: self._check(est, ref),
                          model_key=model))
        return ops

    @staticmethod
    def _check(est, ref):
        if not (math.isfinite(est.value) and est.std_error > 0):
            return _fail(f"estimate {est!r}")
        if abs(est.value - ref) > SE_GATE * est.std_error:
            return _fail(f"{est.value!r} vs oracle {ref!r} (se {est.std_error!r})")
        return Outcome(True, est.std_error / ref)


# ----------------------------------------------------------------------
# analytic_zoo

ZOO_K = [0.8, 0.95, 1.0, 1.05, 1.2]

# The payoff route of ``otm_slope`` drops the payoff kink (the ``points``
# argument) inside every integral done by the power substitution at the
# origin: the stable part of a stable-like compensator, and a singular
# density on (0, 1]. For some parameters QUADPACK then misses the kink, the
# two routes disagree and the call is refused with exit code 4: about 2% of
# stable (alpha, c) drawn from [1.2, 1.8] x [0.5, 1.5] at K = 1.05 (constant
# c) or K = 1.2 (c(y) = c0 (1 + y/2)), and about 1% of the singular densities
# below at K = 1.1. The zoo therefore keeps these forms at fixed parameters
# and reports the status of these reproducers in every run.
KNOWN_DEFECTS = [
    ("stable_payoff_route_kink", 1.05,
     lambda: compensators.stable_like(1.4458096839072194, 0.6178309716698983)),
    ("singular_density_payoff_route_kink", 1.1,
     lambda: compensators.density(
         _singular_fn({"A": 1.1536806817599756, "beta": 0.5253263696949004,
                       "theta": 0.4943835689155559}),
         (-1.5, 1.5), 1.5253263696949004)),
]
ZOO_SETS = 8
ZOO_T = 0.01
# library forms kept at fixed parameters, like the stable parts (see above)
SINGULAR = {"A": 1.0, "beta": 0.5, "theta": 0.5, "hi": 1.5, "K": 1.1}
STABLE_FN_K = 1.2


class AnalyticZoo(Workload):
    """One op is one in-process ``smalltime asymptotics`` or ``expansion``
    call on a spec file, or one library call for a form the spec cannot
    express. ``ZOO_SETS`` parameter sets are drawn from the seed; round r
    runs the whole mix on set r mod ZOO_SETS."""

    name = "analytic_zoo"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 3])
        self.out_path = os.path.join(workdir, "analytic.json")
        self.sets = [self._draw(rng, i) for i in range(ZOO_SETS)]

    def _write(self, name, data):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    def _draw(self, rng, i):
        u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
        normal = {"intensity": u(0.5, 2.0), "mean": u(-0.1, 0.1), "std": u(0.2, 0.5)}
        sigma = u(0.1, 0.3)
        laplace = {"intensity": u(0.5, 2.0), "scale": u(0.1, 0.3)}
        atoms = [[u(-0.4, 0.4), u(0.2, 1.5)] for _ in range(3)]
        # the stable parts keep the values the workloads are specified with;
        # drawn (alpha, c) hit a defect in KNOWN_DEFECTS in about 2% of draws
        stable = {"alpha": STABLE_ALPHA, "c": STABLE_C,
                  "residual": {"intensity": u(0.2, 1.0), "mean": 0.0,
                               "std": u(0.2, 0.4)}}
        markov = {"z0": u(-0.2, 0.2), "b": u(-0.1, 0.1), "sig": u(0.1, 0.3),
                  "f": (0.5, u(0.5, 1.0), 1.0), "factor": u(0.5, 1.5),
                  "nu": {"intensity": u(0.5, 1.5), "mean": u(-0.05, 0.05),
                         "std": u(0.1, 0.3)},
                  "bump": (u(0.6, 1.0), u(0.3, 0.6), 1.0)}
        tchange = {"b": u(-0.1, 0.1), "sigma2": u(0.01, 0.09), "theta0": u(0.5, 2.0),
                   "nu": {"intensity": u(0.5, 1.5), "mean": u(-0.05, 0.05),
                          "std": u(0.1, 0.3)},
                   "bump": (u(-0.3, 0.3), u(0.3, 0.6), 1.0)}
        push = {"frac": u(0.2, 0.8)}  # tail level as a share of the way to the peak
        s = {"normal": normal, "sigma": sigma, "laplace": laplace, "atoms": atoms,
             "stable": stable, "markov": markov, "tchange": tchange, "push": push}
        nj = lambda d: {"type": "density", "family": "normal", **d}  # noqa: E731
        s["paths"] = {
            "normal": self._write(f"zoo{i}_normal.json", {"model": {
                "S0": 1.0, "r": 0.0, "sigma": sigma, "jumps": nj(normal)}}),
            "laplace": self._write(f"zoo{i}_laplace.json", {"model": {
                "S0": 1.0, "r": 0.0, "sigma": 0.0,
                "jumps": {"type": "density", "family": "laplace", "mean": 0.0,
                          **laplace}}}),
            "atomic": self._write(f"zoo{i}_atomic.json", {"model": {
                "S0": 1.0, "r": 0.0, "sigma": 0.0,
                "jumps": {"type": "atomic", "atoms": atoms}}}),
            "stable": self._write(f"zoo{i}_stable.json", {"model": {
                "S0": 1.0, "r": 0.0, "sigma": 0.0,
                "jumps": {"type": "stable_like", "alpha": stable["alpha"],
                          "c": stable["c"], "residual": nj(stable["residual"])}}}),
            "markov": self._write(f"zoo{i}_markov.json", {
                "markov": {"b": [markov["b"]], "Sigma": [[markov["sig"]]],
                           "jump_map": {"type": "scale", "factor": markov["factor"]},
                           "nu": nj(markov["nu"]),
                           "f": self._bump_spec(markov["f"]),
                           "Z0": [markov["z0"]]},
                "query": {"t": ZOO_T, "f": self._bump_spec(markov["bump"])}}),
            "time_change": self._write(f"zoo{i}_time_change.json", {
                "time_change": {"b": tchange["b"], "sigma2": tchange["sigma2"],
                                "theta0": tchange["theta0"], "nu": nj(tchange["nu"])},
                "query": {"t": ZOO_T, "f": self._bump_spec(tchange["bump"])}}),
        }
        return s

    @staticmethod
    def _bump_spec(bump):
        center, width, height = bump
        return {"family": "gaussian_bump", "center": center, "width": width,
                "height": height}

    # -- reference values ---------------------------------------------------
    def prepare(self):
        for s in self.sets:
            s["ref"] = self._references(s)

    @staticmethod
    def _references(s):
        import oracles

        ref = {}
        n, lp, st = s["normal"], s["laplace"], s["stable"]
        res = st["residual"]
        c_st = lambda y: st["c"]  # noqa: E731
        for K in ZOO_K:
            if K > 1.0:
                ref[("normal", K)] = oracles.normal_otm_slope(1.0, K, n["intensity"],
                                                              n["mean"], n["std"])
                ref[("laplace", K)] = oracles.laplace_otm_slope(1.0, K, lp["intensity"],
                                                                lp["scale"])
                ref[("atomic", K)] = oracles.atomic_call(1.0, K, s["atoms"])
                ref[("stable", K)] = (
                    oracles.stable_part_call(1.0, K, st["alpha"], c_st)
                    + oracles.normal_otm_slope(1.0, K, res["intensity"], res["mean"],
                                               res["std"]))
            elif K < 1.0:
                ref[("normal", K)] = oracles.normal_itm_put(1.0, K, n["intensity"],
                                                            n["mean"], n["std"])
                ref[("laplace", K)] = oracles.laplace_itm_put(1.0, K, lp["intensity"],
                                                              lp["scale"])
                ref[("atomic", K)] = oracles.atomic_put(1.0, K, s["atoms"])
                ref[("stable", K)] = (
                    oracles.stable_part_put(1.0, K, st["alpha"], c_st)
                    + oracles.normal_itm_put(1.0, K, res["intensity"], res["mean"],
                                             res["std"]))
            else:
                ref[("normal", K)] = s["sigma"] / math.sqrt(2.0 * math.pi)
                ref[("laplace", K)] = oracles.laplace_atm_fv(1.0, lp["intensity"],
                                                             lp["scale"])
                ref[("atomic", K)] = oracles.atomic_call(1.0, 1.0, s["atoms"])
                ref[("stable", K)] = oracles.stable_atm(1.0, st["alpha"], st["c"])
        m = s["markov"]
        ref["markov"] = oracles.markov_generator(
            m["bump"], m["f"], m["z0"], m["b"], m["sig"], m["factor"],
            m["nu"]["intensity"], m["nu"]["mean"], m["nu"]["std"])
        ref["markov_x"] = oracles.bump_value(m["f"], m["z0"])
        tc = s["tchange"]
        ref["markov_f"] = oracles.bump_value(m["bump"], ref["markov_x"])
        ref["time_change_f"] = oracles.bump_value(s["tchange"]["bump"], 0.0)
        ref["time_change"] = oracles.time_change_generator(
            tc["bump"], 0.0, tc["b"], tc["sigma2"], tc["theta0"], tc["nu"]["intensity"],
            tc["nu"]["mean"], tc["nu"]["std"])
        sg = SINGULAR
        fn = _singular_fn(sg)
        ref["singular_otm"] = oracles.singular_density_otm(1.0, sg["K"], fn, sg["hi"])
        ref["singular_atm"] = oracles.singular_density_atm_fv(1.0, fn, sg["hi"])
        ref["stable_fn_otm"] = oracles.stable_part_call(1.0, STABLE_FN_K, STABLE_ALPHA,
                                                        _c_linear)
        ref["stable_fn_atm"] = oracles.stable_atm(1.0, STABLE_ALPHA, _c_linear(0.0))
        s["push"]["level"] = s["push"]["frac"] * (m["f"][2] - ref["markov_x"])
        ref["push_tail"] = oracles.pushforward_upper_tail(
            s["push"]["level"], m["f"], m["z0"], m["factor"],
            m["nu"]["intensity"], m["nu"]["mean"], m["nu"]["std"])
        return ref

    def known_defects(self):
        out = []
        for name, K, jumps in KNOWN_DEFECTS:
            ec = characteristics.ExpModelCharacteristics(1.0, 0.0, 0.0, jumps())
            try:
                asymptotics.otm_slope(ec, K, TOL)
                status = "fixed"
            except QuadratureDivergence as exc:
                status = f"present: {exc}"
            out.append({"name": name, "status": status})
        return out

    # -- operations ---------------------------------------------------------
    def round(self, r):
        s = self.sets[r % len(self.sets)]
        ops = []
        for form in ("normal", "laplace", "atomic", "stable"):
            for K in ZOO_K:
                ops.append(self._cli_op(r, s, "asymptotics", form, K))
        for form in ("markov", "time_change"):
            ops.append(self._cli_op(r, s, "expansion", form, None))
        ops.extend(self._library_ops(r, s))
        return ops

    def _cli_op(self, r, s, command, form, K):
        argv = [command, "--spec", s["paths"][form], "--out", self.out_path]
        if K is not None:
            argv += ["--strike", repr(K)]

        def run():
            return cli.main(argv)

        if command == "asymptotics":
            check = lambda code: self._check_asymptotics(code, s["ref"][(form, K)], K)  # noqa: E731
        else:
            check = lambda code: self._check_expansion(code, s, form)  # noqa: E731
        return Op(f"{command}.{form}", r, run, check, model_key=form)

    def _read(self, code):
        return _read_json(self.out_path) if code == 0 else None

    def _check_asymptotics(self, code, ref, K):
        rec = self._read(code)
        if rec is None:
            return _fail(f"asymptotics exit code {code}")
        if K > 1.0 and rec["diagnostics"].get("route_gap", math.inf) > ROUTE_GAP:
            return _fail(f"route gap {rec['diagnostics'].get('route_gap')!r}")
        if not _close(rec["coefficient"], ref):
            return _fail(f"K={K}: coefficient {rec['coefficient']!r} vs oracle {ref!r}")
        if rec["constant_term"] != max(1.0 - K, 0.0):
            return _fail(f"constant term {rec['constant_term']!r}")
        return Outcome(True)

    def _check_expansion(self, code, s, form):
        rec = self._read(code)
        if rec is None:
            return _fail(f"expansion exit code {code}")
        ref = s["ref"][form]
        x = s["ref"]["markov_x"] if form == "markov" else 0.0
        if not _close(rec["x"], x, 1e-12, 1e-12):
            return _fail(f"expansion point {rec['x']!r} vs {x!r}")
        if not _close(rec["f_value"], s["ref"][form + "_f"], 1e-12, 1e-12):
            return _fail("f_value differs from the test function")
        if not _close(rec["generator_value"], ref):
            return _fail(f"generator {rec['generator_value']!r} vs oracle {ref!r}")
        if not _close(rec["expansion"], rec["f_value"] + ZOO_T * rec["generator_value"],
                      1e-15, 1e-14):
            return _fail("expansion is not f + t L f")
        return Outcome(True)

    def _library_ops(self, r, s):
        ref = s["ref"]
        sg, m = SINGULAR, s["markov"]

        def singular_model():
            jumps = compensators.density(_singular_fn(sg), (-sg["hi"], sg["hi"]),
                                         1.0 + sg["beta"])
            return characteristics.ExpModelCharacteristics(1.0, 0.0, 0.0, jumps)

        def stable_fn_model():
            jumps = compensators.stable_like(STABLE_ALPHA, _c_linear)
            return characteristics.ExpModelCharacteristics(1.0, 0.0, 0.0, jumps)

        def push_tail():
            chars = characteristics.from_markov(
                [m["b"]], [[m["sig"]]], lambda y: m["factor"] * y,
                compensators.normal_jumps(m["nu"]["intensity"], m["nu"]["mean"],
                                          m["nu"]["std"]),
                functions.gaussian_bump(*m["f"]), [m["z0"]], TOL)
            return chars.jumps.upper_tail(s["push"]["level"])

        def otm_check(want):
            def check(res):
                if res.diagnostics["route_gap"] > ROUTE_GAP:
                    return _fail(f"route gap {res.diagnostics['route_gap']!r}")
                if not _close(res.coefficient, want):
                    return _fail(f"coefficient {res.coefficient!r} vs oracle {want!r}")
                return Outcome(True)
            return check

        def coef_check(want, regime):
            def check(res):
                if res.regime != regime or not _close(res.coefficient, want):
                    return _fail(f"{res.regime} {res.coefficient!r} vs oracle {want!r}")
                return Outcome(True)
            return check

        def tail_check(v):
            if not _close(v, ref["push_tail"], 1e-9, 1e-7):
                return _fail(f"upper tail {v!r} vs oracle {ref['push_tail']!r}")
            return Outcome(True)

        return [
            Op("library.singular_otm", r,
               lambda: asymptotics.otm_slope(singular_model(), sg["K"], TOL),
               otm_check(ref["singular_otm"]), "singular"),
            Op("library.singular_atm", r,
               lambda: asymptotics.atm_coefficient(singular_model(), TOL),
               coef_check(ref["singular_atm"], asymptotics.ATM_FINITE_VARIATION),
               "singular"),
            Op("library.stable_fn_otm", r,
               lambda: asymptotics.otm_slope(stable_fn_model(), STABLE_FN_K, TOL),
               otm_check(ref["stable_fn_otm"]), "stable_fn"),
            Op("library.stable_fn_atm", r,
               lambda: asymptotics.atm_coefficient(stable_fn_model(), TOL),
               coef_check(ref["stable_fn_atm"], asymptotics.ATM_STABLE), "stable_fn"),
            Op("library.pushforward_tail", r, push_tail, tail_check, "pushforward"),
        ]


def _singular_fn(sg):
    A, beta, theta = sg["A"], sg["beta"], sg["theta"]

    def fn(y):
        ay = abs(y)
        return A * ay ** (-1.0 - beta) * math.exp(-ay / theta) if ay > 0 else math.inf

    return fn


WORKLOADS = {w.name: w for w in (MertonLadder, StableMC, AnalyticZoo)}
