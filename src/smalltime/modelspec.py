"""Model-spec files: a JSON schema describing a model, a query and a
simulation budget.

Exactly one of the blocks ``model`` (exponential price model), ``markov``
(function of a Markov jump-diffusion) or ``time_change`` (time-changed Levy
process) must be present. ``query`` and ``sim`` are optional. Parsing
normalizes defaults so that parse(emit(spec)) round-trips exactly.

Example::

    {
      "model": {"S0": 1.0, "r": 0.0, "sigma": 0.2,
                "jumps": {"type": "density", "family": "normal",
                          "intensity": 1.0, "mean": 0.0, "std": 0.4}},
      "query": {"strike": 1.2, "t_grid": [0.001, 0.003, 0.01, 0.03]},
      "sim": {"n_paths": 100000, "master_seed": 0}
    }
"""

import json
import math
from dataclasses import fields

from . import compensators as comp
from . import functions
from .characteristics import (ExpModelCharacteristics, from_markov,
                              from_time_changed_levy)
from .errors import ConfigError, InvariantViolation, SpecError
from .montecarlo import SimConfig
from .quadrature import DEFAULT_TOL

_BLOCKS = ("model", "markov", "time_change")

_SIM_DEFAULTS = {"n_paths": 100000,
                 **{f.name: f.default for f in fields(SimConfig)
                    if f.name != "n_paths"}}


class ModelSpec:
    """Validated, normalized spec; ``data`` is the canonical dict form."""

    def __init__(self, data):
        self.data = data

    def __eq__(self, other):
        return isinstance(other, ModelSpec) and self.data == other.data

    @property
    def kind(self):
        return next(b for b in _BLOCKS if b in self.data)

    @property
    def query(self):
        return self.data.get("query", {})

    def sim_config(self, **overrides):
        merged = {**self.data["sim"], **{k: v for k, v in overrides.items()
                                         if v is not None}}
        try:
            return SimConfig(**merged)
        except (ConfigError, InvariantViolation) as exc:
            raise SpecError(str(exc)) from exc

    def exp_model(self):
        if "model" not in self.data:
            raise SpecError("this command needs a 'model' block")
        blk = self.data["model"]
        return ExpModelCharacteristics(blk["S0"], blk["r"], blk["sigma"],
                                       build_jumps(blk["jumps"]))

    def local_characteristics(self, tol=DEFAULT_TOL):
        if "markov" in self.data:
            blk = self.data["markov"]
            f = functions.from_spec(blk["f"])
            return from_markov(blk["b"], blk["Sigma"], _jump_map(blk["jump_map"]),
                               build_jumps(blk["nu"]), f, blk["Z0"], tol)
        if "time_change" in self.data:
            blk = self.data["time_change"]
            nu = build_jumps(blk["nu"])
            return from_time_changed_levy((blk["b"], blk["sigma2"], nu),
                                          blk["theta0"], tol)
        return self.exp_model().log_characteristics(tol)


def _require(cond, msg):
    if not cond:
        raise SpecError(msg)


def _number(v, what):
    """float(v) for a finite JSON number; bools, strings, NaN and
    infinities raise SpecError."""
    ok = isinstance(v, (int, float)) and not isinstance(v, bool)
    try:
        ok = ok and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        ok = False
    _require(ok, f"{what} must be a finite number, got {v!r}")
    return float(v)


def _numbers(values, name):
    _require(isinstance(values, list), f"{name} must be a list")
    return [_number(v, f"{name} entry") for v in values]


def _num(blk, key, default=None, minimum=None, strict=False):
    if key not in blk:
        if default is None:
            raise SpecError(f"missing required field {key!r}")
        return float(default)
    v = _number(blk[key], f"field {key!r}")
    if minimum is not None:
        if strict:
            _require(v > minimum, f"field {key!r} must be > {minimum}")
        else:
            _require(v >= minimum, f"field {key!r} must be >= {minimum}")
    return v


def _norm_jumps(blk):
    _require(isinstance(blk, dict), "jumps must be an object")
    typ = blk.get("type")
    if typ == "none":
        return {"type": "none"}
    if typ == "atomic":
        atoms = blk.get("atoms")
        _require(isinstance(atoms, list) and
                 all(isinstance(a, list) and len(a) == 2 for a in atoms),
                 "atomic jumps need 'atoms': [[size, intensity], ...]")
        atoms = [_numbers(a, "atom") for a in atoms]
        for y, lam in atoms:
            _require(lam >= 0.0, f"atom intensity must be >= 0.0, got {lam!r} at {y!r}")
        return {"type": "atomic", "atoms": atoms}
    if typ == "density":
        family = blk.get("family")
        if family == "normal":
            return {"type": "density", "family": "normal",
                    "intensity": _num(blk, "intensity", minimum=0.0),
                    "mean": _num(blk, "mean", 0.0),
                    "std": _num(blk, "std", minimum=0.0, strict=True)}
        if family == "laplace":
            out = {"type": "density", "family": "laplace",
                   "intensity": _num(blk, "intensity", minimum=0.0),
                   "mean": _num(blk, "mean", 0.0),
                   "scale": _num(blk, "scale", minimum=0.0, strict=True)}
            # (e^y - 1)^2 against exp(-|y|/scale) integrates only below 1/2
            _require(out["scale"] < 0.5, "field 'scale' must be < 0.5")
            return out
        raise SpecError(f"unknown density family {family!r} (CLI supports "
                        "'normal' and 'laplace'; arbitrary densities are "
                        "library-level only)")
    if typ == "stable_like":
        out = {"type": "stable_like",
               "alpha": _num(blk, "alpha"),
               "c": _num(blk, "c", minimum=0.0, strict=True)}
        _require(1.0 < out["alpha"] < 2.0, "alpha must lie in (1, 2)")
        res = blk.get("residual")
        out["residual"] = _norm_jumps(res) if res else {"type": "none"}
        return out
    raise SpecError(f"unknown jumps type {typ!r}")


def build_jumps(norm):
    typ = norm["type"]
    if typ == "none":
        return comp.no_jumps()
    if typ == "atomic":
        return comp.atomic([(y, lam) for y, lam in norm["atoms"]])
    if typ == "density":
        if norm["family"] == "normal":
            return comp.normal_jumps(norm["intensity"], norm["mean"], norm["std"])
        return comp.laplace_jumps(norm["intensity"], norm["scale"], norm["mean"])
    residual = None
    if norm["residual"]["type"] != "none":
        residual = build_jumps(norm["residual"])
    return comp.stable_like(norm["alpha"], norm["c"], residual)


def _norm_fspec(blk):
    _require(isinstance(blk, dict) and "family" in blk,
             "function spec needs a 'family'")
    out = {"family": blk["family"]}
    fam = blk["family"]
    if fam == "polynomial":
        out["coeffs"] = _numbers(blk.get("coeffs", []), "coeffs")
        out["center"] = _num(blk, "center", 0.0)
    elif fam == "affine":
        out["weights"] = _numbers(blk.get("weights", [1.0]), "weights")
        out["intercept"] = _num(blk, "intercept", 0.0)
    elif fam == "exp_affine":
        out["weights"] = _numbers(blk.get("weights", [1.0]), "weights")
        out["offset"] = _num(blk, "offset", 0.0)
        out["scale"] = _num(blk, "scale", 1.0)
    elif fam == "gaussian_bump":
        center = blk.get("center", 0.0)
        out["center"] = (_numbers(center, "center")
                         if isinstance(center, list) else _num(blk, "center", 0.0))
        out["width"] = _num(blk, "width", 1.0, minimum=0.0, strict=True)
        out["height"] = _num(blk, "height", 1.0)
        out["offset"] = _num(blk, "offset", 0.0)
    elif fam == "mollified_call":
        out["strike"] = _num(blk, "strike", minimum=0.0, strict=True)
        out["n"] = _num(blk, "n", minimum=0.0, strict=True)
    else:
        raise SpecError(f"unknown function family {fam!r}")
    return out


def _jump_map(norm):
    if norm["type"] == "identity":
        return lambda y: y
    factor = norm["factor"]
    return lambda y: y * factor


def _norm_jump_map(blk):
    blk = blk or {"type": "identity"}
    typ = blk.get("type")
    if typ == "identity":
        return {"type": "identity"}
    if typ == "scale":
        return {"type": "scale", "factor": _num(blk, "factor")}
    raise SpecError(f"unknown jump_map type {typ!r}")


def parse(data):
    """Validate and normalize a raw dict into a ModelSpec."""
    _require(isinstance(data, dict), "spec must be a JSON object")
    present = [b for b in _BLOCKS if b in data]
    _require(len(present) == 1,
             f"exactly one of {_BLOCKS} must be present, got {present}")
    unknown = set(data) - set(_BLOCKS) - {"query", "sim"}
    _require(not unknown, f"unknown top-level keys {sorted(unknown)}")

    out = {}
    if "model" in data:
        blk = data["model"]
        _require(isinstance(blk, dict), "'model' must be an object")
        out["model"] = {
            "S0": _num(blk, "S0", minimum=0.0, strict=True),
            "r": _num(blk, "r", 0.0, minimum=0.0),
            "sigma": _num(blk, "sigma", 0.0, minimum=0.0),
            "jumps": _norm_jumps(blk.get("jumps", {"type": "none"})),
        }
    elif "markov" in data:
        blk = data["markov"]
        _require(isinstance(blk, dict), "'markov' must be an object")
        Z0 = blk.get("Z0")
        _require(isinstance(Z0, list) and Z0, "'markov' needs Z0 as a list")
        d = len(Z0)
        b = blk.get("b")
        Sigma = blk.get("Sigma")
        _require(isinstance(b, list) and len(b) == d, "b must match Z0 length")
        _require(isinstance(Sigma, list) and len(Sigma) == d
                 and all(isinstance(row, list) and len(row) == d for row in Sigma),
                 "Sigma must be a d x d matrix")
        out["markov"] = {
            "b": _numbers(b, "b"),
            "Sigma": [_numbers(row, "Sigma") for row in Sigma],
            "jump_map": _norm_jump_map(blk.get("jump_map")),
            "nu": _norm_jumps(blk.get("nu", {"type": "none"})),
            "f": _norm_fspec(blk["f"]) if "f" in blk else _fail("markov needs 'f'"),
            "Z0": _numbers(Z0, "Z0"),
        }
        # spec jump maps give scalar jump sizes, which move one coordinate
        _require(d == 1 or out["markov"]["nu"]["type"] == "none",
                 f"a markov block with {d} coordinates takes no jumps: nu "
                 "must be of type 'none' (jump sizes in specs are scalars)")
    else:
        blk = data["time_change"]
        _require(isinstance(blk, dict), "'time_change' must be an object")
        out["time_change"] = {
            "b": _num(blk, "b", 0.0),
            "sigma2": _num(blk, "sigma2", 0.0, minimum=0.0),
            "nu": _norm_jumps(blk.get("nu", {"type": "none"})),
            "theta0": _num(blk, "theta0", minimum=0.0),
        }

    if "query" in data:
        q = data["query"]
        _require(isinstance(q, dict), "'query' must be an object")
        nq = {}
        for key in ("strike", "t", "x"):
            if key in q:
                nq[key] = _num(q, key)
        if "t_grid" in q:
            _require(isinstance(q["t_grid"], list) and q["t_grid"],
                     "t_grid must be a nonempty list")
            nq["t_grid"] = _numbers(q["t_grid"], "t_grid")
        if "f" in q:
            nq["f"] = _norm_fspec(q["f"])
        unknown = set(q) - {"strike", "t", "x", "t_grid", "f"}
        _require(not unknown, f"unknown query keys {sorted(unknown)}")
        out["query"] = nq

    sim = dict(_SIM_DEFAULTS)
    if "sim" in data:
        blk = data["sim"]
        _require(isinstance(blk, dict), "'sim' must be an object")
        unknown = set(blk) - set(_SIM_DEFAULTS)
        _require(not unknown, f"unknown sim keys {sorted(unknown)}")
        for key in ("n_paths", "n_steps", "master_seed", "n_workers"):
            if key in blk:
                _require(isinstance(blk[key], int) and not isinstance(blk[key], bool),
                         f"sim.{key} must be an integer")
        sim.update(blk)
        if "small_jump_cutoff" in blk:
            sim["small_jump_cutoff"] = _num(blk, "small_jump_cutoff",
                                            minimum=0.0, strict=True)
    out["sim"] = sim
    spec = ModelSpec(out)
    spec.sim_config()  # validates the sim block
    return spec


def _fail(msg):
    raise SpecError(msg)


def emit(spec):
    """Canonical dict form of a ModelSpec; parse(emit(s)) == s."""
    return spec.data


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    return parse(data)
