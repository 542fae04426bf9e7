"""Command-line front door.

Four commands over a JSON model-spec file, each taking the same flags:

* ``asymptotics``: regime classification and leading coefficient at a strike;
* ``expansion``: generator value and first-order expansion for a builtin
  test function;
* ``verify``: Monte Carlo convergence table against the predicted
  coefficient, with a PASS/FAIL verdict (exit code 5 on FAIL);
* ``simulate``: direct Monte Carlo estimates.

Exit codes: 0 success, 2 spec/usage error, 3 no asymptotic regime applies,
4 quadrature failure, 5 verification failure, 1 other model errors.
Identical spec and seed produce byte-identical output regardless of
``--workers``.
"""

import argparse
import functools
import json
import math
import sys

from . import asymptotics as asym
from . import modelspec
from . import montecarlo as mc
from .errors import (DomainError, QuadratureDivergence, RegimeUnknown,
                     SmallTimeError, SpecError)
from .generator import apply_exp_generator, apply_generator
from .functions import from_spec as function_from_spec
from .quadrature import DEFAULT_TOL

CSV_HEADER = "t,estimate,std_error,ratio,predicted"


class VerifyFailure(SmallTimeError):
    pass


class NonFiniteResult(SmallTimeError):
    """A result holds an infinity or a NaN, which JSON cannot carry."""


def _write(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_record(args, record, rows=None):
    """Write a command's record as one strict JSON line, or its rows as CSV
    with ``--format csv``. A record holding an infinity or a NaN is refused
    in either format, so output never carries ``Infinity`` or ``NaN``."""
    try:
        text = json.dumps(record, allow_nan=False) + "\n"
    except ValueError:
        raise NonFiniteResult(
            "the result is not finite (inputs beyond the range of floats)") from None
    _write(args, _csv_rows(rows) if args.format == "csv" and rows is not None else text)


def _fmt(v):
    return repr(float(v))


def _csv_rows(rows):
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            _fmt(r["t"]), _fmt(r["estimate"]), _fmt(r["std_error"]),
            _fmt(r["ratio"]) if r["ratio"] is not None else "",
            _fmt(r["predicted"]) if r["predicted"] is not None else "",
        ]))
    return "\n".join(lines) + "\n"


def _query_value(spec, key, flag_value, required=True):
    if flag_value is not None:
        return flag_value
    if key in spec.query:
        return spec.query[key]
    if required:
        raise SpecError(f"{key!r} must be given via the query block or flag")
    return None


def _positive_horizon(t):
    if not t > 0:
        raise SpecError(f"horizon must be positive, got {t!r}")
    return t


def cmd_asymptotics(args, spec):
    ec = spec.exp_model()
    K = float(_query_value(spec, "strike", args.strike))
    res = asym.leading_term(ec, K, args.tol)
    record = {"regime": res.regime, "exponent": res.exponent,
              "coefficient": res.coefficient,
              "constant_term": res.constant_term,
              "diagnostics": res.diagnostics}
    if res.alpha is not None:
        record["alpha"] = res.alpha
    _write_record(args, record)
    return 0


def cmd_expansion(args, spec):
    if "f" not in spec.query:
        raise SpecError("expansion needs a 'f' entry in the query block")
    f = function_from_spec(spec.query["f"])
    t = float(_query_value(spec, "t", args.t))
    if not t >= 0:
        raise SpecError(f"expansion time must be >= 0, got {t!r}")
    # Python's float ** and math.exp raise on overflow instead of giving inf
    try:
        if spec.kind == "model":
            ec = spec.exp_model()
            x = float(spec.query.get("x", ec.S0))
            lf = apply_exp_generator(ec, f, x, args.tol)
        else:
            chars = spec.local_characteristics(args.tol)
            if spec.kind == "markov":
                blk = spec.data["markov"]
                base_f = function_from_spec(blk["f"])
                z0 = blk["Z0"]
                default_x = base_f.value(z0 if len(z0) > 1 else z0[0])
            else:
                default_x = 0.0
            x = float(spec.query.get("x", default_x))
            lf = apply_generator(chars, f, x, args.tol)
        fx = f.value(x)
    except OverflowError:
        raise DomainError("f or its generator overflows a float at the "
                          "evaluation point") from None
    record = {"x": x, "t": t, "f_value": fx, "generator_value": lf,
              "expansion": fx + t * lf}
    _write_record(args, record)
    return 0


def cmd_verify(args, spec):
    ec = spec.exp_model()
    K = float(_query_value(spec, "strike", args.strike))
    grid = args.t_grid or spec.query.get("t_grid")
    if not grid:
        raise SpecError("verify needs a t_grid (query block or --t-grid)")
    grid = [_positive_horizon(float(t)) for t in grid]
    res = asym.leading_term(ec, K, args.tol)
    a = res.coefficient
    p = res.exponent
    c0 = res.constant_term
    cfg = spec.sim_config(master_seed=args.seed, n_workers=args.workers,
                          n_paths=args.paths)
    rows = [{"t": r.t, "estimate": r.estimate, "std_error": r.std_error,
             "ratio": r.ratio, "predicted": a}
            for r in mc.slope_rows(ec, K, grid, p, cfg, c0)]
    smallest = rows[-1]
    threshold = 3.0 * smallest["std_error"] / smallest["t"] ** p + 0.05 * abs(a)
    passed = abs(smallest["ratio"] - a) <= threshold
    verdict = {
        "verdict": "PASS" if passed else "FAIL",
        "regime": res.regime,
        "exponent": p,
        "predicted": a,
        "constant_term": c0,
        "smallest_t": smallest["t"],
        "smallest_t_ratio": smallest["ratio"],
        "threshold": threshold,
    }
    _write_record(args, {**verdict, "rows": rows}, rows)
    if args.format == "csv" and not passed:
        sys.stderr.write(json.dumps(verdict) + "\n")
    if not passed:
        raise VerifyFailure(
            f"smallest-t ratio {smallest['ratio']!r} outside "
            f"{a!r} +- {threshold!r}")
    return 0


def cmd_simulate(args, spec):
    ec = spec.exp_model()
    t = _positive_horizon(float(_query_value(spec, "t", args.t)))
    K = _query_value(spec, "strike", args.strike, required=False)
    cfg = spec.sim_config(master_seed=args.seed, n_workers=args.workers,
                          n_paths=args.paths)
    if K is not None:
        est = mc.estimate_call(ec, t, float(K), cfg)
    else:
        # strike 0 prices the discounted forward
        est = mc.price_grid(ec, [t], [0.0], cfg)[0][0]
    record = {"t": t, "estimate": est.value, "std_error": est.std_error,
              "n_paths": est.n_paths}
    if K is not None:
        record["strike"] = float(K)
    rows = [{"t": t, "estimate": est.value, "std_error": est.std_error,
             "ratio": None, "predicted": None}]
    _write_record(args, record, rows)
    return 0


def _t_grid(text):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad t-grid {text!r}") from exc


COMMANDS = {"asymptotics": cmd_asymptotics, "expansion": cmd_expansion,
            "verify": cmd_verify, "simulate": cmd_simulate}


def build_parser():
    """A fresh parser; ``main`` builds one on its first call and reuses it."""
    parser = argparse.ArgumentParser(
        prog="smalltime",
        description="Short-maturity asymptotics of jump-diffusion models "
                    "with Monte Carlo verification.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--spec", required=True, help="path to the JSON model spec")
    parser.add_argument("--strike", type=float, default=None)
    parser.add_argument("--t", type=float, default=None)
    parser.add_argument("--t-grid", type=_t_grid, default=None,
                        help="comma separated maturities, e.g. 0.001,0.01,0.03")
    parser.add_argument("--seed", type=int, default=None,
                        help="override sim.master_seed (spec default 0)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="write output to a file")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="quadrature error budget: absolute for integrands whose "
                             "|f| integrates to at most 1, relative above")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--paths", type=int, default=None,
                        help="override sim.n_paths")
    return parser


def _require_finite(args):
    """float() accepts 'nan' and 'inf', which no numeric flag may take."""
    flags = [("--strike", args.strike), ("--t", args.t), ("--tol", args.tol)]
    flags += [("--t-grid", t) for t in args.t_grid or ()]
    for flag, value in flags:
        if value is not None and not math.isfinite(value):
            raise SpecError(f"{flag} must be finite, got {value!r}")


_shared_parser = functools.cache(build_parser)


def main(argv=None):
    args = _shared_parser().parse_args(argv)
    try:
        _require_finite(args)
        spec = modelspec.load(args.spec)
        return COMMANDS[args.command](args, spec)
    except SpecError as exc:
        sys.stderr.write(f"spec error: {exc}\n")
        return 2
    except RegimeUnknown as exc:
        sys.stderr.write(f"no asymptotic regime: {exc}\n")
        return 3
    except QuadratureDivergence as exc:
        sys.stderr.write(f"quadrature failure: {exc}\n")
        return 4
    except VerifyFailure as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return 5
    except SmallTimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
