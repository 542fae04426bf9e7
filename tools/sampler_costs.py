"""Reprint the cost tables of the Monte Carlo kernels: the share table of
docs/montecarlo.md, and the stream and cell tables that CHANGES.md keeps.

Usage::

    PYTHONPATH=src python tools/sampler_costs.py [--repeat R] [--number N] [--seeds S]

Each cell is the fastest of R x N calls (``timeit.repeat``), in ms per
compound-Poisson stream and block of n = 2**16 paths, at the Poisson means
per path of the stream table. The rows:

* ``counts``: ``_poisson_counts`` alone: the number of paths that jump,
  their indices and their zero-truncated counts (``_ztp_counts``);
* ``+ normal sum``, ``+ Laplace sum``: the counts, the ``sum_sampler`` hook
  of ``normal_jumps(1, 0, 0.4)`` or ``laplace_jumps(1, 0.2)``, and the
  scatter into the jump-sum row (``_SimulationPlan.stream_sums`` of a plan
  with that one stream);
* ``+ power tail, closed form`` and ``+ power tail, table``: the same with
  the positive side of the ``euler_log`` power tail at alpha 1.5 and cutoff
  0.01, for c = 1 (closed-form inverse CDF) and c(y) = 1 + y/2 (the alias
  table of ``_table_sampler``), so its per-jump cost shows at every mean;
* ``conditional clock + normal sum``: ``_SimulationPlan.jump_sums`` of a
  one-stream plan with normal jumps, the draws of the conditional kernel:
  the number of paths that jump, their zero-truncated counts and the
  ``sum_sampler`` hook, with no path index and no scatter.

Every row draws the same way at every mean, although the simulator prices
a maturity by the conditional kernel only below ``_CONDITIONAL_BELOW``.

A second table, in us, costs one ``conditional cell`` of ``price_grid``:
``_SimulationPlan.jump_sums`` plus ``_call_given_jumps`` at one strike
(K = 1, as one ``verify`` prices), for a block of 2**16 paths of the same
normal jumps at the horizon where 64 ... 8192 of them jump on average. A
line fitted to it by least relative squares gives the fixed cost of a cell
and the cost per jumping path; their ratio is the number of jumping paths
that cost as much as the fixed part.

A third table, the share table, prices the grid of the ``mc_merton_ladder``
benchmark (the README Merton spec, 2**20 paths, maturities 1e-3, 3e-3, 1e-2
and 3e-2, one worker) at each share ``montecarlo._JUMPING_SHARE`` of 1/256
... 1/32. Per share it gives, in ms, ``price_grid`` at K = 1.1 and a whole
in-process ``smalltime verify`` at K = 1.1 (the benchmark's op: the CLI,
the spec, the coefficient and the grid), both the fastest of R x N calls;
the relative standard error (SE over the estimate less the intrinsic
value) at t = 1e-3 at each strike 0.8 ... 1.2, the median of S seeds; and
the op's cost per unit variance, the op time times the squared relative SE
averaged over the strikes, relative to the first row. That cost is what the
benchmark's ``time_to_1pct_s`` measures.
"""

import argparse
import contextlib
import io
import json
import math
import os
import tempfile
import timeit

import numpy as np

import smalltime as st
from smalltime import cli
from smalltime import montecarlo as mc

MEANS = [0.001, 0.03, 0.3, 0.5, 0.7, 1.0, 6.66]
JUMPING = [64, 128, 256, 512, 1024, 2048, 4096, 8192]
BLOCK = 1 << 16
SHARES = [256, 128, 64, 32]  # 1 / share
LADDER_T = [1e-3, 3e-3, 1e-2, 3e-2]
LADDER_K = [0.8, 0.9, 1.0, 1.1, 1.2]
LADDER_PATHS = 1 << 20
MERTON = {"S0": 1.0, "r": 0.0, "sigma": 0.2,
          "jumps": {"type": "density", "family": "normal", "intensity": 1.0,
                    "mean": 0.0, "std": 0.4}}


def _power_tail_side(c):
    streams, _ = mc._truncated_power_tail(st.stable_like(1.5, c), 0.01)
    return streams[0][1]


def _plan(jumps, t):
    """A simulation plan of sigma 0.2 and the given jumps at horizon t."""
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2, jumps)
    return mc._SimulationPlan(ec, [t], st.SimConfig(n_paths=100), None)


def _hooks():
    return {
        "normal sum": st.normal_jumps(1.0, 0.0, 0.4).sum_sampler,
        "Laplace sum": st.laplace_jumps(1.0, 0.2).sum_sampler,
        "power tail, closed form": _power_tail_side(1.0),
        "power tail, table": _power_tail_side(lambda y: 1.0 + 0.5 * y),
    }


def _fastest_ms(call, repeat, number):
    return min(timeit.repeat(call, repeat=repeat, number=number)) / number * 1e3


def measure(repeat, number):
    """Rows ``(label, [ms per mean])`` of the table."""
    rng = np.random.Generator(np.random.Philox(key=np.array([0, 0], dtype=np.uint64)))
    out = np.empty(BLOCK)
    rows = []
    hooks = _hooks()
    for label in ["counts", *hooks]:
        cells = []
        for mu in MEANS:
            if label == "counts":
                def call(mu=mu):
                    mc._poisson_counts(rng, mu, BLOCK)
            else:
                plan = _plan(st.no_jumps(), 1.0)
                plan.streams = [(mu, hooks[label])]

                def call(plan=plan):
                    plan.stream_sums(rng, 1.0, out)
            cells.append(_fastest_ms(call, repeat, number))
        rows.append((label if label == "counts" else "+ " + label, cells))
    cells = []
    for mu in MEANS:
        plan = _plan(st.normal_jumps(mu, 0.0, 0.4), 1.0)
        cells.append(_fastest_ms(lambda plan=plan: plan.jump_sums(rng, 1.0, BLOCK),
                                 repeat, number))
    rows.append(("conditional clock + normal sum", cells))
    return rows


def measure_cell(repeat, number):
    """Row ``("conditional cell", [us per cell at each of JUMPING])`` of the
    second table, and the fitted fixed cost in us and cost per jumping path
    in ns."""
    rng = np.random.Generator(np.random.Philox(key=np.array([0, 1], dtype=np.uint64)))
    part = mc._Partial(1, 1, BLOCK)
    cells = []
    for m in JUMPING:
        # at intensity 1 a path jumps with probability 1 - e^-t = m / BLOCK
        t = -math.log1p(-m / BLOCK)
        plan = _plan(st.normal_jumps(1.0, 0.0, 0.4), t)
        (h,) = plan.horizons

        def call(plan=plan, h=h, t=t):
            mc._call_given_jumps(part, 0, BLOCK, h, plan.jump_sums(rng, t, BLOCK), [1.0])
        cells.append(1e3 * _fastest_ms(call, repeat, number))
    # relative residuals, so the short cells weigh as much as the long ones
    per_path, fixed = np.polyfit(JUMPING, cells, 1, w=1.0 / np.array(cells))
    return ("conditional cell", cells), fixed, 1e3 * per_path


def measure_share(repeat, number, seeds):
    """Rows ``(1/share, [grid ms, verify ms, relative SE per strike, cost
    per unit variance])`` of the share table."""
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2, st.normal_jumps(1.0, 0.0, 0.4))
    rows = []
    saved = mc._JUMPING_SHARE
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "merton.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"model": MERTON, "query": {"t_grid": LADDER_T},
                       "sim": {"n_paths": LADDER_PATHS, "master_seed": 0,
                               "n_workers": 1}}, fh)
        argv = ["verify", "--spec", spec, "--strike", "1.1",
                "--out", os.path.join(tmp, "verify.json")]

        def verify():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)

        try:
            for share in SHARES:
                mc._JUMPING_SHARE = 1.0 / share
                grid_ms = _fastest_ms(lambda: mc.price_grid(
                    ec, LADDER_T, [1.1], st.SimConfig(n_paths=LADDER_PATHS)), repeat, number)
                op_ms = _fastest_ms(verify, repeat, number)
                rel = np.median([[e.std_error / (e.value - max(1.0 - K, 0.0))
                                  for K, e in zip(LADDER_K, mc.price_grid(
                                      ec, LADDER_T[:1], LADDER_K,
                                      st.SimConfig(n_paths=LADDER_PATHS,
                                                   master_seed=seed))[0])]
                                 for seed in range(seeds)], axis=0)
                rows.append((f"1/{share}", [grid_ms, op_ms, *rel,
                                            op_ms * float(np.mean(rel ** 2))]))
        finally:
            mc._JUMPING_SHARE = saved
    base = rows[0][1][-1]
    for _, cells in rows:
        cells[-1] /= base
    return rows


def render(head, rows, fmt="{:.2f}"):
    """The rows under the header ``head`` as a reStructuredText simple
    table, as in docs/montecarlo.md; ``fmt`` formats each cell, or ``fmt[i]``
    column i + 1 when it is a list."""
    fmts = fmt if isinstance(fmt, list) else [fmt] * len(head)
    body = [[label] + [f.format(v) for f, v in zip(fmts, cells)] for label, cells in rows]
    widths = [max(len(r[i]) for r in [head] + body) for i in range(len(head))]
    rule = "  ".join("=" * w for w in widths)

    def line(r):
        return "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()

    return "\n".join([rule, line(head), rule, *map(line, body), rule])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--number", type=int, default=8)
    ap.add_argument("--seeds", type=int, default=16)
    args = ap.parse_args()
    print(f"ms per stream and block of n = 2**16, fastest of "
          f"{args.repeat} x {args.number} calls")
    print(render(["mu"] + [f"{mu:g}" for mu in MEANS], measure(args.repeat, args.number)))
    row, fixed, per_path = measure_cell(args.repeat, args.number)
    print(f"\nus per conditional cell of n = 2**16 at one strike, fastest of "
          f"{args.repeat} x {args.number} calls")
    print(render(["jumping paths"] + [str(m) for m in JUMPING], [row]))
    print(f"fit: {fixed:.1f} us + {per_path:.1f} ns per jumping path; the fixed "
          f"part costs as much as {fixed / per_path * 1e3:.0f} jumping paths")
    print(f"\nthe ladder grid per share, ms fastest of {args.repeat} x {args.number} "
          f"calls, relative SE at t = 1e-3 the median of {args.seeds} seeds")
    print(render(["share", "grid ms", "verify ms", *(f"K={K:g}" for K in LADDER_K),
                  "op time x SE^2"],
                 measure_share(args.repeat, args.number, args.seeds),
                 ["{:.2f}"] * 2 + ["{:.4f}"] * len(LADDER_K) + ["{:.2f}"]))


if __name__ == "__main__":
    main()
