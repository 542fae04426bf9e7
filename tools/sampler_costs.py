"""Reprint the two cost tables of the ``montecarlo`` module docstring.

Usage::

    PYTHONPATH=src python tools/sampler_costs.py [--repeat R] [--number N]

Each cell is the fastest of R x N calls (``timeit.repeat``), in ms per
compound-Poisson stream and block of n = 2**16 paths, at the Poisson means
per path of the docstring's table. The rows:

* ``counts``: ``_poisson_counts`` alone: the number of paths that jump,
  their indices and their zero-truncated counts (``_ztp_counts``);
* ``+ normal sum``, ``+ Laplace sum``: the counts, the ``sum_sampler`` hook
  of ``normal_jumps(1, 0, 0.4)`` or ``laplace_jumps(1, 0.2)``, and the
  scatter into the jump-sum row (one ``_CompoundPoisson.draw``);
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
that cost as much as the fixed part, which sets
``montecarlo._JUMPING_SHARE``.
"""

import argparse
import math
import timeit

import numpy as np

import smalltime as st
from smalltime import montecarlo as mc

MEANS = [0.001, 0.03, 0.3, 0.5, 0.7, 1.0, 6.66]
JUMPING = [64, 128, 256, 512, 1024, 2048, 4096, 8192]
BLOCK = 1 << 16


def _power_tail_side(c):
    part = mc._truncated_power_tail(st.stable_like(1.5, c), 0.01)
    return part.streams[0][1]


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
                part = mc._CompoundPoisson([(mu, hooks[label])], 0.0)

                def call(part=part):
                    part.draw(rng, 1.0, out)
            cells.append(_fastest_ms(call, repeat, number))
        rows.append((label if label == "counts" else "+ " + label, cells))
    cells = []
    for mu in MEANS:
        ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2, st.normal_jumps(mu, 0.0, 0.4))
        plan = mc._SimulationPlan(ec, [1.0], st.SimConfig(n_paths=100), None)
        cells.append(_fastest_ms(lambda plan=plan: plan.jump_sums(rng, 1.0, BLOCK),
                                 repeat, number))
    rows.append(("conditional clock + normal sum", cells))
    return rows


def measure_cell(repeat, number):
    """Row ``("conditional cell", [us per cell at each of JUMPING])`` of the
    second table, and the fitted fixed cost in us and cost per jumping path
    in ns."""
    rng = np.random.Generator(np.random.Philox(key=np.array([0, 1], dtype=np.uint64)))
    ec = st.ExpModelCharacteristics(1.0, 0.0, 0.2, st.normal_jumps(1.0, 0.0, 0.4))
    mean, m2 = np.empty((2, 1)), np.empty((3, 1))
    cells = []
    for m in JUMPING:
        # at intensity 1 a path jumps with probability 1 - e^-t = m / BLOCK
        t = -math.log1p(-m / BLOCK)
        plan = mc._SimulationPlan(ec, [t], st.SimConfig(n_paths=100), None)
        (h,) = plan.horizons

        def call(plan=plan, h=h, t=t):
            mc._call_given_jumps(BLOCK, h, plan.jump_sums(rng, t, BLOCK), [1.0], mean, m2)
        cells.append(1e3 * _fastest_ms(call, repeat, number))
    # relative residuals, so the short cells weigh as much as the long ones
    per_path, fixed = np.polyfit(JUMPING, cells, 1, w=1.0 / np.array(cells))
    return ("conditional cell", cells), fixed, 1e3 * per_path


def render(head, rows):
    """The rows under the header ``head`` as a reStructuredText simple
    table, as in the docstring."""
    body = [[label] + [f"{v:.2f}" for v in cells] for label, cells in rows]
    widths = [max(len(r[i]) for r in [head] + body) for i in range(len(head))]
    rule = "  ".join("=" * w for w in widths)

    def line(r):
        return "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()

    return "\n".join([rule, line(head), rule, *map(line, body), rule])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--number", type=int, default=8)
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


if __name__ == "__main__":
    main()
