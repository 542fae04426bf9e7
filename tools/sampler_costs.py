"""Reprint the per-stream cost table of the ``montecarlo`` module docstring.

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
"""

import argparse
import timeit

import numpy as np

import smalltime as st
from smalltime import montecarlo as mc

MEANS = [0.001, 0.03, 0.3, 0.5, 0.7, 1.0, 6.66]
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


def render(rows):
    """The rows as a reStructuredText simple table, as in the docstring."""
    head = ["mu"] + [f"{mu:g}" for mu in MEANS]
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
    print(render(measure(args.repeat, args.number)))


if __name__ == "__main__":
    main()
