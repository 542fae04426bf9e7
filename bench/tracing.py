"""Span tracing from outside the program, and the per-layer metrics made from
the spans.

``Tracer.install`` replaces public functions and methods of ``smalltime``
with wrappers that record one span per call: layer name, start, end, parent
span and operation id. A function is replaced under every name any
``smalltime`` module binds it to, so calls between modules nest. Spans stay
in memory and are written out with ``dump`` when the traced run ends;
``layer_metrics`` turns a dump into per-layer metrics.

The Monte Carlo wrappers also count blocks and paths, repeated simulations,
paths with a nonzero payoff and the tracemalloc peak of each
``estimate_call``.
"""

import functools
import sys
import time
import tracemalloc
from array import array
from dataclasses import astuple, replace

import numpy as np

BLOCK = 1 << 16  # paths per Monte Carlo block, fixed by the program

# (module, attribute, layer): public functions, wrapped at every binding
FUNCTIONS = [
    ("smalltime.quadrature", "quad_abs", "quadrature"),
    ("smalltime.quadrature", "quad_soft", "quadrature"),
    ("smalltime.quadrature", "quad_singular_origin", "quadrature"),
    ("smalltime.compensators", "exp_double_tail_up", "compensators.double_tail"),
    ("smalltime.compensators", "exp_double_tail_down", "compensators.double_tail"),
    ("smalltime.modelspec", "load", "modelspec.load"),
    ("smalltime.cli", "main", "cli.main"),
    ("smalltime.asymptotics", "classify_regime", "asymptotics.classify"),
    ("smalltime.asymptotics", "otm_slope", "asymptotics.otm"),
    ("smalltime.asymptotics", "itm_slope", "asymptotics.itm"),
    ("smalltime.asymptotics", "atm_coefficient", "asymptotics.atm"),
    ("smalltime.generator", "apply_generator", "generator.apply"),
    ("smalltime.generator", "apply_exp_generator", "generator.apply"),
    ("smalltime.characteristics", "from_markov", "characteristics.from_markov"),
    ("smalltime.characteristics", "from_time_changed_levy",
     "characteristics.from_time_changed_levy"),
]
MC_SIMULATE = ("smalltime.montecarlo", "simulate_terminal", "montecarlo.simulate")
MC_ESTIMATE = ("smalltime.montecarlo", "estimate_call", "montecarlo.estimate_call")

# (class name in smalltime.compensators, method, layer)
METHODS = [(cls, meth, layer)
           for cls in ("AtomicCompensator", "DensityCompensator",
                       "StableLikeCompensator", "PushforwardCompensator")
           for meth, layer in (("__init__", "compensators.build"),
                               ("upper_tail", "compensators.tail"),
                               ("lower_tail", "compensators.tail"))]

LAYERS = sorted({layer for *_, layer in FUNCTIONS + METHODS}
                | {MC_SIMULATE[2], MC_ESTIMATE[2]})


class Tracer:
    def __init__(self, track_memory=False):
        self.track_memory = track_memory
        self.layer_id = {name: i for i, name in enumerate(LAYERS)}
        # one entry per span, in entry order, so a parent precedes its children
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.failed = array("b")
        self.stack = []
        self.op_id = -1
        self.round = -1
        self.model_key = ""
        self._sites = None
        # Monte Carlo counters
        self.sims = 0
        self.repeat_sims = 0
        self.blocks = 0
        self.paths = 0
        self.hit_paths = 0
        self.priced_paths = 0
        self.peak_mb = 0.0
        self.probe_args = None
        self._seen = set()
        self._samples = None

    # -- spans ----------------------------------------------------------------
    def _enter(self, layer):
        i = len(self.name)
        self.name.append(layer)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.failed.append(0)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _exit(self, i):
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, fn, layer):
        lid = self.layer_id[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._enter(lid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[i] = 1
                raise
            finally:
                self._exit(i)

        return wrapper

    def _wrap_simulate(self, fn, layer):
        traced = self._wrap(fn, layer)

        @functools.wraps(fn)
        def simulate(ec, t, cfg, rate_fn=None):
            key = (self.round, self.model_key, t, astuple(cfg))
            self.sims += 1
            if key in self._seen:
                self.repeat_sims += 1
            self._seen.add(key)
            self.blocks += -(-cfg.n_paths // BLOCK)
            self.paths += cfg.n_paths
            self._samples = traced(ec, t, cfg, rate_fn)
            return self._samples

        return simulate

    def _wrap_estimate(self, fn, layer):
        traced = self._wrap(fn, layer)

        @functools.wraps(fn)
        def estimate(ec, t, K, cfg, rate_fn=None):
            if self.probe_args is None:
                self.probe_args = (fn, ec, t, K, cfg, rate_fn)
            if self.track_memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            out = traced(ec, t, K, cfg, rate_fn)
            if self.track_memory:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peak_mb = max(self.peak_mb, peak / 2**20)
            if self._samples is not None:
                self.hit_paths += int(np.count_nonzero(self._samples > K))
                self.priced_paths += self._samples.size
                self._samples = None
            return out

        return estimate

    # -- installation -----------------------------------------------------------
    def _find_sites(self):
        """Every (owner, name, original, wrapper) to patch, found once."""
        sites = []
        modules = [mod for name, mod in sys.modules.items()
                   if name == "smalltime" or name.startswith("smalltime.")]
        specs = [(spec, self._wrap) for spec in FUNCTIONS]
        specs += [(MC_SIMULATE, self._wrap_simulate), (MC_ESTIMATE, self._wrap_estimate)]
        for (module, attr, layer), factory in specs:
            original = getattr(sys.modules[module], attr)
            wrapper = factory(original, layer)
            sites += [(mod, key, original, wrapper) for mod in modules
                      for key, value in vars(mod).items() if value is original]
        comp = sys.modules["smalltime.compensators"]
        for cls_name, meth, layer in METHODS:
            cls = getattr(comp, cls_name)
            if meth in vars(cls):
                original = vars(cls)[meth]
                sites.append((cls, meth, original, self._wrap(original, layer)))
        return sites

    def install(self):
        if self._sites is None:
            self._sites = self._find_sites()
        for owner, key, _, wrapper in self._sites:
            setattr(owner, key, wrapper)
        if self.track_memory:
            tracemalloc.start()

    def uninstall(self):
        if self.track_memory:
            tracemalloc.stop()
        for owner, key, original, _ in self._sites:
            setattr(owner, key, original)

    def begin_op(self, op_id, op):
        self.op_id = op_id
        self.round = op.round
        self.model_key = op.model_key
        self.probe_args = None

    def plan_probe_ms(self, min_paths=100):
        """Time one untraced estimate_call at the minimum path count with
        the arguments of the op's first estimate_call: its fixed cost."""
        if self.probe_args is None:
            return None
        fn, ec, t, K, cfg, rate_fn = self.probe_args
        small = replace(cfg, n_paths=min_paths)
        t0 = time.perf_counter()
        fn(ec, t, K, small, rate_fn)
        return 1e3 * (time.perf_counter() - t0)

    # -- output -------------------------------------------------------------
    def dump(self, path):
        np.savez(path, layers=np.array(LAYERS), name=np.frombuffer(self.name, np.int16),
                 start=np.frombuffer(self.start, np.int64),
                 end=np.frombuffer(self.end, np.int64),
                 parent=np.frombuffer(self.parent, np.int64),
                 op=np.frombuffer(self.op, np.int64),
                 failed=np.frombuffer(self.failed, np.int8).astype(bool))

    def counters(self):
        return {"sims": self.sims, "repeat_sims": self.repeat_sims,
                "blocks": self.blocks, "paths": self.paths,
                "hit_paths": self.hit_paths, "priced_paths": self.priced_paths,
                "peak_mb": self.peak_mb}


def layer_times(path):
    """Per-layer call counts, failures, inclusive and self nanoseconds from a
    span dump.

    A layer's inclusive time counts each span of the layer that has no
    ancestor in the same layer, so recursion into a layer is not counted
    twice. Self time is a span's duration minus the time its direct
    children cover.
    """
    d = np.load(path)
    layers = list(d["layers"])
    name, parent = d["name"].astype(np.int64), d["parent"]
    dur = (d["end"] - d["start"]).astype(np.float64)
    n = name.size
    has_parent = parent >= 0
    child_cover = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_ns = dur - child_cover
    # bitmask of the layers on each span's ancestor chain; spans are stored
    # in entry order, so a parent always precedes its children
    par, nm = parent.tolist(), name.tolist()
    ancestors = [0] * n
    for i in range(n):
        p = par[i]
        if p >= 0:
            ancestors[i] = ancestors[p] | (1 << nm[p])
    top = (np.array(ancestors, np.int64) >> name) & 1 == 0
    out = {}
    for lid, layer in enumerate(layers):
        sel = name == lid
        out[str(layer)] = {
            "calls": int(sel.sum()),
            "failed": int((sel & d["failed"]).sum()),
            "incl_ns": float(dur[sel & top].sum()),
            "self_ns": float(self_ns[sel].sum()),
        }
    return out


PER_LAYER = [
    # name, unit; BENCHMARK.json declares the same names with their direction
    ("import.s", "s"),
    ("quadrature.calls", "count/op"),
    ("quadrature.ms", "ms/op"),
    ("quadrature.failed", "count/op"),
    ("compensators.build.calls", "count/op"),
    ("compensators.build.ms", "ms/op"),
    ("compensators.double_tail.calls", "count/op"),
    ("compensators.double_tail.ms", "ms/op"),
    ("compensators.tail.calls", "count/op"),
    ("compensators.tail.ms", "ms/op"),
    ("modelspec.load.ms", "ms/op"),
    ("cli.main.self_ms", "ms/op"),
    ("asymptotics.classify.calls", "count/op"),
    ("asymptotics.classify.ms", "ms/op"),
    ("asymptotics.otm.calls", "count/op"),
    ("asymptotics.otm.ms", "ms/op"),
    ("asymptotics.itm.calls", "count/op"),
    ("asymptotics.itm.ms", "ms/op"),
    ("asymptotics.atm.calls", "count/op"),
    ("asymptotics.atm.ms", "ms/op"),
    ("generator.apply.calls", "count/op"),
    ("generator.apply.ms", "ms/op"),
    ("characteristics.from_markov.ms", "ms/op"),
    ("characteristics.from_time_changed_levy.ms", "ms/op"),
    ("montecarlo.simulate.ms", "ms/op"),
    ("montecarlo.blocks", "count/op"),
    ("montecarlo.paths", "count/op"),
    ("montecarlo.block.ms", "ms"),
    ("montecarlo.reduce.ms", "ms/op"),
    ("montecarlo.peak_traced_mb", "MB"),
    ("montecarlo.repeat_sim_frac", "fraction"),
    ("montecarlo.hit_frac", "fraction"),
    ("montecarlo.plan.ms", "ms"),
    ("trace.overhead_frac", "fraction"),
]


def layer_metrics(times, counters, n_ops, import_s, plan_ms, overhead):
    """The per-layer metrics of one traced run, normalised per traced op,
    as {name: (value, unit)}."""
    def ms(layer, kind="incl_ns"):
        return times[layer][kind] / 1e6 / n_ops

    def calls(layer):
        return times[layer]["calls"] / n_ops

    v = {"import.s": import_s,
         "quadrature.calls": calls("quadrature"),
         "quadrature.ms": ms("quadrature"),
         "quadrature.failed": times["quadrature"]["failed"] / n_ops,
         "modelspec.load.ms": ms("modelspec.load"),
         "cli.main.self_ms": ms("cli.main", "self_ns"),
         "characteristics.from_markov.ms": ms("characteristics.from_markov"),
         "characteristics.from_time_changed_levy.ms":
             ms("characteristics.from_time_changed_levy"),
         "montecarlo.simulate.ms": ms("montecarlo.simulate"),
         "montecarlo.blocks": counters["blocks"] / n_ops,
         "montecarlo.paths": counters["paths"] / n_ops,
         "montecarlo.block.ms": (times["montecarlo.simulate"]["self_ns"] / 1e6
                                 / counters["blocks"] if counters["blocks"] else 0.0),
         "montecarlo.reduce.ms": ms("montecarlo.estimate_call", "self_ns"),
         "montecarlo.peak_traced_mb": counters["peak_mb"],
         "montecarlo.repeat_sim_frac": (counters["repeat_sims"] / counters["sims"]
                                        if counters["sims"] else 0.0),
         "montecarlo.hit_frac": (counters["hit_paths"] / counters["priced_paths"]
                                 if counters["priced_paths"] else 0.0),
         "montecarlo.plan.ms": float(np.mean(plan_ms)) if plan_ms else 0.0,
         "trace.overhead_frac": overhead}
    for short in ("compensators.build", "compensators.double_tail", "compensators.tail",
                  "asymptotics.classify", "asymptotics.otm", "asymptotics.itm",
                  "asymptotics.atm", "generator.apply"):
        v[short + ".calls"] = calls(short)
        v[short + ".ms"] = ms(short)
    return {name: (float(v[name]), unit) for name, unit in PER_LAYER}
