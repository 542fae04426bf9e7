"""One benchmark process: import the program, make the inputs, run the ops.

Started by ``run.py`` in a fresh interpreter with the working directory at
the checkout root. It writes JSON lines to stdout: ``ready`` once the
program is imported and the inputs exist (the end of set-up), then, unless
``--probe`` is given, ``result`` after the measured phase.

Untraced (``--trace 0``): rounds of ops run back to back until ``--seconds``
have passed, finishing the round in progress. Traced (``--trace 1``): every
op runs twice, once plain and once with the tracer installed, alternating
which goes first, so the two timings compare the same work; the spans are
written to ``--spans`` at the end.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

T0 = time.perf_counter()
import smalltime  # noqa: E402

IMPORT_S = time.perf_counter() - T0

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def emit(record):
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    pins = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "pinning": {k: os.environ.get(k) for k in pins}}


def run_op(op):
    """Run and check one op; returns (seconds, Outcome)."""
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception:  # a raising op is a failed op, never a lost one
        dt = time.perf_counter() - t0
        return dt, workloads.Outcome(False, None, traceback.format_exc(limit=3))
    dt = time.perf_counter() - t0
    try:
        return dt, op.check(result)
    except Exception:
        return dt, workloads.Outcome(False, None, traceback.format_exc(limit=3))


def record(op, seconds, outcome):
    return {"kind": op.kind, "round": op.round, "s": seconds, "ok": outcome.ok,
            "rel_se": outcome.rel_se, "msg": outcome.message[-400:]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(smalltime.__file__).startswith(src + os.sep):
        sys.stderr.write(f"smalltime imported from {smalltime.__file__}, not {src}\n")
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    emit({"event": "ready", "import_s": IMPORT_S})
    if args.probe:
        return 0

    workload.prepare()
    ops = []  # warm-up round 0 is checked and counted, never timed
    for op in workload.round(0):
        _, outcome = run_op(op)
        ops.append(record(op, None, outcome))

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(track_memory=workload.monte_carlo)
    plan_ms, plain_s, traced_s = [], 0.0, 0.0
    n_traced = 0
    start = time.perf_counter()
    r = 1
    while time.perf_counter() - start < args.seconds:
        for op in workload.round(r):
            if tracer is None:
                dt, outcome = run_op(op)
                ops.append(record(op, dt, outcome))
                continue
            results = {}
            for traced in ((False, True) if n_traced % 2 == 0 else (True, False)):
                if traced:
                    tracer.begin_op(n_traced, op)
                    tracer.install()
                try:
                    results[traced] = run_op(op)
                finally:
                    if traced:
                        tracer.uninstall()
            probe = tracer.plan_probe_ms()
            if probe is not None:
                plan_ms.append(probe)
            n_traced += 1
            plain_s += results[False][0]
            traced_s += results[True][0]
            ops.append(record(op, results[False][0], results[False][1]))
            ops.append(record(op, None, results[True][1]))
        r += 1

    out = {"event": "result", "ops": ops, "rounds": r - 1,
           "known_defects": workload.known_defects(),
           "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "env": environment()}
    if tracer is not None:
        tracer.dump(args.spans)
        out["trace"] = {"counters": tracer.counters(), "n_ops": n_traced,
                        "plan_ms": plan_ms, "plain_s": plain_s, "traced_s": traced_s}
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
