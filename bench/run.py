"""Benchmark for smalltime: one command, one workload, one JSON result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; the program is imported from ``src/``.
Each run starts fresh interpreters (``child.py``), single-threaded, with
thread pools pinned to one thread:

* ``SETUP_LAUNCHES`` probes that import ``smalltime`` and make the inputs,
  then exit; set-up time is the median of their spawn-to-ready times;
* one measuring process, untraced with ``--trace 0`` (the end-to-end
  metrics) or traced with ``--trace 1`` (the per-layer metrics).

Every op's output is checked against a reference (see ``workloads.py``).
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds the details: environment, tail percentile and
sample counts, and any failure messages. Metric definitions are in
``README.md`` next to this file.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mc_merton_ladder", "mc_stable", "analytic_zoo")
SETUP_LAUNCHES = 4
DEADLINE_S = 170.0  # the whole run, set-up and measuring included
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}
TIME_TO_1PCT_REL = 0.01
# the highest percentile with at least ten ops beyond it at the op count a
# run makes (about 70, 130 and 6000 timed ops); the record states the count
TAIL_PCT = {"mc_merton_ladder": 75.0, "mc_stable": 90.0, "analytic_zoo": 99.0}


class BenchError(Exception):
    pass


def child_env(root):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def launch(root, argv, deadline, stderr_path):
    """Start child.py; return (process, spawn time). The child is killed if
    it is still running at ``deadline``, so a hung read cannot outlive it."""
    with open(stderr_path, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), *argv],
                                cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                                stderr=err, text=True)
    proc.watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    proc.watchdog.daemon = True
    proc.watchdog.start()
    return proc, t0


def read_event(proc, name):
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"child exited before '{name}' (code {proc.wait()})")
    rec = json.loads(line)
    if rec.get("event") != name:
        raise BenchError(f"expected '{name}', got {rec.get('event')!r}")
    return rec


def finish(proc, deadline):
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("child ran past the deadline") from None
    finally:
        proc.watchdog.cancel()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"child exit code {code}")


def end_to_end(workload, setup_s, result):
    timed = [op for op in result["ops"] if op["s"] is not None]
    secs = [op["s"] for op in timed]
    by_round = {}
    for op in timed:
        if op["rel_se"] is None:
            factor = 1.0  # an exact result is already within 1%
        else:
            factor = (op["rel_se"] / TIME_TO_1PCT_REL) ** 2
        by_round[op["round"]] = by_round.get(op["round"], 0.0) + op["s"] * factor
    tail_pct = TAIL_PCT[workload]
    tail = float(np.percentile(secs, tail_pct))
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (len(secs) / sum(secs), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(secs), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        # a mean, not a median: the standard errors in it are estimates whose
        # own sampling noise averages out over the rounds
        "time_to_1pct_s": (statistics.fmean(by_round.values()), "s"),
        "peak_rss_mb": (result["max_rss_mb"], "MB"),
    }
    kinds = {}
    for op in timed:
        kinds.setdefault(op["kind"], []).append(op["s"])
    details = {"tail_percentile": tail_pct, "timed_ops": len(secs),
               "samples_beyond_tail": sum(1 for s in secs if s > tail),
               "rounds": len(by_round),
               "kind_p50_ms": {k: 1e3 * statistics.median(v) for k, v in kinds.items()}}
    return metrics, details


def per_layer(result, spans_path, import_s):
    tr = result["trace"]
    overhead = tr["traced_s"] / tr["plain_s"] - 1.0
    metrics = tracing.layer_metrics(tracing.layer_times(spans_path), tr["counters"],
                                    tr["n_ops"], statistics.median(import_s),
                                    tr["plan_ms"], overhead)
    details = {"traced_ops": tr["n_ops"], "plain_s": tr["plain_s"],
               "traced_s": tr["traced_s"]}
    return metrics, details


def bench(root, args, workdir):
    deadline = time.perf_counter() + DEADLINE_S
    stderr_path = os.path.join(workdir, "child.stderr")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", workdir]
    setup_s, import_s = [], []
    for _ in range(SETUP_LAUNCHES):
        proc, t0 = launch(root, common + ["--probe"], deadline, stderr_path)
        try:
            ready = read_event(proc, "ready")
            setup_s.append(time.perf_counter() - t0)
            import_s.append(ready["import_s"])
        finally:
            finish(proc, deadline)
    spans_path = os.path.join(workdir, "spans.npz")
    proc, t0 = launch(root, common + ["--seconds", str(args.seconds),
                                      "--trace", str(args.trace), "--spans", spans_path],
                      deadline, stderr_path)
    try:
        ready = read_event(proc, "ready")
        setup_s.append(time.perf_counter() - t0)
        import_s.append(ready["import_s"])
        result = read_event(proc, "result")
    finally:
        finish(proc, deadline)

    ops = result["ops"]
    failures = [f"{op['kind']} round {op['round']}: {op['msg']}"
                for op in ops if not op["ok"]]
    if args.trace:
        metrics, details = per_layer(result, spans_path, import_s)
    else:
        metrics, details = end_to_end(args.workload, setup_s, result)
    details.update({"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "setup_launches_s": setup_s, "env": result["env"],
                    "known_defects": result["known_defects"],
                    "failures": failures[:20]})
    summary = {"correct": not failures, "attempted": len(ops), "failed": len(failures),
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return details, summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "smalltime", "__init__.py")):
        sys.stderr.write("run from the root of a smalltime checkout: src/smalltime "
                         "is missing\n")
        return 2
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        details, summary = bench(root, args, workdir)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        log = os.path.join(workdir, "child.stderr")
        if os.path.exists(log):
            with open(log, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read()[-4000:])
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(HERE, ".work"))
        except OSError:
            pass
    print(json.dumps(details))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
