"""Self-checks of the benchmark.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py

* one op of each Monte Carlo workload gives byte-identical output for
  ``n_workers`` 1 and 2 and across two runs with the same seed;
* the tracer restores every patched binding and nests spans, and self time
  is a span minus its children;
* a held-out seed, used nowhere while the benchmark was tuned, runs clean on
  every workload and prints every metric with its unit.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from smalltime import asymptotics, cli, compensators, quadrature  # noqa: E402

HELD_OUT_SEED = 31337


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_metric_and_workload_names_match_the_declaration():
    assert dict(tracing.PER_LAYER) == _declared("per_layer")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [w["name"] for w in json.load(fh)["workloads"]]
    assert declared == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def _verify_bytes(ladder, out, workers):
    argv = ["verify", "--spec", ladder.spec_path, "--strike", "1.2",
            "--seed", str(ladder.seeds[0]), "--workers", str(workers), "--out", str(out)]
    code = cli.main(argv)
    assert code == 0
    return out.read_bytes()


def test_ladder_op_is_deterministic(tmp_path):
    ladder = workloads.MertonLadder(7, str(tmp_path))
    one = _verify_bytes(ladder, tmp_path / "a.json", 1)
    assert _verify_bytes(ladder, tmp_path / "b.json", 1) == one
    assert _verify_bytes(ladder, tmp_path / "c.json", 2) == one


def test_stable_op_is_deterministic(tmp_path):
    stable = workloads.StableMC(7, str(tmp_path))
    stable.prepare()
    op = next(op for op in stable.round(1) if op.kind == "euler_callable")
    first = repr(op.run())
    assert repr(op.run()) == first
    est = workloads.mc.estimate_call
    ec = stable.models["callable"]
    cfg = workloads.mc.SimConfig(n_paths=workloads.STABLE_PATHS,
                                 master_seed=stable.seeds[len(stable.mix) + 2],
                                 small_jump_cutoff=workloads.STABLE_CUTOFF)
    assert repr(est(ec, workloads.STABLE_T_EULER, 1.1, cfg)) == first
    two = dataclasses.replace(cfg, n_workers=2)
    assert repr(est(ec, workloads.STABLE_T_EULER, 1.1, two)) == first


def test_tracer_nests_spans_and_restores_bindings(tmp_path):
    before = (cli.main, asymptotics.otm_slope, asymptotics.quad_abs, quadrature.quad_abs,
              compensators.DensityCompensator.__init__)
    ec = workloads.characteristics.ExpModelCharacteristics(
        1.0, 0.0, 0.2, compensators.normal_jumps(1.0, 0.0, 0.4))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert asymptotics.otm_slope is not before[1]
        asymptotics.otm_slope(ec, 1.2)
    finally:
        tracer.uninstall()
    assert (cli.main, asymptotics.otm_slope, asymptotics.quad_abs, quadrature.quad_abs,
            compensators.DensityCompensator.__init__) == before
    path = tmp_path / "spans.npz"
    tracer.dump(path)
    times = tracing.layer_times(path)
    otm = times["asymptotics.otm"]
    assert otm["calls"] == 1
    assert times["quadrature"]["calls"] >= 1 and times["compensators.double_tail"]["calls"] == 1
    d = np.load(path)
    dur = d["end"] - d["start"]
    root = int(np.flatnonzero(d["parent"] == -1)[0])
    children = dur[d["parent"] == root].sum()
    assert otm["self_ns"] == pytest.approx(dur[root] - children)
    assert otm["incl_ns"] == pytest.approx(dur[root])


@pytest.mark.parametrize("workload", ["mc_merton_ladder", "mc_stable", "analytic_zoo"])
def test_held_out_seed_runs_clean(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(HELD_OUT_SEED), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr[-2000:]
    details, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
