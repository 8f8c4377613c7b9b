#!/usr/bin/env python3
"""Self-test of the PEARL benchmark.

    python3 pearlbench/selftest.py

Runs every workload of BENCHMARK.json at smoke-test length (--tiny),
untraced and traced, through run.py, and checks that:
  - each run exits 0 and ends with the result object, marked correct;
  - the metric names and units printed are exactly the end-to-end
    (untraced) or per-layer (traced) metrics BENCHMARK.json declares;
  - every end-to-end metric is positive;
  - every per-layer metric of a layer the workload exercises is nonzero.
Exits non-zero on the first workload that fails a check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics every workload must report as nonzero: all three run
# the network, node models, caches and a power policy.
COMMON = [
    "network.step_host_s", "network.step_ns_per_cycle",
    "network.inject_calls", "network.inject_refused",
    "network.inject_accept_ratio",
    "nodes.host_s", "nodes.outbox_depth_max", "nodes.outbox_depth_mean",
    "cache.accesses", "cache.l1_miss_ratio", "cache.l2_miss_ratio",
    "l3.miss_ratio",
    "policy.decisions", "policy.host_s", "policy.ns_per_decision",
    "engine.lanes",
    "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_ratio",
]
ML = ["ml.train_host_s", "ml.train_samples", "ml.validation_nrmse",
      "policy.state_changes"]
EXERCISED = {
    "paper16_ml": COMMON + ML + ["network.idle_steps"],
    "scale128_hub": COMMON + [
        "network.express_acquired", "network.express_stall_cycles",
        "policy.residency_wl64"],
    "sweep_fig9": COMMON + ML + [
        "cache.stall_ratio", "memory.busy_stall_cycles",
        "sweep.jobs", "sweep.threads", "sweep.wall_s", "sweep.job_s_sum",
        "sweep.job_s_max", "sweep.speedup", "sweep.build_s",
        "sweep.warmup_s", "sweep.run_s"],
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"unexpected result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 \
            or result["attempted"] < 1:
        raise AssertionError(f"run not correct: {proc.stderr[-2000:]}")
    return result["metrics"]


def check(workload, trace, declared):
    metrics = run(workload, trace)
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise AssertionError(f"missing {missing}, undeclared {extra}, "
                             f"unit mismatch {wrong}")
    required = EXERCISED[workload] if trace else list(want)
    zero = [n for n in required if not metrics[n]["value"] > 0]
    if zero:
        raise AssertionError(f"zero where the layer is exercised: {zero}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if sorted(workloads) != sorted(EXERCISED):
        print(f"selftest: workloads {workloads} do not match {sorted(EXERCISED)}")
        return 1
    for workload in workloads:
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            try:
                check(workload, trace, declared)
            except (AssertionError, ValueError, IndexError,
                    subprocess.TimeoutExpired) as e:
                print(f"selftest: {workload} --trace {trace}: FAIL: {e}")
                return 1
            print(f"selftest: {workload} --trace {trace}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
