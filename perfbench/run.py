#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest     # the checks' own tests
    python3 perfbench/run.py --write-spec   # regenerates BENCHMARK.json

Run from the repository root. The C++ package in perfbench/ is configured
and built into $CARGO_TARGET_DIR (default .bench_build) before every run;
an up-to-date build costs a second. The workload runs in its own process;
its last stdout line, a JSON object, is checked against the metric table
below and passed through. Any failure exits non-zero without printing a
result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 25
CHILD_TIMEOUT_S = 170
# Set-up time differs by up to 50 % between processes (address-space
# layout), so setup_s is the median over the workload process and this
# many --setup-only processes.
SETUP_PROCESSES = 4

WORKLOADS = [
    ("sync_large", "sync batch engine on the real-use grid (n 7..31, 4 attacks, "
     "16 seeds, 4000 rounds), where Byzantine payload collection dominates a round"),
    ("vector_d8", "lane-packed vector engine at d=8, where trim + step carry more "
     "of the round than in the scalar engines"),
    ("async_delays", "batched async engine under uniform delays: the only event-queue "
     "replay, and the only grid whose seed changes every trajectory"),
    ("certify_n22", "certify_sbg + find_strongest_attack at n=22: LP witness audits, "
     "full traces and invariant checks, which no sweep runs"),
]

END_TO_END = [
    ("pass_s", "s", "lower", 0.25),
    ("parallel_pass_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.15),
]

_ATTACKS = ["split-brain", "sign-flip", "pull", "hull-edge-up", "noise"]
PER_LAYER = (
    [
        ("sim.scenario.build_s", "s", "lower"),
        ("core.valid_set.optima_s", "s", "lower"),
        ("sim.megabatch.plan_s", "s", "lower"),
        ("sim.batch_runner.busy_s", "s", "lower"),
        ("sim.batch_runner.calls", "count", "lower"),
        ("sim.batch_runner.ns_per_agent_round", "ns", "lower"),
        ("sim.batch_vector_runner.busy_s", "s", "lower"),
        ("sim.batch_vector_runner.calls", "count", "lower"),
        ("sim.batch_vector_runner.ns_per_lane_round", "ns", "lower"),
        ("sim.batch_async_runner.busy_s", "s", "lower"),
        ("sim.batch_async_runner.calls", "count", "lower"),
        ("sim.batch_async_runner.ns_per_agent_round", "ns", "lower"),
        ("sim.megabatch.tasks", "count", "higher"),
        ("sim.megabatch.occupancy", "ratio", "higher"),
        ("sim.megabatch.largest_task_share", "ratio", "lower"),
        ("common.thread_pool.efficiency", "ratio", "higher"),
        ("sim.sweep.self_s", "s", "lower"),
    ]
    + [("adversary.send_to_ns." + a, "ns", "lower") for a in _ATTACKS]
    + [
        ("trim.trim_batch_ns", "ns", "lower"),
        ("core.valid_set.distance_ns", "ns", "lower"),
        ("lp.witness_audit_s", "s", "lower"),
        ("sim.runner.trace_s", "s", "lower"),
        ("sim.trace.invariants_s", "s", "lower"),
        ("sim.attack_search.s", "s", "lower"),
        ("sim.certify.s", "s", "lower"),
        ("bench.trace_overhead_s", "s", "lower"),
    ]
)


def spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no ftmao sources next to perfbench/ (expected src/CMakeLists.txt)")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        # Build logs go to stderr: stdout carries only the result.
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    steps = ["cmake", "--build", str(out), "-j", jobs, "--target", target]
    if subprocess.run(steps, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / target


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys " + ",".join(sorted(result)))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise ValueError("failed must be a non-negative integer")
    want = ({n: u for n, u, _ in PER_LAYER} if trace
            else {n: u for n, u, _, _ in END_TO_END})
    got = result["metrics"]
    if set(got) != set(want):
        raise ValueError("metrics differ from the table: " +
                         ",".join(sorted(set(got) ^ set(want))))
    for name, unit in want.items():
        if got[name]["unit"] != unit:
            raise ValueError(name + " has unit " + got[name]["unit"])
        if not trace and not got[name]["value"] > 0:
            raise ValueError(name + " is not positive")


def run_child(cmd):
    try:
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within {} s".format(CHILD_TIMEOUT_S))
    if child.returncode != 0:
        fail("workload exited with code {}".format(child.returncode))
    return child.stdout


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--write-spec", action="store_true")
    args = p.parse_args()

    if args.write_spec:
        with open(ROOT / "BENCHMARK.json", "w") as f:
            json.dump(spec(), f, indent=2)
            f.write("\n")
        return 0
    if args.selftest:
        return subprocess.run([str(build("perfbench_selftest"))]).returncode
    if args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build("perfbench")
    base = [str(binary), "--workload", args.workload, "--seed", str(args.seed)]
    setup = []
    if not args.trace:
        setup = [float(run_child(base + ["--setup-only"]))
                 for _ in range(SETUP_PROCESSES)]
    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out",
                str(spans / "{}-seed{}.tsv".format(args.workload, args.seed))]
    lines = run_child(cmd).rstrip("\n").split("\n")
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        fail("malformed result: {}".format(e))
    if setup:
        result = json.loads(lines[-1])
        setup.append(result["metrics"]["setup_s"]["value"])
        print("perfbench: setup_s per process " + " ".join(map(repr, setup)),
              file=sys.stderr)
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
        lines[-1] = json.dumps(result)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
