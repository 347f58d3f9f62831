#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload transfer_wire --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds
the espresso library and the perfbench binary under
.bench_build/perfbench (later runs only rebuild what changed), then
runs one workload and prints its result as the last line of standard
output: {"correct", "attempted", "failed", "metrics"}. --trace 0
prints the end-to-end metrics, --trace 1 the per-layer ones; the
traced run also writes its spans under .bench_build/perfbench/runs/.

Exit codes: 0 ok, 1 a correctness check failed (the result line says
so), 2 the benchmark could not build or run (no result line).

--self-test runs the benchmark's own tests: the unit tests, the
metric table against BENCHMARK.json, and one run per workload with a
deliberately dropped acknowledged write, each of which must fail.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("kv_wire", "transfer_wire", "pjo_heap")
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(targets):
    """Configure once, then build @p targets; output goes to a log."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  *targets])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-25:]
                print("\n".join(tail), file=sys.stderr)
                if cmd[1] == "-S":  # a failed configure must not stick
                    (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                die(f"build failed: {' '.join(cmd)} (log: {log_path})")


def declared_metrics():
    """{scope: {name: unit}} from BENCHMARK.json, or None without it."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def check_result(line, trace):
    """The binary's result line must be exactly what BENCHMARK.json
    declares for this mode."""
    try:
        result = json.loads(line)
    except ValueError:
        die(f"last line is not a JSON result: {line[:200]}")
    if set(result) != RESULT_KEYS:
        die(f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}")
    declared = declared_metrics()
    if declared is not None:
        want = declared["per_layer" if trace else "end_to_end"]
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            die(f"metrics differ from BENCHMARK.json: "
                f"missing {sorted(set(want) - set(got))}, "
                f"extra {sorted(set(got) - set(want))}, units "
                f"{sorted(k for k in got if k in want and got[k] != want[k])}")
    return result


def run(args):
    build(["perfbench"])
    out_dir = BUILD / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--wire-fence-ns", str(args.wire_fence_ns),
           "--pjh-fence-ns", str(args.pjh_fence_ns),
           "--out-dir", str(out_dir)]
    if args.drop_acked_write:
        cmd.append("--drop-acked-write")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        die(f"{args.workload} exited {proc.returncode} without a result")
    for line in lines[:-1]:
        if line.startswith("record "):
            (out_dir / "record.json").write_text(line[len("record "):] + "\n")
        print(line)
    result = check_result(lines[-1], args.trace == 1)
    print(lines[-1], flush=True)
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(1)


def self_test(args):
    build(["perfbench", "perfbench_selftest"])
    ok = True
    if subprocess.run([str(BUILD / "perfbench_selftest")]).returncode != 0:
        print("self-test: unit tests FAILED")
        ok = False
    listed = json.loads(subprocess.run(
        [str(BUILD / "perfbench"), "--list-metrics"], stdout=subprocess.PIPE,
        text=True, check=True).stdout)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for scope in ("end_to_end", "per_layer"):
        want = [{"name": m["name"], "unit": m["unit"], "better": m["better"]}
                for m in spec[scope]]
        got = [{"name": m["name"], "unit": m["unit"], "better": m["better"]}
               for m in listed if m["scope"] == scope]
        if want != got:
            print(f"self-test: {scope} metrics in BENCHMARK.json differ "
                  f"from the binary's table")
            ok = False
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        print("self-test: BENCHMARK.json names a workload the binary lacks")
        ok = False
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", "1",
             "--seconds", "3", "--trace", "0", "--drop-acked-write",
             "--wire-fence-ns", str(args.wire_fence_ns),
             "--pjh-fence-ns", str(args.pjh_fence_ns)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=2 * RUN_TIMEOUT_S)
        caught = proc.returncode == 1 and "check failed" in proc.stderr
        print(f"self-test: {workload} with a dropped acknowledged write: "
              f"{'detected' if caught else 'NOT DETECTED'}")
        ok = ok and caught
    print(f"self-test: {'PASS' if ok else 'FAIL'}")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--wire-fence-ns", type=int, default=25000,
                   help="wire workloads: sleeping fence drain per device")
    p.add_argument("--pjh-fence-ns", type=int, default=500,
                   help="pjo_heap: spinning fence stall")
    p.add_argument("--drop-acked-write", action="store_true",
                   help="lose one acknowledged write; the run must fail")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        self_test(args)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    run(args)


if __name__ == "__main__":
    main()
