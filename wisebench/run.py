#!/usr/bin/env python3
"""Build the wise libraries and the wisebench program from source, run one
workload, and print its result as the last stdout line.

    python3 wisebench/run.py --workload iterate --seed 1 --seconds 25 --trace 0

Run from the repository root. The build lives in .bench_build/ there; build
output goes to stderr so stdout ends with the result line. See README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wisebench")
OMP_THREADS = "2"  # kOmpThreads in src/common.hpp
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"wisebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "wisebench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "wisebench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    # One process, a fixed OpenMP team, and no WISE_* knob steering it.
    env = {k: v for k, v in os.environ.items() if not k.startswith("WISE_")}
    env["OMP_NUM_THREADS"] = OMP_THREADS
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--labels", os.path.join(HERE, "labels")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            ROOT, ".bench_build", f"trace-{args.workload}-{args.seed}.csv")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"wisebench exited with {proc.returncode}")
    result = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} was not measured")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
