#!/usr/bin/env python3
"""Build and run one workload of the repo benchmark.

    python3 perfbench/run.py --workload list-churn --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
the benchmark binary (and the pragmalist library it links) under
$CARGO_TARGET_DIR, default .bench_build; later runs rebuild only what
changed. The binary checks the program's outputs and prints the
metrics; this script confirms that its last line names every metric
BENCHMARK.json lists for the mode, with the listed unit, and repeats
that line as the last line of standard output. It exits non-zero,
without a result line, when the build, the run or that check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build perfbench; return the binary's path."""
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    if not os.path.isabs(out):
        out = os.path.join(ROOT, out)
    jobs = str(min(3, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    want = expected_metrics(args.trace)
    binary = build()
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        fail(f"perfbench exited with {proc.returncode}")

    result = json.loads(lines[-1])
    got = result["metrics"]
    for name, unit in want.items():
        if name not in got:
            fail(f"metric {name} missing from the result")
        if got[name]["unit"] != unit:
            fail(f"metric {name} is in {got[name]['unit']}, not {unit}")
    result["metrics"] = {name: got[name] for name in want}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
