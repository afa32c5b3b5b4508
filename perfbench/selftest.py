#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks that
  * the same --seed gives identical per-class op counts and an
    identical request-stream hash, and a different seed changes both;
  * every workload, in both modes, passes its correctness checks and
    prints every metric BENCHMARK.json names, with its unit.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = 2


def describe(binary, workload, seed):
    out = subprocess.run(
        [binary, "--describe", "--workload", workload, "--seed", str(seed)],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    d = json.loads(out)
    return d["counts"], d["hash"]


def check(cond, msg):
    if not cond:
        print(f"selftest: FAIL: {msg}", file=sys.stderr)
        sys.exit(1)
    print(f"selftest: ok: {msg}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()

    for w in spec["workloads"]:
        name = w["name"]
        first = describe(binary, name, 1)
        check(describe(binary, name, 1) == first,
              f"{name}: seed 1 twice gives the same counts and hash")
        other = describe(binary, name, 2)
        check(other[0] != first[0] and other[1] != first[1],
              f"{name}: seed 2 changes the counts and the hash")

    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", w["name"], "--seed", "7",
                 "--seconds", str(SECONDS), "--trace", str(trace)],
                cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            check(proc.returncode == 0 and lines,
                  f"{w['name']} --trace {trace}: exits 0 with a result")
            result = json.loads(lines[-1])
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] > 0,
                  f"{w['name']} --trace {trace}: correct, no failed ops")
            got = result["metrics"]
            missing = [m["name"] for m in spec[key]
                       if got.get(m["name"], {}).get("unit") != m["unit"]]
            check(not missing,
                  f"{w['name']} --trace {trace}: all {len(spec[key])} "
                  f"metrics printed with their units"
                  + (f"; missing or mis-unitized: {missing}" if missing else ""))


if __name__ == "__main__":
    main()
