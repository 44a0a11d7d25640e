#!/usr/bin/env python3
"""Smoke test of the benchmark: a short untraced and traced run of every
workload, checking that each run succeeds and that the metric names and
units it prints are exactly the ones BENCHMARK.json declares.

Usage (from the repository root):

    python3 perfbench/selftest.py [--seconds 2] [--workload NAME ...]

Exit code 0 when every run matches, 1 otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def expected(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_run(spec, workload, trace, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return [f"{label}: last stdout line is not the result object ({e})"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{label}: correct is {result.get('correct')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted {result.get('attempted')}")
    want = expected(spec, trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        errors.append(f"{label}: metric mismatch: missing {missing}, "
                      f"extra {extra}, unit differs {units}")
    for name, metric in result.get("metrics", {}).items():
        if not isinstance(metric.get("value"), (int, float)):
            errors.append(f"{label}: {name} value {metric.get('value')!r}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    errors = []
    for workload in args.workload or names:
        for trace in (0, 1):
            found = check_run(spec, workload, trace, args.seconds)
            print(f"{workload} trace={trace}: "
                  f"{'ok' if not found else 'FAIL'}", flush=True)
            errors += found
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
