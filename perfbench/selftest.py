#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that BENCHMARK.json is well formed, that every workload
completes (untraced and traced) with a result line of the right schema
carrying exactly the declared metrics, and that a deliberately wrong
expected digest is reported as a failure with a non-zero exit code.
"""

import json
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message):
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def check_spec(spec):
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys: {sorted(spec)}")
    names = []
    for workload in spec["workloads"]:
        if set(workload) != {"name", "why"} or len(workload["why"]) > 200 or "\n" in workload["why"]:
            fail(f"workload entry {workload}")
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        if set(metric) != {"name", "unit", "better", "bound"} or not 0 < metric["bound"] <= 0.25:
            fail(f"end-to-end entry {metric}")
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        if set(metric) != {"name", "unit", "better"}:
            fail(f"per-layer entry {metric}")
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(metric["unit"]) or metric["better"] not in ("higher", "lower"):
            fail(f"unit or direction of {metric['name']}")
    for name in names:
        if not NAME.match(name):
            fail(f"name {name!r} is not [A-Za-z0-9_.-]+ of at most 64")
    if len(names) != len(set(names)):
        fail("names are not unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be an end-to-end metric in s, lower is better")
    if setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must have the largest bound")
    if not 1 <= spec["run_seconds"] <= 60 or not 2 <= len(spec["workloads"]) <= 8:
        fail("run_seconds or workload count out of range")


def run(spec, workload, trace, extra=()):
    args = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(spec["command"] + args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} trace={trace}: no output (exit {proc.returncode}): {proc.stderr[-2000:]}")
    return proc.returncode, json.loads(lines[-1]), json.loads(lines[-2])


def check_result(result, declared, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail(f"{label}: correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            fail(f"{label}: {key} is not a whole number")
    if result["attempted"] < 1:
        fail(f"{label}: attempted < 1")
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, value in got.items():
        if set(value) != {"value", "unit"} or value["unit"] != want[name]:
            fail(f"{label}: metric {name} is {value}")
        if not isinstance(value["value"], (int, float)) or isinstance(value["value"], bool):
            fail(f"{label}: metric {name} is not a number")


def main():
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    check_spec(spec)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} trace={trace}"
            code, result, record = run(spec, workload, trace)
            check_result(result, declared, label)
            if code != 0 or not result["correct"] or result["failed"] != 0:
                fail(f"{label}: exit {code}, failures {record.get('failures')}")
            if not record["host"]["rustc"] or record["host"]["nproc"] < 1:
                fail(f"{label}: host descriptor {record['host']}")
            if trace == 0 and any(result["metrics"][m["name"]]["value"] <= 0 for m in declared):
                fail(f"{label}: an end-to-end metric is not positive")
            print(f"selftest: ok: {label}: {result['attempted']} checks")
    workload = spec["workloads"][0]["name"]
    code, result, record = run(spec, workload, 0, ["--expect-digest", "0"])
    check_result(result, spec["end_to_end"], f"{workload} wrong digest")
    if code == 0 or result["correct"] or result["failed"] < 1:
        fail(f"a wrong expected digest was not caught (exit {code}, result {result})")
    print(f"selftest: ok: a wrong expected digest fails the run (exit {code})")
    print("selftest: passed")


if __name__ == "__main__":
    main()
