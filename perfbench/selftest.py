#!/usr/bin/env python3
"""Self-test of the benchmark.

Runs every workload of BENCHMARK.json at toy size, traced and untraced,
and checks that the printed metric names and units are exactly the ones
BENCHMARK.json declares, that every answer verified, and that a
deliberately corrupted answer is caught. Also runs the harness's own unit
tests. Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")


def cargo(*args):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return subprocess.run(
        ["cargo", *args, "--release", "--offline", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        check=True,
    )


def run(workload, trace, *extra):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--toy", *extra,
    ]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stderr


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "schema.json")) as f:
        record = json.load(f)
    check(
        [m["metric"] for m in record["layer_map"]] == [m["name"] for m in bench["per_layer"]],
        "schema.json maps every per-layer metric of BENCHMARK.json, in order",
    )
    check(
        list(record["workloads"]) == [w["name"] for w in bench["workloads"]],
        "schema.json describes every workload of BENCHMARK.json",
    )
    e2e = {m["name"] for m in bench["end_to_end"]}
    for m in record["layer_map"]:
        check(set(m["moves"]) <= e2e, f"{m['metric']} moves only declared end-to-end metrics")
    cargo("test", "--quiet")
    cargo("build", "--quiet")
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            code, result, err = run(w, trace)
            check(code == 0, f"{w} trace {trace} exits 0 (stderr: {err[-400:]})")
            check(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{w} trace {trace} prints exactly the four result keys",
            )
            check(result["correct"] and result["failed"] == 0, f"{w} answers all verify")
            check(result["attempted"] >= 1, f"{w} attempts something")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == declared[trace], f"{w} trace {trace} metric names and units match BENCHMARK.json")
            if trace == 0:
                zero = [k for k, v in result["metrics"].items() if v["value"] == 0]
                check(not zero, f"{w} end-to-end metrics are non-zero (zero: {zero})")
        code, result, _ = run(w, 0, "--corrupt")
        check(code == 1, f"{w} with a corrupted answer exits 1")
        check(
            result is not None and not result["correct"] and result["failed"] >= 1,
            f"{w} reports the corrupted answer",
        )
        print(f"ok: {w}")
    code, result, _ = run("no-such-workload", 0)
    check(code != 0 and result is None, "an unknown workload fails without a result")
    print("selftest passed")


if __name__ == "__main__":
    main()
