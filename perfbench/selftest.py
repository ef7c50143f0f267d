#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. A tiny pass of every workload, untraced and traced, must print every
   metric BENCHMARK.json names, with its unit, and report no failures.
2. A run that deliberately corrupts each checked placement must count
   failures (ok_op_frac < 1, failed > 0, correct false): the checks can fail.
3. run.py must exit non-zero without a result line in a directory holding
   only BENCHMARK.json and perfbench/ (no library sources to build).
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ["paper", "city", "reliability"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == WORKLOADS,
          "BENCHMARK.json names the workloads paper, city, reliability")
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result_of(run(workload, trace))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {} if res is None else {
                n: m["unit"] for n, m in res["metrics"].items()}
            check(got == want,
                  f"{workload} trace={trace}: every {key} metric printed "
                  "with its unit")
            check(res is not None and res["correct"] and res["failed"] == 0,
                  f"{workload} trace={trace}: all answers correct")

        res = result_of(run(workload, 0, "--corrupt"))
        check(res is not None and res["failed"] > 0 and not res["correct"]
              and res["metrics"]["ok_op_frac"]["value"] < 1.0,
              f"{workload}: a corrupted placement lowers ok_op_frac")

    # A throwaway tree inside the checkout's build directory.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0 and not last[0].startswith("{"),
          "run.py fails without a result when the sources are missing")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
