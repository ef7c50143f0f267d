#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload paper|city|reliability \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (and the library sources it compiles) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, checks the result against BENCHMARK.json and prints it as one JSON
object on the last line of stdout. Any failure exits non-zero without
printing a result. --tiny and --corrupt exist for perfbench/selftest.py.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    binary = out / "msc_perfbench"
    if not binary.is_file():
        fail("build produced no msc_perfbench binary")
    return binary


def source_id():
    """git sha when the checkout is a repository, else a hash of the tree."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return "git-" + proc.stdout.strip()[:12]
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:12]


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"last output line is not JSON: {line[:200]}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail(f"metrics differ from BENCHMARK.json: missing={missing} "
             f"extra={extra} wrong_unit={wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} has no numeric value")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper", "city", "reliability"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    spans = out / "spans"
    spans.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--source-id", source_id(),
           "--trace-out", str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    result = check_result(lines[-1], args.trace == 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
