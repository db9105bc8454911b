#!/usr/bin/env python3
"""The listrank90 benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --compare OLD.json NEW.json

Run from the repository root. The first form builds this package (the
library from src/ plus the lr90bench driver) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and passes the driver's output through; the last stdout line is
the JSON result. Result and span files land in <build>/results, spill files
and temp files in <build>/scratch. Exit status is the driver's: 0 when
every answer was right, non-zero otherwise.

--selftest builds and runs the tests of the benchmark's own arithmetic.
--compare prints the metric changes between two result files, and refuses
(exit 2) when their provenance says they ran on different hardware or
toolchains. Differences in what the code chose (kernel tiers, server
shape) are printed, not refused.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(
    os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                    or os.path.join(ROOT, ".bench_build")), "perfbench")
DRIVER_TIMEOUT_S = 175

# Provenance keys that must match before two results are compared: the
# hardware and the toolchain.
HARDWARE = ("cpu_model", "l3_bytes", "hw_threads", "compiler", "openmp")
# Choices the code makes at run time; a change may move them on purpose.
CHOSEN = ("server_shape", "tier_rank", "tier_scan", "tier_wide")


def build():
    """Configures (once) and builds the package; exits 2 on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return sorted(m["name"] for m in bench[key])


def run(args):
    build()
    results = os.path.join(BUILD, "results")
    scratch = os.path.join(BUILD, "scratch")
    os.makedirs(results, exist_ok=True)
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(BUILD, "lr90bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", results, "--scratch", scratch]
    env = dict(os.environ, TMPDIR=scratch)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print(f"run.py: driver exceeded {DRIVER_TIMEOUT_S} s", file=sys.stderr)
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if result is None:
        sys.stdout.write(proc.stdout)
        print("run.py: driver printed no result", file=sys.stderr)
        return proc.returncode or 2
    want = expected_metrics(args.trace)
    if want is not None and sorted(result["metrics"]) != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("run.py: metrics differ from BENCHMARK.json: "
              f"{sorted(set(want) ^ set(result['metrics']))}",
              file=sys.stderr)
        return 2
    sys.stdout.write(proc.stdout)
    return proc.returncode


def selftest():
    build()
    return subprocess.run([os.path.join(BUILD, "arith_test")]).returncode


def load_result(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {r["metric"]: r for r in doc["results"]}
    return doc["meta"], rows


def compare(old_path, new_path):
    old_meta, old_rows = load_result(old_path)
    new_meta, new_rows = load_result(new_path)
    differ = [k for k in HARDWARE if old_meta.get(k) != new_meta.get(k)]
    if differ:
        for k in differ:
            print(f"provenance differs on {k}: {old_meta.get(k)!r} vs "
                  f"{new_meta.get(k)!r}")
        print("REFUSED: the results come from different hardware or "
              "toolchains")
        return 2
    for k in CHOSEN:
        a, b = old_meta.get(k), new_meta.get(k)
        if a is None and b is None:
            continue  # not a choice this workload makes
        print(f"{k:40s} {a!s:>14} -> {b!s:>14}"
              f"{'  (changed)' if a != b else ''}")
    for name in sorted(set(old_rows) & set(new_rows)):
        a, b = old_rows[name]["value"], new_rows[name]["value"]
        if a is None or b is None:
            continue
        rel = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"{name:40s} {a:14.4f} -> {b:14.4f} {old_rows[name]['unit']:6s}"
              f" {rel}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
