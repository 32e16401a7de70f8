#!/usr/bin/env python3
"""Run the repository benchmark on one workload.

    python3 chexbench/run.py --workload spec-matrix --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout. Builds the harness (chexbench/ plus
the simulator sources under src/) into .bench_build/, runs the
workload in a process of its own so its peak RSS is that workload's
alone, prints every metric by name with its unit, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones (spans
go to .bench_out/<workload>-spans.json). README.md defines both.

Exit status 0 means the benchmark ran; "correct" says whether every
output check passed.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
WORKLOADS = ("spec-matrix", "server-scale", "attack-sweep")
# Committed simulated counts the spec-matrix xalancbmk rows must
# match on the default seed.
COMMITTED_COUNTS = "BENCH_throughput.json"
DEFAULT_SEED = 1
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the harness; returns its path."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "chexbench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "chexbench")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_harness(args, timeout):
    """Run the harness and return its JSON document."""
    os.makedirs(OUT_DIR, exist_ok=True)
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    if args.workers:
        cmd += ["--workers", str(args.workers)]
    if args.smoke:
        cmd.append("--smoke")
    if args.force_fail is not None:
        cmd += ["--force-fail", str(args.force_fail)]
    if (args.workload == "spec-matrix" and args.seed == DEFAULT_SEED
            and not args.smoke):
        cmd += ["--expect", COMMITTED_COUNTS]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                          check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(doc, trace):
    """Every metric is declared, named and printed with a unit."""
    metrics = doc["metrics"]
    for name, m in list(metrics.items()) + list(doc["info"].items()):
        if not NAME_RE.match(name) or not m.get("unit"):
            raise ValueError("bad metric %r: %r" % (name, m))
    declared = declared_metrics(trace)
    if sorted(metrics) != sorted(declared):
        raise ValueError("metrics %s do not match BENCHMARK.json %s"
                         % (sorted(metrics), sorted(declared)))


def report(args, doc):
    """Print the human-readable lines, then the result line."""
    print("chexbench %s seed=%d trace=%d: attempted %d, failed %d"
          % (args.workload, args.seed, args.trace, doc["attempted"],
             doc["failed"]))
    for why in doc["failures"]:
        print("  FAILED %s" % why)
    rows = list(doc["metrics"].items()) + list(doc["info"].items())
    for name, m in rows:
        print("  %-30s %20.6f %-10s %s"
              % (name, m["value"], m["unit"], m["kind"]))
    result = {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in doc["metrics"].items()},
    }
    print(json.dumps(result), flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (selftest.py): worker count, smoke sizes, and a
    # job forced to fail in the first pass.
    p.add_argument("--workers", type=int, default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--force-fail", type=int, default=None)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if args.seed < 0:
        log("run.py: --seed must be non-negative")
        return 2
    try:
        doc = run_harness(args, timeout=args.seconds * 2 + 60)
        check_names(doc, args.trace)
    except (OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("run.py: %s" % e)
        return 1
    report(args, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
