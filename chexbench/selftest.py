#!/usr/bin/env python3
"""Self-tests of the benchmark, at smoke size.

    python3 chexbench/selftest.py

Run from the root of a checkout. Checks that every metric name
matches [A-Za-z0-9_.-]+ and prints with a unit, that the exact
counts are identical at 1 and 4 workers, that a forced job failure
shows up in the failed-operation count, and that run.py ends with the
one-line result. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SMOKE = ["--seconds", "0.5", "--smoke"]


def harness(workload, *extra):
    args = bench.parse_args(["--workload", workload, *SMOKE, *extra])
    return bench.run_harness(args, timeout=300)


def test_names_and_worker_counts(workload):
    one = harness(workload, "--workers", "1")
    four = harness(workload, "--workers", "4")
    traced = harness(workload, "--trace", "1")
    for doc, trace in ((one, 0), (four, 0), (traced, 1)):
        bench.check_names(doc, trace)
        assert doc["failed"] == 0, doc["failures"]
    assert one["exact"] == four["exact"], (one["exact"], four["exact"])
    assert one["exact"] == traced["exact"], "traced counts differ"


def test_forced_failure():
    doc = harness("spec-matrix", "--force-fail", "0")
    assert doc["failed"] >= 1, doc
    assert any("forced failure" in why for why in doc["failures"]), doc


def test_result_line():
    out = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
         "--workload", "attack-sweep", *SMOKE],
        stdout=subprocess.PIPE, check=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] > 0
    for m in result["metrics"].values():
        assert m["unit"] and m["value"] > 0, m


def main():
    tests = [(test_names_and_worker_counts, w) for w in bench.WORKLOADS]
    tests += [(test_forced_failure,), (test_result_line,)]
    for test, *args in tests:
        name = test.__name__ + ("[%s]" % args[0] if args else "")
        test(*args)
        print("ok", name, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
