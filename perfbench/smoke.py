#!/usr/bin/env python3
"""Quick self-test of the benchmark: tiny inputs, every workload, both modes.

Usage (from the repository root)::

    python3 perfbench/smoke.py

Runs ``run.py --smoke`` (20-job workloads, 200 iterations, a 2-second
interactive phase) for each workload untraced and traced, with the
correctness gate armed, and checks that each run exits 0, reports
``correct: true`` and prints exactly the metrics ``BENCHMARK.json``
names.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"] for m in bench["end_to_end"]},
        1: {m["name"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "2", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=300)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                print(f"FAIL {label}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"FAIL {label}: {result['failed']} failed, correct={result['correct']}")
                return 1
            if set(result["metrics"]) != expected[trace]:
                print(f"FAIL {label}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(result['metrics']) ^ expected[trace])}")
                return 1
            print(f"ok   {label}: {result['attempted']} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
