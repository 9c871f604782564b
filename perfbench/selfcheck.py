#!/usr/bin/env python3
"""Exact-count self-check of the traced benchmark run.

Run from the repository root:

    python3 perfbench/selfcheck.py --seed 1

Runs every workload traced twice with the same seed, each in a fresh
process, and exits 0 only if for every workload:

- both runs report the same call counts per job;
- every traced job within a run made the same calls;
- the counts match each workload's ``expected_calls`` (the code as it stands);
- the outputs passed their checks;
- the metric names and units agree with BENCHMARK.json.

A change that moves a count on purpose states the new count; it does not
edit ``expected_calls`` in the same change.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def traced_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="exact-count self-check")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args(argv)

    problems = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    if declared != set(run.PER_LAYER):
        problems.append("per_layer metrics differ from BENCHMARK.json")
    if {(m["name"], m["unit"]) for m in spec["end_to_end"]} != set(run.END_TO_END):
        problems.append("end_to_end metrics differ from BENCHMARK.json")
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        problems.append("workloads differ from BENCHMARK.json")

    for workload in run.WORKLOADS:
        (ctx_a, res_a), (ctx_b, res_b) = (traced_run(workload, args.seed, args.seconds)
                                          for _ in range(2))
        counts = ctx_a["calls_per_job"]
        print(f"{workload}: {json.dumps(counts, sort_keys=True)}")
        if counts != ctx_b["calls_per_job"]:
            problems.append(f"{workload}: counts differ between two runs of seed {args.seed}")
        if not (ctx_a["counts_repeat"] and ctx_b["counts_repeat"]):
            problems.append(f"{workload}: counts differ between jobs of one run")
        if not ctx_a["counts_match_code"]:
            problems.append(f"{workload}: counts differ from expected_calls")
        if not (res_a["correct"] and res_b["correct"]):
            problems.append(f"{workload}: output checks failed")
        if set(res_a["metrics"]) != {name for name, _ in run.PER_LAYER}:
            problems.append(f"{workload}: traced run misses per-layer metrics")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
