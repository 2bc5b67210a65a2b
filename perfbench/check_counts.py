#!/usr/bin/env python3
"""Check that every work count repeats exactly across seeds and runs.

    python3 perfbench/check_counts.py [--workload NAME ...]

For each workload, runs one traced sample for seeds 1 and 2, twice over, and
compares every per-layer count (calls, entries, monomials, mults, tries
and the shares built from them; self times are left out).  Exits 1 on
any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS, worker_env

SEEDS = (1, 2)


def traced_counts(workload, seed):
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), "trace"]
    proc = subprocess.run(argv, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                          timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["digest"], {k: v for k, v in result["layers"].items()
                              if not k.endswith("self_s")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    all_same = True
    for workload in args.workload or WORKLOADS:
        runs = [(seed, rep, *traced_counts(workload, seed))
                for rep in (1, 2) for seed in SEEDS]
        _, _, digest0, counts0 = runs[0]
        same = True
        for seed, rep, digest, counts in runs[1:]:
            diff = sorted(k for k in counts0 if counts[k] != counts0[k])
            if digest != digest0 or diff:
                same = all_same = False
                print(f"{workload}: seed {seed} run {rep} differs: digest "
                      f"{digest == digest0}, counts {diff}")
        nonzero = {k: v for k, v in counts0.items() if v}
        print(f"{workload}: {len(runs)} traced runs (seeds {SEEDS[0]} and {SEEDS[1]}, "
              f"twice each) -> {'identical' if same else 'DIFFERENT'}")
        print("  " + json.dumps(nonzero, sort_keys=True))
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
