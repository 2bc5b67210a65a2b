#!/usr/bin/env python3
"""Run the default grid of every verification subcommand of the citree
command line and print one timing row per run and a total.

There are no options: the grids are the command line's defaults.  Exit
status follows the command line's contract, the gravest over all runs: 0
when every run passes, 1 when a verification failed, 3 when a verifier
raised (its one "internal error: ..." line goes to stderr); any argument
is rejected with 2.
"""

import argparse
import contextlib
import io
import sys
import time
from pathlib import Path

# run from a plain checkout: this checkout's src/ comes first, as in perfbench
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from citree import cli  # noqa: E402

RUNS = [
    ["newton"],
    ["identity"],
    ["thm31"],
    ["thm41"],
    ["swap"],
    ["chain"],
    ["colon-lemma"],
    ["tree"],
    ["tree", "--family", "colon-closure"],
    ["thm53"],
]
STATUS = {0: "PASS", 1: "FAIL"}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    width = max(len(" ".join(run)) for run in RUNS)
    codes = []
    total = 0.0
    for run in RUNS:
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(run)
        elapsed = time.perf_counter() - started
        total += elapsed
        codes.append(code)
        print(f"{' '.join(run):<{width}}  {STATUS.get(code, 'ERROR')}  {elapsed:7.2f}s",
              flush=True)
    worst = max(codes)
    print(f"{'total':<{width}}  {STATUS.get(worst, 'ERROR')}  {total:7.2f}s")
    return worst


if __name__ == "__main__":
    sys.exit(main())
