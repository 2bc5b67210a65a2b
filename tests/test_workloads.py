"""The benchmark's workloads run correct.  One untraced sample of each runs
in a fresh interpreter, started as perfbench/run.py starts one; it must
exit 0 with no failed or raised verdict, and with the pinned verdict count
and digest of its reports.  A benchmark run refuses a sample that fails or
raises a verdict, so a change that would stop the benchmark fails here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# workload -> (verdicts attempted, sha256 over its sorted report digests)
EXPECTED = {
    "family-slp": (21, "01bd64c56173b191171bb0de41190dcd386dcef7c02cbf0f4fdeeda2fd1584ee"),
    "identity-grids": (122, "333bea4e9640581e50c842344e2b9f3cf88dbcc34204920dd56d2aa526e7a8d9"),
    "depth5-arrows": (2, "152d70428084f8c3e9817a29dde4fc82c7c7c4bce347d3e22eb66b9f737f065b"),
}


@pytest.mark.parametrize("workload", list(EXPECTED))
def test_workload_sample_correct(workload):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)  # the worker imports citree from this checkout's src/
    proc = subprocess.run([sys.executable, "perfbench/worker.py", workload, "1", "run"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    sample = json.loads(proc.stdout.splitlines()[-1])
    assert sample["errors"] == []
    assert sample["failed"] == 0
    assert (sample["attempted"], sample["digest"]) == EXPECTED[workload]
