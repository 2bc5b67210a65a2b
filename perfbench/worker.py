"""One timed sample: a fresh interpreter that runs a workload once.

    python3 perfbench/worker.py <workload> <seed> <mode> [<span file>]

``mode`` is ``setup`` (import and build the instance list, then stop),
``run`` (untraced sample) or ``trace`` (sample with per-layer wrappers;
spans go to ``<span file>``).  The last stdout line is a JSON object.
Every sample is its own process because ``ideals._GB_CACHE`` and
``symfun._memo`` live for the whole process: a second in-process
repetition would time cache hits that no command-line user gets.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_citree():
    """Import citree from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import citree

    if Path(citree.__file__).resolve().parent != SRC / "citree":
        raise ImportError(f"citree came from {citree.__file__}, not from {SRC}")


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    _import_citree()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    todo = workloads.instances(workload, seed)
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if mode == "trace":
        from tracing import VERDICT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()

    attempted = failed = 0
    digests = []
    errors = []
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for index, (key, thunk) in enumerate(todo):
        try:
            if tracer is None:
                report = thunk()
            else:
                tracer.run = index
                report = tracer.call(VERDICT_SPAN, thunk, (), {})
            tried, bad = workloads.verdicts(key, report)
            text = json.dumps(report, sort_keys=True, default=str)
        except Exception:  # a crash is a failed verdict, not an aborted run
            tried = bad = workloads.weight(key)
            text = "raised"
            errors.append({"instance": repr(key), "traceback": traceback.format_exc()})
        attempted += tried
        failed += bad
        digests.append((repr(key), hashlib.sha256(text.encode()).hexdigest()))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0

    digest = hashlib.sha256()
    for key, h in sorted(digests):
        digest.update(f"{key}={h}\n".encode())
    out = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "digest": digest.hexdigest(),
        "errors": errors,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        if len(argv) > 3:
            labels = [repr(key) for key, _ in todo]
            tracer.write_spans(argv[3], labels, {"workload": workload, "seed": seed})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
