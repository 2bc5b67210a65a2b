#!/usr/bin/env python3
"""Benchmark of the citree verifier: one command, three workloads.

    python3 perfbench/run.py --workload family-slp --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ``citree`` from ``src/``.
Each timed sample is a fresh single-threaded interpreter
(``perfbench/worker.py``) that runs the whole workload once, so the
process-wide Groebner and symmetric-function caches start cold, as they do
for a command-line user.  Samples run one after another until
``--seconds`` is spent (at least one sample always runs).

Everything runs on one CPU.  ``--trace 0`` runs each sample next to the
calibrator (``perfbench/reference.py``), a fixed computation looping in a
second process on the same CPU, and reports the end-to-end metrics:
``cpu_ref`` and ``wall_ref``, the sample's CPU and wall time from the
first verifier call to the last verdict in multiples of one calibrator
iteration's CPU and wall time over the same window (the host changes
speed by up to 2x, which the ratios cancel and seconds do not);
``peak_rss_mb`` of the worker; and ``setup_s`` (spawn to ready: interpreter
start, ``import citree``, building the instance list), the median of
several set-up-only processes run alone.  The seconds behind the ratios
are printed above the result line.

``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of ``perfbench/tracing.py`` plus ``trace_overhead``
(traced median ``wall_s`` over untraced).  Spans and the per-layer
self-time table are written under ``.perfbench/`` in the checkout.

Every verdict must pass, the paper facts in ``workloads.py`` must hold,
and every sample must produce the same report digest (traced and
untraced alike) and, when traced, the same work counts.  The last stdout
line is a JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the exit code is 0 only when ``correct`` is true.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("family-slp", "identity-grids", "depth5-arrows")
SETUP_SAMPLES = 15
# Calibrator iterations that must fall inside a sample's window.
MIN_REF_ITERATIONS = 10
# A run must end well within 180 seconds.
HARD_LIMIT_S = 165.0
SHARE_METRICS = ("linalg.rank.full_share", "ideals.standard_monomials.repeat_share",
                 "tree.family_member.repeat_share")


def metric_units(kind):
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


def worker_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # Fixed string hashing, so set iteration order and hence every work
    # count repeats exactly from one process to the next.
    env["PYTHONHASHSEED"] = "0"
    return env


class Calibrator:
    """The reference loop, running on this process's CPU until stopped."""

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "reference.py"), "--loop"],
                                     cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        self.out = ""

    def wait_ready(self):
        # The first iteration warms the process up; it is never used.
        self.proc.stdout.readline()

    def stop(self):
        self.proc.kill()
        self.out, _ = self.proc.communicate()

    def iterations(self, start, end):
        """(wall, CPU) seconds of the iterations that ran within [start, end]."""
        inside = []
        for line in self.out.splitlines():
            fields = line.split()
            if len(fields) == 3:
                a, b, cpu = map(float, fields)
                if start <= a and b <= end:
                    inside.append((b - a, cpu))
        return inside


class Sampler:
    """Spawns worker processes against one hard limit."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = worker_env()
        self.errors = []

    def spawn(self, mode, span_file=None, calibrate=False):
        """One worker process; returns (result dict or None, seconds, spawn time).

        With ``calibrate`` the calibrator runs next to the worker and the
        result gains ``ref_wall_s`` and ``ref_cpu_s``, the mean wall and CPU
        seconds of its iterations while the worker ran.
        """
        argv = [sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed), mode]
        if span_file is not None:
            argv.append(str(span_file))
        budget = HARD_LIMIT_S - (time.monotonic() - self.started)
        calibrator = Calibrator(self.env) if calibrate else None
        try:
            if calibrator is not None:
                calibrator.wait_ready()
            spawned = time.monotonic()
            try:
                proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                      text=True, timeout=max(budget, 1.0))
            except subprocess.TimeoutExpired:
                self.errors.append(f"{mode} sample killed after {budget:.0f} s")
                return None, time.monotonic() - spawned, spawned
            finished = time.monotonic()
        finally:
            if calibrator is not None:
                calibrator.stop()
        elapsed = finished - spawned
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.errors.append(f"{mode} sample exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
            return None, elapsed, spawned
        result = json.loads(lines[-1])
        if calibrator is not None:
            iterations = calibrator.iterations(spawned, finished)
            if len(iterations) < MIN_REF_ITERATIONS:
                self.errors.append(f"only {len(iterations)} calibrator iterations "
                                   f"ran during a {elapsed:.1f} s sample")
                return None, elapsed, spawned
            result["ref_wall_s"] = statistics.fmean(w for w, _ in iterations)
            result["ref_cpu_s"] = statistics.fmean(c for _, c in iterations)
        return result, elapsed, spawned


def pin_to_one_cpu():
    """Run this process, the calibrator and every worker on one CPU.

    The host's CPUs change speed independently, so the calibrator and the
    sample it scales must share one.  Returns the CPU's number.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def measure(workload, seed, seconds, trace):
    """Set-up samples, then timed samples until the deadline.

    Untraced samples run next to the calibrator; a traced run's samples
    (traced and untraced alike) run alone.  Returns (set-up seconds,
    sample results by mode, errors).
    """
    sampler = Sampler(workload, seed)
    # The first interpreter compiles the bytecode; it is not timed.
    sampler.spawn("setup")
    setup = []
    for _ in range(SETUP_SAMPLES):
        result, _, spawned = sampler.spawn("setup")
        if result is not None:
            setup.append(result["ready"] - spawned)

    modes = ["run", "trace"] if trace else ["run"]
    if trace:
        OUT.mkdir(exist_ok=True)
        for stale in OUT.glob(f"spans-{workload}-seed{seed}-*.json.gz"):
            stale.unlink()
    samples = {mode: [] for mode in modes}
    durations = {mode: [] for mode in modes}
    deadline = time.monotonic() + seconds
    k = 0
    while True:
        mode = modes[k % len(modes)]
        if k >= len(modes) and time.monotonic() + max(durations[mode]) > deadline:
            break
        span_file = OUT / f"spans-{workload}-seed{seed}-{k}.json.gz" if mode == "trace" else None
        result, elapsed, _ = sampler.spawn(mode, span_file, calibrate=not trace)
        durations[mode].append(elapsed)
        samples[mode].append(result)
        k += 1
        if result is None:
            break
    return setup, samples, sampler.errors


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def env_info(seed):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "citree").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def end_to_end(setup, runs):
    """End-to-end metrics (medians) and the lines that print them."""
    values = {
        "wall_s": [r["wall_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "ref_wall_s": [r["ref_wall_s"] for r in runs],
        "ref_cpu_s": [r["ref_cpu_s"] for r in runs],
        "wall_ref": [r["wall_s"] / r["ref_wall_s"] for r in runs],
        "cpu_ref": [r["cpu_s"] / r["ref_cpu_s"] for r in runs],
        "setup_s": setup,
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    bounded = metric_units("end_to_end")
    # Seconds of a sample and of a calibrator iteration, both sharing the CPU.
    units = {"wall_s": "s", "cpu_s": "s", "ref_wall_s": "s", "ref_cpu_s": "s", **bounded}
    metrics, lines = {}, []
    for name, unit in units.items():
        vals = values[name]
        if not vals:
            continue
        q1, q3 = quartiles(vals)
        med = statistics.median(vals)
        lines.append(f"{name:<12} {med:12.6f} {unit:<3} q1 {q1:.6f} q3 {q3:.6f} n {len(vals)}")
        if name in bounded:
            metrics[name] = {"value": med, "unit": unit}
    return metrics, lines


def per_layer(samples, workload, layer_names):
    """Per-layer metrics (medians over traced samples) and a self-time table."""
    units = metric_units("per_layer")
    problems = []
    runs = [r for r in samples["run"] if r is not None]
    traced = [r for r in samples["trace"] if r is not None]
    if not runs or not traced:
        return {}, [], ["no complete traced and untraced sample pair"]
    layers = [r["layers"] for r in traced]
    for name, value in layers[0].items():
        if not name.endswith("self_s") and any(l[name] != value for l in layers[1:]):
            problems.append(f"work count {name} differs between traced samples")
    metrics = {}
    for name, unit in units.items():
        if name == "trace_overhead":
            value = (statistics.median([r["wall_s"] for r in traced])
                     / statistics.median([r["wall_s"] for r in runs]))
        elif name.endswith("self_s"):
            value = statistics.median([l[name] for l in layers])
        else:
            value = layers[0][name]  # a work count, the same in every sample
        metrics[name] = {"value": value, "unit": unit}

    other = statistics.median([l["unattributed.self_s"] for l in layers])
    total = other + sum(metrics[f"{layer}.self_s"]["value"] for layer in layer_names)
    wall = statistics.median([r["wall_s"] for r in traced])
    table = [f"per-layer self time ({workload}, traced wall {wall:.3f} s, "
             f"{len(traced)} traced sample(s)):"]
    for layer in layer_names + ("unattributed",):
        s = other if layer == "unattributed" else metrics[f"{layer}.self_s"]["value"]
        table.append(f"  {layer:<12} {s:10.4f} s {100 * s / total:6.2f} %")
    for name in SHARE_METRICS + ("trace_overhead",):
        table.append(f"  {name} {metrics[name]['value']:.4f}")
    return metrics, table, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "citree" / "__init__.py").is_file():
        print(f"error: no citree sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    # On SIGTERM raise SystemExit, so subprocess.run kills and reaps the
    # running worker before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import LAYERS

    expected = workloads.attempted_count(args.workload)
    env = env_info(args.seed)
    env["cpu"] = pin_to_one_cpu()
    setup, samples, errors = measure(args.workload, args.seed, args.seconds, args.trace)

    all_results = [r for rs in samples.values() for r in rs]
    attempted = expected * len(all_results)
    failed = sum(expected if r is None else r["failed"] for r in all_results)
    problems = list(errors)
    for r in all_results:
        if r is None:
            continue
        if r["attempted"] != expected:
            problems.append(f"sample attempted {r['attempted']} verdicts, expected {expected}")
        for err in r["errors"]:
            problems.append(f"{err['instance']} raised:\n{err['traceback']}")
    digests = sorted({r["digest"] for r in all_results if r is not None})
    if len(digests) > 1:
        problems.append(f"samples disagree on the report digest: {digests}")
    if not setup:
        problems.append("no set-up sample finished")

    print(f"workload {args.workload}: " + ", ".join(
        f"{len(rs)} {mode} sample(s)" for mode, rs in samples.items())
        + f", {len(setup)} set-up sample(s)")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest {digests[0] if len(digests) == 1 else None}")
    print(f"verdicts attempted {attempted} failed {failed} "
          f"fail_ratio {failed / attempted if attempted else 1.0:.6g}")

    if args.trace:
        metrics, lines, layer_problems = per_layer(samples, args.workload, LAYERS)
        problems.extend(layer_problems)
        if metrics:
            (OUT / f"layers-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
                "env": env, "workload": args.workload, "metrics": metrics, "table": lines,
                "spans": sorted(p.name for p in OUT.glob(
                    f"spans-{args.workload}-seed{args.seed}-*.json.gz")),
            }, indent=1, sort_keys=True))
    else:
        runs = [r for r in samples["run"] if r is not None]
        metrics, lines = end_to_end(setup, runs) if runs else ({}, [])
    for line in lines:
        print(line)
    for p in problems:
        print("problem: " + p)
    correct = not problems and failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
