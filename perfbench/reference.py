"""The calibrator: a fixed computation that measures the host's current speed.

The shared host this benchmark runs on changes speed by 10 % from one
stretch of seconds to the next and by up to 2x for minutes at a time, so
seconds measured at different times do not compare.  ``run.py`` therefore
runs this computation in a loop, in its own process, on the same single
CPU as each timed workload sample and at the same time, so that both see
the same host at every moment.  A sample's time is then reported in
multiples of one iteration's time over the same window (``cpu_ref``,
``wall_ref``).

The computation does not use ``citree``, so a change to the program under
test never changes it.  It mixes the operations the verifiers spend their
time in: exact ``Fraction`` matrix products, sparse dict-of-tuple
polynomial products and ``Fraction`` row reduction.  One iteration takes
about 0.2 s of CPU on a 2-vCPU Xeon KVM guest.

    python3 perfbench/reference.py          # time one iteration
    python3 perfbench/reference.py --loop   # iterate until stopped, one line each:
                                            # <start> <end> <CPU seconds>, monotonic clock
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction

SEED = 20240301
MATRIX_N = 14
POLY_TERMS = 60
POLY_ROUNDS = 8
RREF_SHAPE = (14, 16)


def _matmul(a, b):
    n, inner, m = len(a), len(b), len(b[0])
    out = []
    for r in range(n):
        row = []
        for c in range(m):
            acc = Fraction(0)
            for k in range(inner):
                acc += a[r][k] * b[k][c]
            row.append(acc)
        out.append(row)
    return out


def _poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def _rref_rank(rows):
    rows = [list(r) for r in rows]
    rank, ncols = 0, len(rows[0])
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def reference_work() -> int:
    """One iteration; returns a checksum so nothing is skipped."""
    rng = random.Random(SEED)
    n = MATRIX_N
    a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    b = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    prod = _matmul(_matmul(a, b), a)
    check = prod[0][0].numerator % 1000003

    p = {tuple(rng.randint(0, 4) for _ in range(4)): Fraction(rng.randint(1, 9), rng.randint(1, 3))
         for _ in range(POLY_TERMS)}
    q = dict(p)
    for _ in range(POLY_ROUNDS):
        q = _poly_mul(p, {e: c for e, c in list(q.items())[:POLY_TERMS]})
    check += len(q)

    rows, cols = RREF_SHAPE
    m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
    check += _rref_rank(m)
    return check


def iterate():
    """Run iterations until killed, printing each one's window and CPU time."""
    while True:
        start, cpu0 = time.monotonic(), time.process_time()
        reference_work()
        print(start, time.monotonic(), time.process_time() - cpu0, flush=True)


if __name__ == "__main__":
    if sys.argv[1:] == ["--loop"]:
        iterate()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    reference_work()
    print("reference iteration wall %.4f s, cpu %.4f s"
          % (time.perf_counter() - wall0, time.process_time() - cpu0))
