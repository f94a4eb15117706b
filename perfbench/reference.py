"""Fixed reference tasks that every benchmark time is divided by.

The shared virtual machine the benchmark was built on changes speed by up to
half from one few-second stretch to the next, so a raw CPU time says as much
about the host as about the program.  Every timed piece of work therefore
runs between two runs of a reference task that does the same kind of work
but none of the program's code, and its time is reported as

    seconds = CPU time * nominal / reference CPU time,

i.e. in seconds of a machine on which the reference takes its nominal time.
A change to the program moves the work and not the reference.  There are
two references, one per kind of work:

- in_process() for operations inside one process: exact rational
  arithmetic, dicts keyed by tuples and sorting, like the program's own;
- cold_start() for cold processes (cli-session calls and set-up): a child
  `python3 -c pass`, whose start-up follows the host's speed the way an
  import-bound cold start does.
"""

from __future__ import annotations

import resource
import subprocess
import sys
from fractions import Fraction
from time import process_time

IN_PROCESS_S = 0.004
COLD_START_S = 0.075
SIZE = 7
ENTRIES = 400


def children_cpu() -> float:
    """CPU seconds of every child process reaped so far."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def determinant() -> Fraction:
    """The determinant of a fixed rational matrix by exact elimination."""
    a = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4)
          for j in range(SIZE)] for i in range(SIZE)]
    det = Fraction(1)
    for c in range(SIZE):
        p = next((r for r in range(c, SIZE) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, SIZE):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def tally() -> list:
    """Rational sums under tuple keys, sorted."""
    d: dict[tuple, Fraction] = {}
    for i in range(ENTRIES):
        k = (i % 97, i // 97, str(i % 13))
        d[k] = d.get(k, Fraction(0)) + Fraction(i % 7, 1 + i % 5)
    return sorted(d.items(), key=lambda kv: (kv[0][2], kv[1]))


def in_process() -> float:
    """CPU seconds of the in-process reference task."""
    t0 = process_time()
    determinant()
    tally()
    return process_time() - t0


def cold_start() -> float:
    """CPU seconds of a cold `python3 -c pass` child."""
    t0 = children_cpu()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return children_cpu() - t0
