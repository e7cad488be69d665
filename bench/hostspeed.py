"""Host-speed reference: fixed pure-Python work, timed between the ops of a run.

The benchmark runs on shared hosts whose speed changes by a factor of up to
1.5 from one minute to the next as other tenants load them, more than any
bound a benchmark could keep.  So every run times this fixed work, a few
milliseconds at a time, interleaved with its ops, and scales its timings by
``NOMINAL_S / median(reference times)``: the timings the run would have given
on a host whose reference time is ``NOMINAL_S``.  The work uses nothing from
sphemb, so a change to sphemb moves the scaled timings exactly as much as it
moves the raw ones.

The work is two kinds of interpreter work sphemb does: fraction-free
elimination on a 20x20 integer matrix (big integers), and building, hashing
and sorting tuples.  On the 2-CPU host the benchmark was built on, this pair
tracked the slowdowns of sphemb's ops better than a mix that also held a
small-integer loop: the loop slowed less than sphemb did when the host was
loaded.  Over ten runs of 30 s per workload on that host, scaling cut the
spread (quartile distance over median) of ``ops_per_s`` from 0.09-0.15 to
0.02-0.04; bench/README.md gives the other metrics.
"""

from __future__ import annotations

import random

# About the reference's median time on the host the benchmark was built on
# (Python 3.11, 2 vCPUs) when that host was lightly loaded.
NOMINAL_S = 0.003

_rng = random.Random(20110118)
_MATRIX = [[_rng.randint(-9, 9) for _ in range(20)] for _ in range(20)]


def _bareiss() -> int:
    a = [row[:] for row in _MATRIX]
    n, prev = len(a), 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[-1][-1]


def _hash_sort() -> int:
    table = {(i % 97, i % 89, i): i for i in range(3000)}
    return len(sorted(table, key=lambda key: (key[1], -key[2])))


def reference() -> None:
    """One sample of the fixed work."""
    for _ in range(3):
        _bareiss()
    _hash_sort()
