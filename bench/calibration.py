"""A fixed reference kernel that tells how fast the machine runs right now.

On a shared machine other tenants slow the cores themselves, so the same
code takes up to twice the CPU time, in phases of seconds to minutes. The
benchmark runs this kernel before every op and set-up and scales their
times by ``REFERENCE_S / kernel time``: reported times are CPU seconds on a
machine where the kernel takes ``REFERENCE_S``. The kernel does the kind of
work the package does (rational arithmetic, dicts, sets, a heap), so it
slows down with the ops; it belongs to the benchmark, so no change to the
package moves it.
"""

from __future__ import annotations

import heapq
import random
import time
from fractions import Fraction

# about the kernel's CPU time on a shared 2-core Xeon at 2.1 GHz in its
# usual, slower state, with Python 3.11.7; it only sets the scale of times
REFERENCE_S = 0.02
NODES = 400


def kernel() -> int:
    """Shortest distances from node 0 on a fixed graph with rational weights."""
    rng = random.Random(0)
    adj = {u: [(rng.randrange(NODES), Fraction(rng.randint(1, 1000), rng.randint(1, 16)))
               for _ in range(4)]
           for u in range(NODES)}
    dist = {0: Fraction(0)}
    heap = [(Fraction(0), 0)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj[u]:
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return len(done)


def measure() -> float:
    """CPU seconds of one kernel run."""
    start = time.process_time()
    kernel()
    return time.process_time() - start
