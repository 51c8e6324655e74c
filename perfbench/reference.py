"""Reference work whose time tracks how fast the machine runs right now.

The work is fixed exact arithmetic of the kinds the pipeline does, about
half products of Fraction coefficient lists and half big-integer
products, remainders and gcds.  It does not use turanstab, so a change to
turanstab cannot move it.  run.py scales every measured time by how long
this work took just before and just after the measurement.

Run as a script, it is a helper process: for every line read from stdin
it runs the work once and prints the time it took.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from fractions import Fraction

# Median time of reference_s() on the reference machine (see README.md).
NOMINAL_S = 0.1


def reference_work():
    # dense products of Fraction coefficient lists, as in the build stage
    p = [Fraction(i + 1, 2 * i + 3) for i in range(40)]
    q = [Fraction(3 * i + 1, i + 2) for i in range(40)]
    for _ in range(8):
        prod = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                prod[i + j] += a * b
    # big-integer products, remainders and gcds, as in the remainder chain
    a, b = 3**3000 + 1, 7**2000 + 5
    g = 0
    for i in range(150):
        a = (a * b + i) % (5**4000 + i)
        g += math.gcd(a, b + i)
    return prod, g


def reference_s() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class ParallelReference:
    """Two helper processes that run the reference work at the same time,
    for passes that keep both CPUs busy.  Helpers need no threads in this
    process, so it can still fork workers safely."""

    def __init__(self):
        self.procs = [
            subprocess.Popen(
                [sys.executable, __file__],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        self.measure()  # the first run in a fresh helper is unmeasured

    def measure(self) -> float:
        """The slower helper's time for one reference run."""
        for proc in self.procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        return max(float(proc.stdout.readline()) for proc in self.procs)

    def close(self) -> None:
        for proc in self.procs:
            proc.stdin.close()
        for proc in self.procs:
            proc.wait(timeout=30)


if __name__ == "__main__":
    for _ in sys.stdin:
        print(reference_s(), flush=True)
