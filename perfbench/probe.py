"""A fixed piece of exact arithmetic that shows how fast the host runs
Python at a given moment.

``probe_s()`` takes the determinant and the square of a fixed 7x7 rational
matrix: big integers, Fractions and short-lived objects, the kind of work
the workloads do.  It uses no wittkit code, so a change to wittkit cannot
move it, and it imports only ``fractions`` and ``time``, so that a child
interpreter can run it just before and after the import it times.
"""

import time
from fractions import Fraction

MATRIX = [[Fraction((5 * i + 3 * j * j + 1) % 19 - 9, (i + 2 * j) % 8 + 1) for j in range(7)] for i in range(7)]


def _det(a):
    m = [row[:] for row in a]
    n, out = len(m), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


def _square(a):
    cols = list(zip(*a))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def probe_s() -> float:
    """Seconds the fixed computation takes, the better of two tries."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _det(MATRIX)
        _square(MATRIX)
        best = min(best, time.perf_counter() - start)
    return best
