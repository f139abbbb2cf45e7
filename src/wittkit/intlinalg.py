"""Integer matrix utilities: Smith and Hermite forms, solving, kernels, lattices.

Matrices are plain ``list[list[int]]``; Python ints keep everything exact.
``hermite_form`` is the one echelon algorithm.  ``int_inverse_unimodular``,
``solve_int`` and ``kernel_basis_int`` each read one Hermite form of a
matrix beside an identity, and ``lattice_equal`` compares one per side.
``smith_normal_form``, for invariant factors, is read off Hermite forms
too: those of a matrix and of its transpose, in turn, as Kannan and
Bachem do (SIAM J. Comput. 8, 1979).
This ends: the leading entry of each form divides the one before it, so
it can only shrink so many times; once it stops changing, its row and its
column are clear, and the same holds for the trailing block.
"""

from __future__ import annotations

from itertools import combinations, count
from math import gcd, prod
from operator import mul

from .errors import BudgetExceeded
from .rings import _MR_LIMIT, _is_odd_prime

IntMatrix = list[list[int]]


def identity_int(n: int) -> IntMatrix:
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(out):
        row[i] = 1
    return out


def matmul_int(a: IntMatrix, b: IntMatrix, p: int | None = None) -> IntMatrix:
    """Integer matrix product, each entry taken mod p when p is given; the
    products of ``InvMatrix`` slices and the congruence steps of ``forms``
    reduce to it.  A matrix with no rows carries no column count, so a
    product with an inner dimension of 0 has rows of length 0, not the
    zero matrix of the right width; ``InvMatrix`` products guard that case
    before they get here."""
    if not a or not b:
        return [[] for _ in a]
    bt = list(zip(*b))
    if p:
        return [[sum(map(mul, row, col)) % p for col in bt] for row in a]
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def int_det(a: IntMatrix) -> int:
    """Determinant of a square integer matrix: the product of the diagonal
    if a is upper triangular, else fraction-free Bareiss elimination.

    After Bareiss step k every entry of the trailing block is a (k+1)-minor
    of a, so the division by the previous pivot is exact and entries stay
    bounded by Hadamard's bound.  A zero pivot is replaced by a lower row
    with a nonzero entry in its column, flipping the sign; if none exists
    the determinant is 0.
    """
    if not any(any(row[:i]) for i, row in enumerate(a)):
        return prod(row[i] for i, row in enumerate(a))
    n = len(a)
    rows = list(a)  # the trailing block still to eliminate; rows are never written
    sign, prev = 1, 1
    for _ in range(n - 1):
        if not rows[0][0]:
            swap = next((i for i, row in enumerate(rows) if row[0]), None)
            if swap is None:
                return 0
            rows[0], rows[swap] = rows[swap], rows[0]
            sign = -sign
        (pivot, *pivot_row), *rest = rows
        rows = [
            [(pivot * x - row[0] * y) // prev for x, y in zip(row[1:], pivot_row)]
            for row in rest
        ]
        prev = pivot
    return sign * rows[0][0]


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def bezout_vector(v: list[int]) -> tuple[int, list[int]]:
    """(g, c) with sum(c_i * v_i) = g = gcd(v) >= 0; g = 0 only for v = 0."""
    g = 0
    coeffs = [0] * len(v)
    for i, x in enumerate(v):
        if x == 0:
            continue
        if g == 0:
            g = abs(x)
            coeffs[i] = 1 if x > 0 else -1
            continue
        g2, s, t = ext_gcd(g, x)
        coeffs = [s * c for c in coeffs]
        coeffs[i] += t
        g = g2
    return g, coeffs


def square_part(n: int) -> int:
    """Largest s with s*s dividing n (1 for n = 0)."""
    return prod(p ** (e // 2) for p, e in _factorization(n).items())


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n|, ascending (none for n = 0)."""
    return sorted(_factorization(n))


def legendre(u: int, p: int) -> int:
    """Legendre symbol (u|p) for odd prime p and u not divisible by p, by
    Euler's criterion."""
    return 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1


def least_nonresidue(p: int) -> int:
    """The least quadratic non-residue mod the odd prime p."""
    for q in range(2, p):
        if legendre(q, p) == -1:
            return q
    raise AssertionError("odd prime fields always have a non-residue")


# Trial division looks for primes below _TRIAL_BOUND only.  A cofactor left
# over is proved prime by Miller-Rabin (exact below _MR_LIMIT) or split by
# Pollard-Brent rho, which gives up with BudgetExceeded after about
# _RHO_STEPS squarings mod the cofactor for one split: a split takes about
# sqrt(q) of them for the least prime factor q, so this finds every factor
# up to roughly 2^40 and stops within a second or so.
_TRIAL_BOUND = 1 << 10
_RHO_STEPS = 1 << 20
_RHO_BATCH = 128


def _factorization(n: int) -> dict[int, int]:
    """Prime -> exponent in |n|; empty for 0 and +-1."""
    m = abs(n)
    out: dict[int, int] = {}
    if m == 0:
        return out
    d = 2
    while d < _TRIAL_BOUND and d * d <= m:
        if m % d == 0:
            out[d] = 0
            while m % d == 0:
                m //= d
                out[d] += 1
        d += 1 if d == 2 else 2
    if d * d > m:
        if m > 1:
            out[m] = 1
        return out
    # every prime factor of m is at least _TRIAL_BOUND, so m is odd
    pending = [m]
    while pending:
        f = pending.pop()
        if f < _MR_LIMIT and _is_odd_prime(f):
            out[f] = out.get(f, 0) + 1
        else:
            g = _rho_divisor(f)
            pending += [g, f // g]
    return out


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd n, by Brent's variant of Pollard's rho
    (BIT 20, 1980) with gcds taken over batches of steps; BudgetExceeded
    when none turns up within about _RHO_STEPS steps, as for a prime n."""
    steps = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps > _RHO_STEPS:
                raise BudgetExceeded(
                    f"no factor of {n} found within {_RHO_STEPS} Pollard rho steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            steps += 2 * r
            r *= 2
        if g == n:
            # the batch overshot: walk it again one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with D = U*a*V, U and V unimodular, and D diagonal
    with nonnegative entries satisfying d1 | d2 | ... (zeros at the end).

    Hermite forms of the rows [D | U] and of the rows [D^T | V^T] alternate
    until D is diagonal (Kannan and Bachem, SIAM J. Comput. 8, 1979); the
    transforms ride along in the augmented rows.  One pass over the pairs
    of diagonal entries then puts gcd and lcm in place."""
    m, n = len(a), len(a[0]) if a else 0
    # each turn reduces the rows of d beside the transform that rides on
    # them, then transposes d: the two transforms trade places
    d, rows_t, cols_t, turns = a, identity_int(m), identity_int(n), 0
    while any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(d)):
        k = len(d[0])
        h = hermite_form([[*row, *x] for row, x in zip(d, rows_t)], k + len(d))
        d, rows_t, cols_t, turns = columns_to_matrix(h, k), cols_t, [row[k:] for row in h], turns + 1
    u, vt = (cols_t, rows_t) if turns % 2 else (rows_t, cols_t)
    diag = [d[i][i] for i in range(min(m, n))]
    for i, j in combinations(range(len(diag)), 2):
        x, y = diag[i], diag[j]
        if y and (not x or y % x):
            # diag(g, x*y/g) = [[s, t], [-y/g, x/g]] diag(x, y) [[1, -t*y/g], [1, s*x/g]]
            g, s, t = ext_gcd(x, y)
            x, y = x // g, y // g
            diag[i], diag[j] = g, g * x * y
            u[i], u[j] = [s * p + t * q for p, q in zip(u[i], u[j])], [x * q - y * p for p, q in zip(u[i], u[j])]
            vt[i], vt[j] = [p + q for p, q in zip(vt[i], vt[j])], [s * x * q - t * y * p for p, q in zip(vt[i], vt[j])]
    d = [[0] * n for _ in range(m)]
    for i, x in enumerate(diag):
        if x < 0:
            x, u[i] = -x, [-p for p in u[i]]
        d[i][i] = x
    return u, d, [list(col) for col in zip(*vt)]


def columns_to_matrix(cols: list[list[int]], nrows: int) -> IntMatrix:
    return [[col[i] for col in cols] for i in range(nrows)]


def hermite_form(vectors: list[list[int]], n: int) -> IntMatrix:
    """The Hermite normal form of the lattice the vectors generate in Z^n
    (Cohen, GTM 138, 2.4.2): its basis as echelon rows, each leading entry
    positive and in a later column than the one before, the entries above
    it in [0, it).  Each column's rows merge into its first by unimodular
    steps on two rows: one minus a multiple of the other, or Bezout's."""
    rows, out = vectors, []
    for c in range(n):
        top, rest = None, []
        for v in rows:
            if not v[c]:
                rest.append(v)
            elif top is None:
                top = v
            else:
                k, m = divmod(v[c], top[c])
                if m:
                    g, s, t = ext_gcd(top[c], v[c])
                    a, b = top[c] // g, v[c] // g
                    top, v = [s * x + t * y for x, y in zip(top, v)], [b * x - a * y for x, y in zip(top, v)]
                else:
                    v = [y - k * x for x, y in zip(top, v)]
                rest.append(v)
        rows = rest
        if top is not None:
            top = [-x for x in top] if top[c] < 0 else list(top)
            out = [[x - q * y for x, y in zip(row, top)] if (q := row[c] // top[c]) else row for row in out]
            out.append(top)
    return out


def _graph_form(vectors: list[list[int]], m: int) -> IntMatrix:
    """The Hermite form of the rows (v_j, e_j) for k vectors v_j in Z^m.
    Each of its rows (v, x) has v = sum x_j v_j; the rows with v = 0, a
    basis of the relations among the v_j, come last."""
    k = len(vectors)
    return hermite_form([[*v, *e] for v, e in zip(vectors, identity_int(k))], m + k)


def int_inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Inverse of an integer matrix whose determinant is +-1: the Hermite
    form of [a | I] is [I | a^-1].  Raises ValueError for any other matrix."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    h = _graph_form(a, n)
    if [row[:n] for row in h] != identity_int(n):
        raise ValueError("matrix is not unimodular")
    return [row[n:] for row in h]


def kernel_basis_int(a: IntMatrix, n: int) -> list[list[int]]:
    """Basis (as vectors) of the integer kernel lattice of the m x n ``a``:
    the relations among its columns."""
    m = len(a)
    columns = [[row[j] for row in a] for j in range(n)]
    return [row[m:] for row in _graph_form(columns, m) if not any(row[:m])]


def solve_int(a: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """An n x k integer X with a*X = b for the m x n ``a`` and the m x k
    ``b`` (one right-hand side per column), or None when any column has
    none.  Each column y of b goes down the rows (a*x, x) with a*x != 0 of
    the graph form of a's columns, in echelon order, less the multiple of
    each row that clears its leading column.  What is left is (r, -x) with
    a*x = y - r: x solves when r = 0, and nothing does otherwise.  For an
    a with no columns the answer has no rows, and so carries no column
    count: it is [], not an n = 0 by k matrix."""
    m = len(a)
    if len(b) != m:
        raise ValueError("dimension mismatch in solve_int")
    n = len(a[0]) if a else 0
    h = _graph_form([[row[j] for row in a] for j in range(n)], m)
    pivots = [(c, row) for row in h if (c := next(i for i, x in enumerate(row) if x)) < m]
    cols = []
    for y in zip(*b):
        w = [*y, *[0] * n]
        for c, row in pivots:
            if q := w[c] // row[c]:
                w = [x - q * v for x, v in zip(w, row)]
        if any(w[:m]):
            return None
        cols.append([-x for x in w[m:]])
    return columns_to_matrix(cols, n)


def lattice_equal(a: IntMatrix, b: IntMatrix) -> bool:
    """Whether the columns of ``a`` and ``b`` span one lattice, by Hermite forms."""
    if len(a) != len(b):
        raise ValueError("lattices live in different ambient ranks")
    return hermite_form(list(zip(*a)), len(a)) == hermite_form(list(zip(*b)), len(b))
