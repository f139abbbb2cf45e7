"""Determinants and inverses of ``wittkit.matrices`` as they were computed
by minors.

This is the reference the Bareiss determinant, the Berkowitz
characteristic polynomial and the Cayley-Hamilton inverse are tested
against (``test_matrices.py``, ``test_slices.py``): the determinant as the
division-free Laplace expansion along the rows, and the inverse as the
adjugate of cofactors, one minor per entry, times the inverse of the
determinant.  Both work on payload grids with the ring's bound ops.
"""

from __future__ import annotations

from typing import Any, Sequence

from wittkit.matrices import InvMatrix
from wittkit.rings import RingSpec, _inv, _is_unit


def det_minors(spec: RingSpec, cells: Sequence[Sequence[Any]]) -> Any:
    """Determinant of a square payload grid over any supported ring.

    Laplace expansion along the rows, memoized on the mask of columns still
    free: O(2^n * n) ring operations.
    """
    n = len(cells)
    add, neg, mul, is_zero, _ = spec.ops
    memo: dict[int, Any] = {0: spec.one}

    def minor(r: int, mask: int) -> Any:
        # the row index r is the number of columns already used
        got = memo.get(mask)
        if got is not None:
            return got
        acc = spec.zero
        sign = 1
        m = mask
        while m:
            low = m & -m
            a = cells[r][low.bit_length() - 1]
            if not is_zero(a):
                term = mul(a, minor(r + 1, mask & ~low))
                acc = add(acc, term if sign > 0 else neg(term))
            sign = -sign
            m &= m - 1
        memo[mask] = acc
        return acc

    return minor(0, (1 << n) - 1)


def inverse_by_minors(m: InvMatrix) -> InvMatrix | None:
    """The inverse as adj(m) / det(m), with adj(m)[j][i] = (-1)^(i+j) times
    the minor of m without row i and column j; None when det(m) is not a
    unit."""
    spec, n, cells = m.spec, m.nrows, m.cells
    _, neg, mul, _, _ = spec.ops
    d = det_minors(spec, cells)
    if not _is_unit(spec, d):
        return None
    inv_d = _inv(spec, d)
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[c for cj, c in enumerate(row) if cj != j] for ri, row in enumerate(cells) if ri != i]
            cofactor = det_minors(spec, sub)
            grid[j][i] = mul(inv_d, cofactor if (i + j) % 2 == 0 else neg(cofactor))
    return InvMatrix(spec, tuple(map(tuple, grid)), n, n)
