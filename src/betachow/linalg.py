"""Exact linear algebra over Q: row reduction, rank, null space."""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence


def rref(m: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot column indices."""
    a = [[Fraction(x) for x in row] for row in m]
    if not a:
        return a, []
    rows, cols = len(a), len(a[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m: Iterable[Sequence[Fraction | int]]) -> int:
    return len(_integer_row_basis(m))


def det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, fraction-free (Bareiss): each
    step's division by the previous pivot is exact, so no Fraction is built."""
    a = [list(row) for row in m]
    size = len(a)
    if any(len(row) != size for row in a):
        raise ValueError("determinant needs a square matrix")
    sign, prev = 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if size else 1


def _integer_row_basis(m: Iterable[Sequence[Fraction | int]]) -> list[list[int]]:
    """Integer echelon basis of the row space of m: each row is scaled by
    the lcm of its denominators, reduced against the kept rows (one per
    leading column, so at most one per column), and divided by its content."""
    kept: dict[int, list[int]] = {}
    for row in m:
        den = lcm(*(x.denominator for x in row))
        v = [x.numerator * (den // x.denominator) for x in row]
        while any(v):
            lead = next(c for c, x in enumerate(v) if x)
            if lead not in kept:
                g = gcd(*v)
                kept[lead] = [x // g for x in v]
                break
            piv = kept[lead]
            v = [piv[lead] * x - v[lead] * y for x, y in zip(v, piv)]
        if len(kept) == len(row):
            break
    return [kept[c] for c in sorted(kept)]


def kernel_basis(m: Iterable[Sequence[Fraction | int]]) -> list[list[Fraction]]:
    """Basis of the right null space of m, deterministic.

    One vector per free column (ascending), built from the reduced echelon
    form, sign-normalized so the first nonzero entry is positive.  The
    arithmetic is exact: every returned vector annihilates m with no
    tolerance.  It is read off the RREF of an integer row basis of m: the
    same row space, so the same RREF.  Rows are read lazily: at full column
    rank the kernel is empty, and neither the rest of m nor rref is touched.
    """
    rows = iter(m)
    first = next(rows, None)
    if first is None:
        return []
    cols = len(first)
    ints = _integer_row_basis(chain((first,), rows))
    if len(ints) == cols:
        return []
    a, pivots = rref(ints)
    free = [c for c in range(cols) if c not in pivots]
    basis: list[list[Fraction]] = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, pc in enumerate(pivots):
            v[pc] = -a[row][fc]
        lead = next((x for x in v if x != 0), Fraction(1))
        if lead < 0:
            v = [-x for x in v]
        basis.append(v)
    return basis
