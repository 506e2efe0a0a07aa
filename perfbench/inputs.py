"""Seeded input generator for the benchmark workloads.

Every forms file a workload feeds to the program is drawn here from the
workload name and the seed, so one seed always gives the same files.  The
checks that make the inputs valid (a linear g nonzero at the origin and at
the unit vectors, lines in general position) use only the standard
library, never betachow itself: the program must not validate its own
inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path


def determinant(rows: list[list[int]]) -> Fraction:
    """Exact determinant of a square matrix by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def in_general_position(lines: list[list[int]]) -> bool:
    """Every min(#lines, #coords) of the coefficient vectors independent,
    that is, each such subset has a nonzero maximal minor."""
    n = len(lines[0])
    k = min(len(lines), n)
    return all(any(determinant([[lines[i][c] for c in cols] for i in subset]) != 0
                   for cols in combinations(range(n), k))
               for subset in combinations(range(len(lines)), k))


def draw_lines(rng: random.Random, count: int, coef: int,
               ncoords: int = 3) -> list[list[int]]:
    """count linear forms with coefficients in [-coef, coef], redrawing each
    new form until the whole arrangement is in general position (and
    starting over when a partial arrangement admits no completion)."""
    lines: list[list[int]] = []
    misses = 0
    while len(lines) < count:
        if misses > 1000:
            lines, misses = [], 0
        misses += 1
        cand = [rng.randint(-coef, coef) for _ in range(ncoords)]
        if in_general_position(lines + [cand]):
            lines.append(cand)
    return lines


def linear_g(rng: random.Random, coef: int, nvars: int = 2) -> list[int]:
    """Coefficients [c, a_0, .., a_{n-1}] of g = c + sum a_i x_i with g
    nonzero at the origin and at every unit vector."""
    while True:
        c = rng.randint(-coef, coef)
        a = [rng.randint(-coef, coef) for _ in range(nvars)]
        if c != 0 and any(a) and all(c + ai != 0 for ai in a):
            return [c, *a]


def form_text(coeffs: list[int], offset: int = 0) -> str:
    """Render sum coeffs[i] * x{i+offset}; offset -1 makes coeffs[0] the
    constant term (the affine g of cor12)."""
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        var = i + offset
        body = str(abs(c)) if var < 0 else f"{abs(c)}*x{var}"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def write_lines(path: Path, lines: list[list[int]], g_line: list[int] | None = None):
    text = "".join(form_text(line) + "\n" for line in lines)
    if g_line is not None:
        text += "G: " + form_text(g_line) + "\n"
    path.write_text(text)


def workload_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")
