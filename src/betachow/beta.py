"""Beta constants: exact closed forms, truncated section-count estimates,
and intersection-theoretic lower bounds.

For the cyclic configuration (q >= 3n hyperplanes on P^n) the constant has
an exact rational closed form; it is independently approximated by the
truncated sum over section counts, and the two routes must agree in the
limit.  For the marked configuration the Autissier-style bound produces an
exact rational lower bound from three intersection numbers.

All verdicts are exact; square roots are handled as rational interval
enclosures, never as floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from ._records import Frozen
from .chow import config_classes, marked_config, top_intersection


def g_aut(x: Fraction) -> Fraction:
    """Piecewise weight x^3/3 for x <= 1, x - 2/3 for x >= 1 (continuous)."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("g_aut needs a positive argument")
    return x ** 3 / 3 if x <= 1 else x - Fraction(2, 3)


class AutissierInput(Frozen):
    """Intersection data (A^n, A^(n-1).B, A^(n-2).B^2) for the bound."""

    __slots__ = ("n", "a_top", "a_b", "a_b2")

    def __init__(self, n: int, a_top: Fraction, a_b: Fraction, a_b2: Fraction):
        a_top, a_b, a_b2 = Fraction(a_top), Fraction(a_b), Fraction(a_b2)
        if n < 2:
            raise ValueError("dimension must be >= 2")
        if a_top <= 0:
            raise ValueError("A^n must be positive (A big and nef)")
        if a_b == 0:
            raise ValueError("zero A^(n-1).B")
        if a_b < 0:
            raise ValueError("A^(n-1).B must be positive")
        self._assign(n, a_top, a_b, a_b2)


def beta_autissier_lower(inp: AutissierInput) -> Fraction:
    """Exact lower bound A^n/(2n A^(n-1).B) + ((n-1)A^(n-2).B^2/A^n) g(b),
    where b = A^n/(n A^(n-1).B)."""
    b = inp.a_top / (inp.n * inp.a_b)
    second = (inp.n - 1) * inp.a_b2 / inp.a_top * g_aut(b)
    return b / 2 + second


def autissier_input_marked(n: int, ell: int, index: int) -> AutissierInput:
    """Intersection data for B = Ht_index against A on the marked blow-up.

    index is 1-based; indices <= n+1 hit strict transforms through a point,
    larger ones are pullback hyperplanes.
    """
    if not 1 <= index <= 2 * n:
        raise ValueError(f"index must be in 1..2n = 1..{2 * n}, got {index}")
    cfg = marked_config(n)
    classes = config_classes(cfg, ell)
    a = classes["A"]
    b = classes[f"Ht{index}"]
    a_top = top_intersection([a] * n)
    a_b = top_intersection([a] * (n - 1) + [b])
    a_b2 = top_intersection([a] * (n - 2) + [b, b])
    return AutissierInput(n, a_top, a_b, a_b2)


def marked_target(n: int, ell: int, index: int) -> Fraction:
    """Per-index bound target: (n+1)l/2n, minus l/(2n(n+1)^(n-2)) for the
    pullback-hyperplane indices."""
    base = Fraction((n + 1) * ell, 2 * n)
    if index <= n + 1:
        return base
    return base - Fraction(ell, 2 * n * (n + 1) ** (n - 2))


def _cyclic_beta_terms(n: int, q: int) -> tuple[int, int]:
    """Numerator and denominator (n+1)(q^n - n^n q) > 0 of the cyclic beta,
    unreduced: beta > 1 iff num > den, and f = num - den."""
    if n < 2 or q < 3 * n:
        raise ValueError("cyclic beta needs n >= 2 and q >= 3n")
    num = q ** (n + 1) - (q - n) ** (n + 1) - n ** (n + 2) \
        - n ** (n + 1) * (n + 1) * (q - n)
    return num, (n + 1) * (q ** n - n ** n * q)


def beta_exact_cyclic(n: int, q: int) -> Fraction:
    """Exact beta constant of the cyclic configuration."""
    return Fraction(*_cyclic_beta_terms(n, q))


def f_poly(n: int, q: int) -> int:
    """Positivity polynomial (beta-1)(n+1)(q^n - n^n q) in expanded form."""
    if n < 2:
        raise ValueError("f_poly needs n >= 2")
    return (q ** (n + 1) - (q - n) ** (n + 1) - (n + 1) * q ** n
            - (n * n - 1) * n ** n * (q - n) + n ** (n + 1))


def beta_numeric_cyclic(n: int, q: int, N: int) -> Fraction:
    """Leading-term truncation of the section-count ratio at cutoff N.

    sum_{m=1}^{nN} max(0, (qN-m)^n - n(nN-m)^n - n^n(q-n)N^n) over
    N^(n+1) (q^n - n^n q), the same for every index i of the family.
    """
    if N < 1:
        raise ValueError("cutoff N must be >= 1")
    if n < 2 or q < 3 * n:
        raise ValueError("cyclic beta needs n >= 2 and q >= 3n")
    shift = n ** n * (q - n) * N ** n
    total = 0
    for m in range(1, n * N + 1):
        s = (q * N - m) ** n - n * (n * N - m) ** n - shift
        if s > 0:
            total += s
    return Fraction(total, N ** (n + 1) * (q ** n - n ** n * q))


# ---------------------------------------------------------------------------
# interval arithmetic for the single square root in the artifact
# ---------------------------------------------------------------------------

class RationalInterval(Frozen):
    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("empty interval")
        self._assign(lo, hi)

    def width(self) -> Fraction:
        return self.hi - self.lo


def sqrt_enclosure(x: Fraction, max_width: Fraction = Fraction(1, 10 ** 12)) -> RationalInterval:
    """Rational interval [lo, hi] with lo^2 <= x <= hi^2; exact on squares."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of a negative rational")
    if x == 0:
        return RationalInterval(Fraction(0), Fraction(0))
    scale = 1
    while Fraction(1, x.denominator * scale) > max_width:
        scale *= 10
    num = x.numerator * x.denominator * scale * scale
    root = isqrt(num)
    den = x.denominator * scale
    lo = Fraction(root, den)
    if lo * lo == x:
        return RationalInterval(lo, lo)
    return RationalInterval(lo, Fraction(root + 1, den))


def countinglambda_rhs(ell: int, max_width: Fraction = Fraction(1, 10 ** 9)) -> RationalInterval:
    """Enclosure of (1/l)(1 + 1/(l*sqrt(l))) with exact rational endpoints."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    s = sqrt_enclosure(Fraction(ell), max_width / 10)
    hi = Fraction(1, ell) * (1 + Fraction(1, ell) / s.lo)
    lo = Fraction(1, ell) * (1 + Fraction(1, ell) / s.hi)
    return RationalInterval(lo, hi)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def scan_cyclic(n_hi: int = 8, q_hi_mult: int = 12) -> list[dict]:
    """Exact scan of beta > 1 and f > 0 over n in [2, n_hi], q in [3n, q_hi_mult*n].

    Each row also checks the defining identity f = (beta-1)(n+1)(q^n-n^nq),
    as f = num - den on the unreduced terms of beta; the printed beta is the
    row's one Fraction.
    """
    rows = []
    for n in range(2, n_hi + 1):
        for q in range(3 * n, q_hi_mult * n + 1):
            num, den = _cyclic_beta_terms(n, q)
            f = f_poly(n, q)
            identity = f == num - den
            rows.append({
                "n": n, "q": q, "beta": Fraction(num, den), "f": f,
                "beta_gt_1": num > den, "f_gt_0": f > 0,
                "identity": identity,
                "ok": num > den and f > 0 and identity,
            })
    return rows


def scan_f_monotone(n_hi: int = 8, q_hi_mult: int = 12) -> list[dict]:
    """Exact finite differences of f over scan_cyclic's grid, n in [2, n_hi]
    and q in [3n, q_hi_mult*n] (increasing in q)."""
    rows = []
    for n in range(2, n_hi + 1):
        f = [f_poly(n, q) for q in range(3 * n, q_hi_mult * n + 1)]
        for q, lo, hi in zip(range(3 * n, q_hi_mult * n), f, f[1:]):
            rows.append({"n": n, "q": q, "difference": hi - lo, "ok": hi > lo})
    return rows


def scan_marked() -> list[dict]:
    """Exact scan of the marked bound against its per-index target, for
    n in (2, 3, 4) and ell in (10, 100, 1000).

    One low index (through a point) and one high index (pullback) suffice:
    the intersection data is identical within each group.
    """
    rows = []
    for n in (2, 3, 4):
        for ell in (10, 100, 1000):
            for index in (1, n + 2):
                bound = beta_autissier_lower(autissier_input_marked(n, ell, index))
                target = marked_target(n, ell, index)
                rows.append({"n": n, "ell": ell, "index": index, "bound": bound,
                             "target": target, "ok": bound > target})
    return rows
