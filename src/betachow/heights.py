"""Places of Q, exact local Weil functions, and height decompositions.

The ground field is fixed to Q: places are the Archimedean absolute value
and one p-adic absolute value per prime, normalized so the product formula
holds exactly.  A place is named by its prime, an int, or by None for the
Archimedean place.  A set S of places is an SRing, which lists the finite
primes of S; the Archimedean place is always in S.  Local heights are
stored multiplicatively as positive rationals (the logarithm is rendering
only), with the standard representative

    value_v(F, P) = max_j |x_j|_v^{deg F} / |F(x)|_v

for a homogeneous integer-coefficient form F and a normalized projective
point P.  With this representative the height machine identity

    prod_v value_v(F, P) = height(P)^{deg F}

is exact, not merely up to a bounded function.  For a normalized point the
coordinates are coprime, so at a prime q the value is the integer
q^{v_q(F(x))}; only the Archimedean value is a proper fraction.

So the split over a place set S needs no per-place loop: the counting part
N_S is r, the part of |F(x)| prime to S, and m_S = height(P)^{deg F} / r.

The finite support of a counting function is discovered by factoring F(P)
and the coordinates; a factorization failure aborts loudly rather than
silently dropping a prime.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, log, prod
from typing import Iterable, Sequence

from ._records import Frozen
from .poly import MultiPoly
from .primes import _prime_to, _vp_int, factor, is_prime


class SRing(Frozen):
    """Ring of S-integers: denominators restricted to the listed primes,
    which are ints (not bools or floats)."""

    __slots__ = ("primes",)

    def __init__(self, primes: tuple[int, ...] = ()):
        ps = tuple(primes)
        if not all(type(p) is int for p in ps) or list(ps) != sorted(set(ps)) \
                or not all(is_prime(p) for p in ps):
            raise ValueError("S must be a strictly ascending list of primes")
        self._assign(ps)

    def strip_s_part(self, n: int) -> int:
        return _prime_to(n, self.primes)

    def is_unit(self, n: int) -> bool:
        """Whether n != 0 is +- a product of S-primes: every exponent of such
        an |n| is below its bit length, so it divides prod(S)^bits."""
        n = abs(n)
        return pow(prod(self.primes), n.bit_length(), n) == 0

    def contains(self, x: Fraction | int) -> bool:
        if isinstance(x, int):
            return True
        return self.strip_s_part(x.denominator) == 1


def _check_place(prime) -> None:
    """Raise ValueError unless prime names a place: None (the Archimedean
    place) or a prime int (not a bool or a float)."""
    if prime is not None and (type(prime) is not int or not is_prime(prime)):
        raise ValueError(f"{prime} is not prime")


def parse_places(text: str) -> SRing:
    """Parse 'inf', 'inf,2,3', '2,3', or 'none' (Archimedean always in);
    the primes may repeat and come in any order."""
    primes = []
    for token in text.split(","):
        token = token.strip()
        if token in ("", "inf", "oo", "none"):
            continue
        try:
            primes.append(int(token))
        except ValueError:
            raise ValueError(f"{token!r} is neither 'inf' nor an int") from None
    for prime in primes:
        _check_place(prime)
    return SRing(tuple(sorted(set(primes))))


class ProjPoint(Frozen):
    """Point of P^n(Q) in normalized coordinates: coprime integers, first
    nonzero coordinate positive."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]):
        if not coords or all(c == 0 for c in coords):
            raise ValueError("projective point needs a nonzero coordinate")
        if gcd(*coords) != 1:
            raise ValueError("coordinates must be coprime")
        first = next(c for c in coords if c != 0)
        if first < 0:
            raise ValueError("first nonzero coordinate must be positive")
        self._assign(coords)

    @classmethod
    def normalize(cls, coords: Sequence[Fraction | int]) -> "ProjPoint":
        """The normalized point with these int or Fraction coordinates,
        built without the constructor's checks, which it satisfies."""
        if all(type(c) is int for c in coords):
            ints = list(coords)
        else:
            denom = lcm(*(c.denominator for c in coords))
            ints = [int(c * denom) for c in coords]
        if all(c == 0 for c in ints):
            raise ValueError("projective point needs a nonzero coordinate")
        g = gcd(*ints)
        ints = [c // g for c in ints]
        if next(c for c in ints if c != 0) < 0:
            ints = [-c for c in ints]
        return cls._make(tuple(ints))

    def __str__(self) -> str:
        return "[" + ":".join(str(c) for c in self.coords) + "]"


def height(p: ProjPoint) -> int:
    """Multiplicative height: max |x_i| over normalized coordinates."""
    return max(abs(c) for c in p.coords)


def _log(x: Fraction | int) -> float:
    """log(x) for a positive rational x.  Past the float range, where x
    cannot be converted to a float, it is log(numerator) - log(denominator):
    log of an int never overflows."""
    try:
        return log(x)
    except OverflowError:
        return log(x.numerator) - log(x.denominator)


def check_weil_form(f: MultiPoly):
    """Raise ValueError unless f is a nonconstant homogeneous form with
    integer coefficients, the forms this module takes local values of."""
    if not f.is_homogeneous() or f.total_degree() < 1:
        raise ValueError(f"form {f} is not a nonconstant homogeneous form")
    if not f.has_integer_coefficients():
        raise ValueError(f"form {f} needs integer coefficients")


def _local_value(val: int, coords: Sequence[int], degree: int,
                 prime: int | None) -> Fraction | int:
    """value_v(F, P) from val = F(P) != 0, for an integer form F of the
    given degree and a normalized point P with these coordinates.

    prime is None at the Archimedean place, where the value is
    max_j |x_j|^deg / |val|.  Otherwise it is trusted to be prime (the
    callers check it or take it from S or factor()); the coordinates are
    coprime, so min_j v_q(x_j) = 0 and the value is the integer
    q^{v_q(val)}.
    """
    if prime is None:
        return Fraction(max(abs(c) for c in coords) ** degree, abs(val))
    return prime ** _vp_int(val, prime)


def weil_local(f: MultiPoly, p: ProjPoint, prime: int | None) -> Fraction:
    """Standard local Weil value max_j |x_j|_v^deg / |F(x)|_v, exact, at
    the place v of prime (None for the Archimedean place)."""
    _check_place(prime)
    check_weil_form(f)
    val = f.evaluate(p.coords)
    if val == 0:
        raise ValueError("point on support")
    return Fraction(_local_value(val.numerator, p.coords, f.total_degree(), prime))


def _s_split(val: int, h: int, degree: int, s_primes: Iterable[int]) -> tuple[int, int]:
    """(h^degree, N_S) from val = F(P) != 0, for an integer form F of the
    given degree and a normalized point P of height h, with S the
    Archimedean place and s_primes.  Off S only the primes dividing val
    count, so N_S is r, the part of |val| prime to S; the values at all
    places multiply to h^degree, so m_S = h^degree / r."""
    return h ** degree, abs(_prime_to(val, s_primes))


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for positive ints, built from a gcd."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def weil_subscheme(generators: Sequence[MultiPoly], p: ProjPoint,
                   prime: int | None) -> Fraction:
    """Local value of the subscheme cut out by several forms: the minimum
    of the component values (each form taken with its own degree,
    f.total_degree()).  A form vanishing at P has value +infinity there and
    drops out of the minimum; P is on the subscheme, an error, only when
    every form vanishes.  Every form is checked, vanishing or not.  prime
    is weil_local's."""
    _check_place(prime)
    if not generators:
        raise ValueError("subscheme needs at least one generator")
    values = []
    for f in generators:
        check_weil_form(f)
        val = f.evaluate(p.coords)
        if val != 0:
            values.append(_local_value(val.numerator, p.coords, f.total_degree(), prime))
    if not values:
        raise ValueError("point on support")
    return Fraction(min(values))


def support_primes(values: Iterable[Fraction | int]) -> tuple[int, ...]:
    """Ascending primes dividing any numerator or denominator of the
    values, which are ints or Fractions."""
    primes: set[int] = set()
    for x in values:
        for part in (x.numerator, x.denominator):
            if abs(part) > 1:
                primes.update(factor(part))
    return tuple(sorted(primes))


class HeightDecomposition(Frozen):
    """Multiplicative proximity / counting split of a divisor height:
    proximity the product over v in S, counting the product over v outside
    S, total their product, and support the finite primes carrying the
    counting part."""

    __slots__ = ("proximity", "counting", "total", "support")

    def __init__(self, proximity: Fraction, counting: int, total: Fraction,
                 support: tuple[int, ...]):
        self._assign(proximity, counting, total, support)

    @property
    def log_rows(self) -> dict[str, float]:
        return {"m": _log(self.proximity), "N": _log(self.counting),
                "h": _log(self.total)}


def proximity_counting(f: MultiPoly, p: ProjPoint, s: SRing) -> HeightDecomposition:
    """Exact decomposition h = m * N of the local Weil values of F at P.

    The split is _s_split's; the support is found by factoring F(P) and the
    coordinates, and everywhere else the local value is 1.
    """
    check_weil_form(f)
    val = f.evaluate(p.coords)
    if val == 0:
        raise ValueError("point on support")
    support = support_primes([val, *[c for c in p.coords if c != 0]])
    hd, n_part = _s_split(val.numerator, height(p), f.total_degree(), s.primes)
    return HeightDecomposition(Fraction(hd, n_part), n_part, Fraction(hd), support)
