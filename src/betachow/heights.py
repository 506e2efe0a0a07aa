"""Places of Q, exact local Weil functions, and height decompositions.

The ground field is fixed to Q: places are the Archimedean absolute value
and one p-adic absolute value per prime, normalized so the product formula
holds exactly.  Local heights are stored multiplicatively as positive
rationals (the logarithm is rendering only), with the standard
representative

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
from typing import Iterable, Mapping, Sequence

from ._records import Frozen
from .poly import MultiPoly
from .primes import _prime_to, _vp_int, factor, is_prime, vp


class Place(Frozen):
    """The Archimedean place (prime None) or a finite place of Q, whose
    prime is an int (not a bool or a float)."""

    __slots__ = ("prime",)

    def __init__(self, prime: int | None = None):
        if prime is not None and (type(prime) is not int or not is_prime(prime)):
            raise ValueError(f"{prime} is not prime")
        self._assign(prime)

    @property
    def is_finite(self) -> bool:
        return self.prime is not None

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)


ARCH = Place(None)

PlaceSet = frozenset[Place]


def make_place_set(primes: Iterable[int] = ()) -> PlaceSet:
    """Finite place set containing the Archimedean place."""
    return frozenset([ARCH, *(Place(p) for p in primes)])


def parse_places(text: str) -> PlaceSet:
    """Parse 'inf', 'inf,2,3', '2,3', or 'none' (Archimedean always in)."""
    primes = []
    for token in text.split(","):
        token = token.strip()
        if token in ("", "inf", "oo", "none"):
            continue
        try:
            primes.append(int(token))
        except ValueError:
            raise ValueError(f"{token!r} is neither 'inf' nor an int") from None
    return make_place_set(primes)


def finite_primes(s: PlaceSet) -> tuple[int, ...]:
    return tuple(sorted(v.prime for v in s if v.prime is not None))


def abs_at(x: Fraction | int, v: Place) -> Fraction:
    """|x|_v as an exact rational (x = 0 maps to 0)."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    if v.is_finite:
        return Fraction(v.prime) ** (-vp(x, v.prime))
    return abs(x)


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


class LocalHeight(Frozen):
    """Multiplicative local Weil value at one place (lambda = log value)."""

    __slots__ = ("place", "value")

    def __init__(self, place: Place, value: Fraction):
        if value <= 0:
            raise ValueError("multiplicative local height must be positive")
        self._assign(place, value)

    @property
    def log_value(self) -> float:
        return _log(self.value)


def check_weil_form(f: MultiPoly):
    """Raise ValueError unless f is a nonconstant homogeneous form with
    integer coefficients, the forms this module takes local values of."""
    if not f.is_homogeneous() or f.total_degree() < 1:
        raise ValueError("weil_local needs a nonconstant homogeneous form")
    if not f.has_integer_coefficients():
        raise ValueError("weil_local needs integer coefficients")


def _local_value(val: int, coords: Sequence[int], degree: int,
                 prime: int | None) -> Fraction | int:
    """value_v(F, P) from val = F(P) != 0, for an integer form F of the
    given degree and a normalized point P with these coordinates.

    prime is None at the Archimedean place, where the value is
    max_j |x_j|^deg / |val|.  Otherwise it is trusted to be prime (it comes
    from a validated Place or from factor()); the coordinates are coprime,
    so min_j v_q(x_j) = 0 and the value is the integer q^{v_q(val)}.
    """
    if prime is None:
        return Fraction(max(abs(c) for c in coords) ** degree, abs(val))
    return prime ** _vp_int(val, prime)


def weil_local(f: MultiPoly, p: ProjPoint, v: Place) -> LocalHeight:
    """Standard local Weil value max_j |x_j|_v^deg / |F(x)|_v, exact."""
    check_weil_form(f)
    val = f.evaluate(p.coords)
    if val == 0:
        raise ValueError("point on support")
    return LocalHeight(v, Fraction(_local_value(val.numerator, p.coords,
                                                f.total_degree(), v.prime)))


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


def weil_subscheme(generators: Sequence[MultiPoly], p: ProjPoint, v: Place) -> LocalHeight:
    """Local value of the subscheme cut out by several forms: the minimum
    of the component values (each form taken with its own degree,
    f.total_degree()).  A form vanishing at P has value +infinity there and
    drops out of the minimum; P is on the subscheme, an error, only when
    every form vanishes.  Every form is checked, vanishing or not."""
    if not generators:
        raise ValueError("subscheme needs at least one generator")
    values = []
    for f in generators:
        check_weil_form(f)
        val = f.evaluate(p.coords)
        if val != 0:
            values.append(_local_value(val.numerator, p.coords, f.total_degree(), v.prime))
    if not values:
        raise ValueError("point on support")
    return LocalHeight(v, Fraction(min(values)))


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


def proximity_counting(f: MultiPoly, p: ProjPoint, s: PlaceSet) -> HeightDecomposition:
    """Exact decomposition h = m * N of the local Weil values of F at P.

    The split is _s_split's; the support is found by factoring F(P) and the
    coordinates, and everywhere else the local value is 1.
    """
    if ARCH not in s:
        raise ValueError("the place set must contain the Archimedean place")
    val = f.evaluate(p.coords)
    if val == 0:
        raise ValueError("point on support")
    check_weil_form(f)
    support = support_primes([val, *[c for c in p.coords if c != 0]])
    hd, n_part = _s_split(val.numerator, height(p), f.total_degree(), finite_primes(s))
    return HeightDecomposition(Fraction(hd, n_part), n_part, Fraction(hd), support)


def product_over_places(x: Fraction | int) -> Fraction:
    """prod_v |x|_v over the support of a nonzero rational (exactly 1)."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("product formula needs a nonzero rational")
    total = abs(x)
    for q in support_primes([x]):
        total *= abs_at(x, Place(q))
    return total


class MkConstant(Frozen):
    """Finitely-supported multiplicative slack per place (default 1)."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[Place, Fraction], ...] = ()):
        for _, g in entries:
            if g <= 0:
                raise ValueError("multiplicative slack must be positive")
        self._assign(entries)

    @classmethod
    def trivial(cls) -> "MkConstant":
        return cls(())

    @classmethod
    def from_map(cls, m: Mapping[Place, Fraction]) -> "MkConstant":
        return cls(tuple(sorted(((v, Fraction(g)) for v, g in m.items()),
                                key=lambda t: (t[0].prime is not None, t[0].prime or 0))))

    def at(self, v: Place) -> Fraction:
        for place, g in self.entries:
            if place == v:
                return g
        return Fraction(1)

    def support(self) -> tuple[Place, ...]:
        return tuple(v for v, g in self.entries if g != 1)


def theoremkey_condition(p: ProjPoint, forms: Sequence[MultiPoly],
                         s: PlaceSet, gamma: MkConstant | None = None,
                         mode: str = "i") -> bool:
    """Exact per-place comparison of normalized local heights off S.

    forms[0] is the reference divisor D_0; the rest are D_1..D_r.  Mode "i"
    checks (1/d_i) lambda_i <= (1/d_0) lambda_0 + gamma_v at every finite
    place outside S for every i; mode "ii" checks the sum over i instead.
    Every form is checked before any is evaluated, and each is evaluated
    once.  Comparisons are cross-powered so only integer exponents appear.
    """
    if mode not in ("i", "ii"):
        raise ValueError("mode must be 'i' or 'ii'")
    if len(forms) < 2:
        raise ValueError("need the reference form and at least one divisor")
    gamma = gamma or MkConstant.trivial()
    for f in forms:
        check_weil_form(f)
    degrees = [f.total_degree() for f in forms]
    d0 = degrees[0]
    if mode == "i" and any(d < d0 for d in degrees[1:]):
        raise ValueError("mode i needs deg(D_i) >= deg(D_0)")
    values = [f.evaluate(p.coords).numerator for f in forms]
    if any(val == 0 for val in values):
        raise ValueError("point on support")

    primes = set(support_primes(values + [c for c in p.coords if c != 0]))
    primes.update(v.prime for v in gamma.support() if v.is_finite)
    primes -= set(finite_primes(s))

    degrees_lcm = lcm(*degrees)
    for q in sorted(primes):
        g = gamma.at(Place(q))
        v0, *rest = [_local_value(val, p.coords, d, q) for val, d in zip(values, degrees)]
        if mode == "i":
            if any(v ** d0 > v0 ** d * g ** (d0 * d) for v, d in zip(rest, degrees[1:])):
                return False
        elif prod(v ** (degrees_lcm // d) for v, d in zip(rest, degrees[1:])) > \
                v0 ** (degrees_lcm // d0) * g ** degrees_lcm:
            return False
    return True


def strict_transform_local(f_d: MultiPoly, f_w: MultiPoly, p: ProjPoint,
                           v: Place) -> tuple[Fraction, Fraction]:
    """Local values (strict transform, subscheme) for blow-up data (D, W).

    The subscheme value is min(lambda_D, lambda_W); the strict-transform
    value is lambda_D divided by it, so it is 1 exactly when D is locally
    dominated by W at v.
    """
    val_d = weil_local(f_d, p, v).value
    val_y = weil_subscheme([f_d, f_w], p, v).value
    return val_d / val_y, val_y
