"""Reference implementations the tests check the library against.

Each one computes its quantity the slow, textbook way: absolute values
place by place, local heights from weil_local one form and one prime at a
time, and witness maps by factoring every value.
"""

from fractions import Fraction
from math import lcm, prod

from betachow.heights import support_primes, weil_local
from betachow.primes import vp


def abs_at(x, prime: int | None) -> Fraction:
    """|x|_v of a rational x as an exact rational (x = 0 maps to 0), at the
    place v of prime (None for the Archimedean place)."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    if prime is not None:
        return Fraction(prime) ** (-vp(x, prime))
    return abs(x)


def product_over_places(x) -> Fraction:
    """prod_v |x|_v over the support of a nonzero rational (exactly 1)."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("product formula needs a nonzero rational")
    total = abs(x)
    for q in support_primes([x]):
        total *= abs_at(x, q)
    return total


def key_condition(p, forms, s, mode: str) -> bool:
    """The local-height condition of the key theorem at the point p.

    forms[0] is the reference divisor D_0 and the rest are D_1..D_r.  At
    every finite place outside S (s, an SRing), mode "i" needs
    (1/d_i) lambda_i <= (1/d_0) lambda_0 for every i, and mode "ii" needs
    the sum over i.  The multiplicative local values come from weil_local,
    one call per form and prime, and are compared cross-powered so only
    integer exponents appear.  A point on the support of a form is
    refused.
    """
    values = [f.evaluate(p.coords) for f in forms]
    if 0 in values:
        raise ValueError("point on support")
    degrees = [f.total_degree() for f in forms]
    d0, big = degrees[0], lcm(*degrees)
    primes = set(support_primes(values + [c for c in p.coords if c != 0]))
    for q in sorted(primes - set(s.primes)):
        vals = [weil_local(f, p, q) for f in forms]
        if mode == "i":
            if any(vals[i] ** d0 > vals[0] ** degrees[i] for i in range(1, len(forms))):
                return False
        elif prod(vals[i] ** (big // degrees[i]) for i in range(1, len(forms))) > \
                vals[0] ** (big // d0):
            return False
    return True


def witness_map_by_factoring(values, s) -> dict:
    """The witness map of a search's checked values (ints or Fractions) over
    s, an SRing: for each prime outside S dividing a numerator or a
    denominator, found by stripping each of its S part and factoring the
    rest, the valuation of every value there (None for a zero value)."""
    parts = [s.strip_s_part(k) for v in values if v != 0 for k in (v.numerator, v.denominator)]
    return {str(q): [vp(v, q) if v != 0 else None for v in values]
            for q in support_primes(parts)}
