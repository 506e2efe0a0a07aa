"""Primality testing, integer factorization, and p-adic valuations.

Everything here is deterministic.  Factorization trial-divides by the
primes below _TRIAL_LIMIT and splits what is left with Miller-Rabin and
Brent's rho.  It refuses inputs above a hard size bound with an explicit
error instead of risking a silent wrong answer; the local-height machinery
depends on the support of a value being found exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable

FACTOR_BOUND_DEFAULT = 1 << 128

# Trial division stops here: past a few hundred small primes a large prime
# cofactor costs far less to prove prime (or to split) than to trial-divide.
_TRIAL_LIMIT = 1 << 10

# Miller-Rabin witness panels.  The first is proven deterministic for all
# n < 3_317_044_064_679_887_385_961_981; the second (first 25 primes) is the
# fixed panel applied beyond that range.
_MR_PROVEN_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_PROVEN = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LARGE = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
             53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class FactorizationBoundError(ValueError):
    """|n| exceeds the configured factorization bound."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = _MR_PROVEN if n < _MR_PROVEN_LIMIT else _MR_LARGE
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n, Brent cycle detection.

    The parameter sweep c = 1, 2, ... makes the routine fully deterministic.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, r, q = 2, 1, 1
        g, x, ys = 1, 0, 0
        m = 128
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"pollard rho parameter sweep exhausted on {n}")


def factor(n: int, bound: int = FACTOR_BOUND_DEFAULT) -> dict[int, int]:
    """Factor |n| into primes, returned in ascending order.

    Raises FactorizationBoundError when |n| > bound and ValueError on zero
    input; the sign of n is discarded.
    """
    if n == 0:
        raise ValueError("factorization of zero")
    n = abs(n)
    if n > bound:
        raise FactorizationBoundError(
            f"factorization bound exceeded: |n| = {n} > {bound}")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)  # skips multiples of 2, 3, 5
    w = 0
    while p * p <= n and p <= _TRIAL_LIMIT:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += wheel[w]
        w = (w + 1) % 8
    if 1 < n < p * p:  # no prime factor below p is left, so n is prime
        out[n] = out.get(n, 0) + 1
    elif n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _brent_rho(m)
            stack.append(d)
            stack.append(m // d)
    return dict(sorted(out.items()))


def _vp_int(n: int, p: int) -> int:
    """v_p of a nonzero integer; p is trusted to be prime."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _prime_to(n: int, primes: Iterable[int]) -> int:
    """n with every factor of the given primes divided out (the non-S part
    of n, sign kept, for the primes of S)."""
    if n == 0:
        raise ValueError("0 has no non-S part")
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def vp(x: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational: vp(num) - vp(den)."""
    if x == 0:
        raise ValueError("valuation of zero")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _vp(x, p)


def _vp(x: Fraction | int, p: int) -> int:
    """vp without its checks, for primes that come from factor() or a
    validated place: x must be nonzero and p prime."""
    if isinstance(x, int):
        return _vp_int(x, p)
    return _vp_int(x.numerator, p) - _vp_int(x.denominator, p)
