import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, primerange

from betachow.primes import _TRIAL_LIMIT, FactorizationBoundError, factor, is_prime, vp

# primes on both sides of the trial-division limit and of 2^20
NEAR_TRIAL = [*primerange(_TRIAL_LIMIT - 40, _TRIAL_LIMIT),
              *primerange(_TRIAL_LIMIT, _TRIAL_LIMIT + 40)]
NEAR_2_20 = [*primerange((1 << 20) - 40, (1 << 20) + 40)]


def test_vp_examples():
    assert vp(12, 2) == 2
    assert vp(Fraction(3, 8), 2) == -3
    for p in (2, 3, 5, 7, 11):
        assert vp(1, p) == 0


def test_vp_zero_rejected():
    with pytest.raises(ValueError, match="valuation of zero"):
        vp(0, 2)


def test_vp_requires_prime():
    with pytest.raises(ValueError):
        vp(10, 6)


def test_vp_additive_and_ultrametric():
    rng = random.Random(7)
    for _ in range(300):
        a = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 60))
        b = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 60))
        for p in (2, 3, 5):
            assert vp(a * b, p) == vp(a, p) + vp(b, p)
            if a + b != 0:
                assert vp(a + b, p) >= min(vp(a, p), vp(b, p))


def test_factor_examples():
    assert factor(60) == {2: 2, 3: 1, 5: 1}
    assert factor(-7) == {7: 1}


def test_factor_large_prime_against_trial_division_oracle():
    n = 10 ** 9 + 7
    # independent oracle: trial division to sqrt(n)
    d = 2
    while d * d <= n:
        assert n % d != 0
        d += 1
    assert factor(n) == {n: 1}
    assert is_prime(n)


def test_factor_reassembles():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 10 ** 9)
        fac = factor(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p ** e
        assert prod == n
        assert list(fac) == sorted(fac)


def test_factor_zero_and_bound():
    with pytest.raises(ValueError):
        factor(0)
    with pytest.raises(FactorizationBoundError, match="factorization bound"):
        factor(2 ** 200 + 1)


def test_factor_semiprime_beyond_trial_range():
    p, q = 1_000_003, 1_000_033
    assert factor(p * q) == {p: 1, q: 1}


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 48):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-3)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 1 << 64))
def test_factor_matches_sympy(n):
    assert factor(n) == dict(sorted(factorint(n).items()))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(NEAR_TRIAL + NEAR_2_20), min_size=1, max_size=5),
       st.sampled_from([1, -1]))
def test_factor_products_around_trial_limits(ps, sign):
    n = sign
    for p in ps:
        n *= p
    assert factor(n) == dict(sorted(factorint(abs(n)).items()))


@pytest.mark.parametrize("p", [p for p in NEAR_TRIAL if p > _TRIAL_LIMIT][:4] + NEAR_2_20[-2:])
@pytest.mark.parametrize("e", [2, 3])
def test_factor_prime_powers_above_trial_limit(p, e):
    assert factor(p ** e) == {p: e}
    assert factor(6 * p ** e) == {2: 1, 3: 1, p: e}


@pytest.mark.parametrize("n", [561, 41041, 825265])
def test_factor_carmichael_numbers(n):
    assert not is_prime(n)
    assert factor(n) == dict(sorted(factorint(n).items()))
