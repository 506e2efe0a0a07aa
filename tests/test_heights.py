import random
import re
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import betachow.heights
from betachow.audits import iter_sample_points
from betachow.heights import (
    ProjPoint,
    SRing,
    _ratio_text,
    height,
    parse_places,
    proximity_counting,
    support_primes,
    weil_local,
    weil_subscheme,
)
from betachow.poly import MultiPoly, monomial_exponents, parse_poly
from betachow.primes import vp
from oracles import abs_at, key_condition, product_over_places

COORD = st.integers(-10 ** 6, 10 ** 6)


@st.composite
def integer_forms(draw):
    """Random linear or quadratic form in x0, x1, x2 with integer coefficients."""
    degree = draw(st.sampled_from([1, 2]))
    mons = monomial_exponents(3, degree, homogeneous=True)
    coeffs = draw(st.lists(st.integers(-30, 30), min_size=len(mons), max_size=len(mons)))
    f = MultiPoly(3, dict(zip(mons, coeffs)))
    assume(not f.is_zero())
    return f


def test_height_examples():
    assert height(ProjPoint.normalize([3, 6, 9])) == 3
    assert ProjPoint.normalize([3, 6, 9]).coords == (1, 2, 3)
    assert height(ProjPoint.normalize([1, 0, 0])) == 1
    p = ProjPoint.normalize([-5, 7])
    assert p.coords == (5, -7)
    assert height(p) == 7


def test_normalize_clears_denominators():
    p = ProjPoint.normalize([Fraction(1, 2), Fraction(3, 4)])
    assert p.coords == (2, 3)


def test_projpoint_validation():
    with pytest.raises(ValueError):
        ProjPoint((0, 0))
    with pytest.raises(ValueError):
        ProjPoint((2, 4))
    with pytest.raises(ValueError):
        ProjPoint((-1, 2))


@settings(max_examples=200, deadline=None)
@given(st.lists(COORD, min_size=1, max_size=4), st.integers(2, 10 ** 3),
       st.fractions(min_value=Fraction(1, 1000), max_value=1000))
def test_normalize_builds_the_point_the_constructor_accepts(coords, k, scale):
    # normalize trusts its own result; the public constructor still checks
    assume(any(coords))
    g = gcd(*coords)
    sign = 1 if next(c for c in coords if c) > 0 else -1
    expected = tuple(sign * c // g for c in coords)
    assert ProjPoint.normalize(coords) == ProjPoint(expected)
    assert ProjPoint.normalize([c * scale for c in coords]) == ProjPoint(expected)
    with pytest.raises(ValueError, match="coprime"):
        ProjPoint(tuple(k * c for c in expected))
    with pytest.raises(ValueError, match="positive"):
        ProjPoint(tuple(-c for c in expected))
    with pytest.raises(ValueError, match="nonzero"):
        ProjPoint((0,) * len(coords))


def test_sampled_points_skip_the_validating_constructor(monkeypatch):
    # each sampled point is checked once, by normalize's own arithmetic
    calls = []
    real = ProjPoint.__init__
    monkeypatch.setattr(ProjPoint, "__init__",
                        lambda self, coords: calls.append(coords) or real(self, coords))
    points = list(iter_sample_points(2, 100, 50, seed=5))
    assert calls == [] and len(points) == 50
    assert all(ProjPoint(p.coords) == p for p in points)
    assert len(calls) == 50


def test_places():
    s = parse_places("inf,2,3")
    assert s == SRing((2, 3)) and s.primes == (2, 3)
    assert parse_places("3,2,2") == parse_places("oo,2,3") == s
    assert parse_places("inf") == parse_places("none") == SRing()
    with pytest.raises(ValueError, match="^4 is not prime$"):
        parse_places("inf,4")
    with pytest.raises(ValueError, match="^'x' is neither 'inf' nor an int$"):
        parse_places("inf,x")
    assert abs_at(Fraction(12), 2) == Fraction(1, 4)
    assert abs_at(Fraction(-3, 8), None) == Fraction(3, 8)


@pytest.mark.parametrize("prime", [6, 2.0, True, "2"])
def test_local_values_refuse_a_place_that_is_not_an_int_prime(prime):
    f, p = parse_poly("x0", 2), ProjPoint.normalize([2, 3])
    message = "^" + re.escape(f"{prime} is not prime") + "$"
    with pytest.raises(ValueError, match=message):
        weil_local(f, p, prime)
    with pytest.raises(ValueError, match=message):
        weil_subscheme([f], p, prime)


def test_weil_local_standard_example():
    f = parse_poly("x0", 2)
    p = ProjPoint.normalize([2, 3])
    assert weil_local(f, p, None) == Fraction(3, 2)
    assert weil_local(f, p, 2) == 2
    assert weil_local(f, p, 3) == 1
    total = weil_local(f, p, None)
    for q in support_primes([2, 3]):
        total *= weil_local(f, p, q)
    assert total == height(p) ** 1


def test_weil_local_near_divisor():
    f = parse_poly("x0+x1", 2)
    for q in (3, 5, 7):
        p = ProjPoint.normalize([1, -1 + q])
        assert weil_local(f, p, q) == q


def test_weil_local_unit_case():
    f = parse_poly("x0+x1", 2)
    p = ProjPoint.normalize([1, 2])
    assert weil_local(f, p, 5) == 1


def test_weil_local_errors():
    with pytest.raises(ValueError, match="point on support"):
        weil_local(parse_poly("x0", 2), ProjPoint.normalize([0, 1]), None)
    with pytest.raises(ValueError, match="integer coefficients"):
        weil_local(parse_poly("1/2*x0", 2), ProjPoint.normalize([1, 1]), None)
    with pytest.raises(ValueError):
        weil_local(parse_poly("x0+1", 2), ProjPoint.normalize([1, 1]), None)


@pytest.mark.parametrize("coords", [[1, 1, 0], [2, 2, 1]])
@pytest.mark.parametrize("first", [True, False])
def test_height_forms_refuse_rational_coefficients_at_every_point(coords, first):
    # 1/2*x0 + 1/2*x1 is 1 at [1:1:0], a value with no prime in it, and x2
    # vanishes there, so the subscheme's minimum is taken over the half form
    # alone; each call still refuses it, wherever it stands among the generators
    half, x2 = parse_poly("1/2*x0+1/2*x1", 3), parse_poly("x2", 3)
    generators = [half, x2] if first else [x2, half]
    p = ProjPoint.normalize(coords)
    for v in (None, 2):
        with pytest.raises(ValueError, match="integer coefficients"):
            weil_local(half, p, v)
        with pytest.raises(ValueError, match="integer coefficients"):
            weil_subscheme(generators, p, v)
    with pytest.raises(ValueError, match="integer coefficients"):
        proximity_counting(half, p, SRing((2,)))


def test_height_machine_identity_random():
    from betachow.poly import MultiPoly

    rng = random.Random(31)
    mons_lin = [(1, 0), (0, 1)]
    mons_quad = [(2, 0), (1, 1), (0, 2)]
    for _ in range(150):
        mons = mons_quad if rng.random() < 0.5 else mons_lin
        f = MultiPoly(2, {e: Fraction(rng.randint(-9, 9)) for e in mons})
        if f.is_zero():
            continue
        p = ProjPoint.normalize([rng.randint(-40, 40) or 1, rng.randint(-40, 40) or 3])
        if f.evaluate(p.coords) == 0:
            continue
        val = f.evaluate(p.coords)
        total = weil_local(f, p, None)
        for q in support_primes([val, *p.coords]):
            finite_value = weil_local(f, p, q)
            assert finite_value >= 1  # normalized point, integer coefficients
            total *= finite_value
        assert total == Fraction(height(p)) ** f.total_degree()


def test_support_primes_of_ints_and_fractions():
    assert support_primes([0, -12, Fraction(5, 49), 1, Fraction(-1, 11)]) == (2, 3, 5, 7, 11)


def test_normalize_integer_coordinates_match_rational_path():
    for coords in ([0, -4, 6], [3, 0, 0], [-7, 14, 0], [0, 0, -5], [12, 18, -30]):
        p = ProjPoint.normalize(coords)
        assert p == ProjPoint.normalize([Fraction(c) for c in coords])
        assert all(type(c) is int for c in p.coords)
    with pytest.raises(ValueError, match="nonzero coordinate"):
        ProjPoint.normalize([0, 0])


def test_normalize_integer_coordinates_take_no_lcm(monkeypatch, count_fractions):
    monkeypatch.setattr(betachow.heights, "lcm", lambda *a: pytest.fail("lcm called"))
    built = count_fractions()
    assert ProjPoint.normalize([0, -4, 6]).coords == (0, 2, -3)
    assert ProjPoint.normalize([-7, 14, 0]).coords == (1, -2, 0)
    assert built == []
    with pytest.raises(ValueError, match="nonzero coordinate"):
        ProjPoint.normalize([0, 0])


@given(st.integers(1, 10 ** 30), st.integers(1, 10 ** 30))
def test_ratio_text_is_the_fraction_text(num, den):
    assert _ratio_text(num, den) == str(Fraction(num, den))


@settings(max_examples=200, deadline=None)
@given(integer_forms(), st.lists(COORD, min_size=3, max_size=3))
def test_weil_local_matches_abs_at_formula(f, coords):
    """weil_local against the abs_at formula, with the height machine identity
    and the product formula, at infinity, small primes and the support."""
    assume(any(coords))
    p = ProjPoint.normalize(coords)
    val = f.evaluate(p.coords)
    assume(val != 0)
    d = f.total_degree()
    support = support_primes([val, *p.coords])
    total = Fraction(1)
    for v in [None, *sorted({2, 3, 5, 7, *support})]:
        expected = max(abs_at(c, v) for c in p.coords) ** d / abs_at(val, v)
        got = weil_local(f, p, v)
        assert type(got) is Fraction and got == expected
        if v is None or v in support:
            total *= got
        else:
            assert got == 1
    assert total == Fraction(height(p)) ** d
    assert product_over_places(val) == 1


def test_product_formula_random():
    rng = random.Random(37)
    for _ in range(300):
        x = Fraction(rng.randint(-10 ** 6, 10 ** 6) or 5, rng.randint(1, 10 ** 4))
        assert product_over_places(x) == 1
    with pytest.raises(ValueError):
        product_over_places(0)


def test_weil_subscheme():
    f0, f1 = parse_poly("x0", 2), parse_poly("x1", 2)
    p = ProjPoint.normalize([2, 3])
    assert weil_subscheme([f0, f1], p, 2) == 1  # min(2, 1)
    assert weil_subscheme([f0], p, None) == weil_local(f0, p, None)


def test_weil_subscheme_where_w_vanishes():
    # W = x1 vanishes at [3:0:1], so lambda_W is +infinity: the subscheme
    # value is lambda_D at every place
    f_d, f_w = parse_poly("x0+x2", 3), parse_poly("x1", 3)
    p = ProjPoint.normalize([3, 0, 1])
    for v in (None, 2, 3):
        assert weil_subscheme([f_d, f_w], p, v) == weil_local(f_d, p, v)
    with pytest.raises(ValueError, match="point on support"):
        weil_subscheme([f_w, parse_poly("x1^2", 3)], p, None)
    with pytest.raises(ValueError, match="homogeneous"):
        weil_subscheme([f_d, parse_poly("x1^2+x1", 3)], p, None)


def test_weil_subscheme_monotone_under_refinement():
    # more generators cut a smaller subscheme: the min can only drop
    rng = random.Random(41)
    fs = [parse_poly(t, 3) for t in ("x0", "x1", "x0+x1+x2", "x0+2*x1+4*x2")]
    for _ in range(50):
        p = ProjPoint.normalize([rng.randint(-20, 20) or 1,
                                 rng.randint(-20, 20) or 2,
                                 rng.randint(-20, 20) or 3])
        if any(f.evaluate(p.coords) == 0 for f in fs):
            continue
        for v in (None, 2, 3, 5):
            big = weil_subscheme(fs, p, v)
            small = weil_subscheme(fs[:2], p, v)
            assert big <= small


def test_proximity_counting_examples():
    f = parse_poly("x0", 2)
    p = ProjPoint.normalize([2, 3])
    dec = proximity_counting(f, p, SRing())
    assert (dec.proximity, dec.counting, dec.total) == (Fraction(3, 2), 2, 3)
    dec_all = proximity_counting(f, p, SRing((2, 3)))
    assert dec_all.counting == 1
    f2 = parse_poly("x0*x1", 2)
    dec2 = proximity_counting(f2, p, SRing())
    assert dec2.total == 9 == height(p) ** 2


def test_key_condition_reflexive_and_refused_on_the_support():
    f = parse_poly("x0+x1", 3)
    p = ProjPoint.normalize([2, 1, 1])
    assert key_condition(p, [f, f], SRing(), "i")
    assert key_condition(p, [f, f], SRing(), "ii")
    # x1 vanishes at [1:0:1], where every value of x0 + x1 is 1
    for mode in ("i", "ii"):
        with pytest.raises(ValueError, match="point on support"):
            key_condition(ProjPoint.normalize([1, 0, 1]), [f, parse_poly("x1", 3)],
                          SRing(), mode)


def test_key_condition_sample_against_valuations():
    # D_0 = [x0+x1 = 0], D_1 = [x0 = 0], P = [2:1:1], S = {inf}
    g0 = parse_poly("x0+x1", 3)
    f1 = parse_poly("x0", 3)
    p = ProjPoint.normalize([2, 1, 1])
    # oracle: condition at each prime is v_p(F_1) <= v_p(G) (degrees 1)
    v0, v1 = g0.evaluate(p.coords), f1.evaluate(p.coords)  # 3, 2
    oracle = all(vp(v1, q) <= vp(v0, q) for q in (2, 3))
    assert oracle is False
    assert key_condition(p, [g0, f1], SRing(), "i") is False


def test_blowup_integrality_equivalence():
    # (D, W) blow-up data: the strict-transform value lambda_D / min(lambda_D,
    # lambda_W) is 1 at every place off S iff lambda_D <= lambda_W there;
    # both sides computed independently.
    rng = random.Random(43)
    f_d = parse_poly("x0", 3)
    f_w = parse_poly("x1", 3)
    s = SRing()
    for _ in range(80):
        coords = [rng.randint(-30, 30) or 1, rng.randint(-30, 30) or 2,
                  rng.randint(-30, 30) or 3]
        p = ProjPoint.normalize(coords)
        if f_d.evaluate(p.coords) == 0 or f_w.evaluate(p.coords) == 0:
            continue
        primes = support_primes([f_d.evaluate(p.coords), f_w.evaluate(p.coords)])
        off_s = [q for q in primes]
        lhs = all(weil_local(f_d, p, v) == weil_subscheme([f_d, f_w], p, v)
                  for v in off_s)
        rhs = all(weil_local(f_d, p, v) <= weil_local(f_w, p, v)
                  for v in off_s)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the closed S-split against the per-place products of weil_local
# ---------------------------------------------------------------------------

S_CHOICES = [(), (2,), (2, 3), (5, 7)]


def _proximity_counting_per_place(f, p, s):
    """The oracle: m_S the product of weil_local over S (which holds the
    Archimedean place, None), N_S the product over the support off S, and
    their product."""
    val = f.evaluate(p.coords)
    support = support_primes([val, *[c for c in p.coords if c != 0]])
    m = prod(weil_local(f, p, v) for v in (None, *s.primes))
    n = prod((weil_local(f, p, q) for q in support if q not in s.primes),
             start=Fraction(1))
    return m, n, m * n, support


@settings(max_examples=200, deadline=None)
@given(integer_forms(), st.lists(COORD, min_size=3, max_size=3), st.sampled_from(S_CHOICES))
def test_proximity_counting_matches_weil_local_per_place(f, coords, s_primes):
    assume(any(coords))
    p = ProjPoint.normalize(coords)
    assume(f.evaluate(p.coords) != 0)
    s = SRing(s_primes)
    dec = proximity_counting(f, p, s)
    assert (dec.proximity, dec.counting, dec.total, dec.support) == \
        _proximity_counting_per_place(f, p, s)
    assert dec.total == height(p) ** f.total_degree()
