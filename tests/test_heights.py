import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import betachow.heights
from betachow.audits import iter_sample_points
from betachow.heights import (
    ARCH,
    MkConstant,
    Place,
    ProjPoint,
    _ratio_text,
    abs_at,
    height,
    make_place_set,
    parse_places,
    product_over_places,
    proximity_counting,
    strict_transform_local,
    support_primes,
    theoremkey_condition,
    weil_local,
    weil_subscheme,
)
from betachow.poly import MultiPoly, monomial_exponents, parse_poly
from betachow.primes import vp

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
    assert ARCH in s and Place(2) in s and len(s) == 3
    assert parse_places("inf") == make_place_set()
    with pytest.raises(ValueError):
        Place(6)
    for prime in (2.0, True, "2"):
        with pytest.raises(ValueError, match="is not prime"):
            Place(prime)
    assert abs_at(Fraction(12), Place(2)) == Fraction(1, 4)
    assert abs_at(Fraction(-3, 8), ARCH) == Fraction(3, 8)


def test_weil_local_standard_example():
    f = parse_poly("x0", 2)
    p = ProjPoint.normalize([2, 3])
    assert weil_local(f, p, ARCH).value == Fraction(3, 2)
    assert weil_local(f, p, Place(2)).value == 2
    assert weil_local(f, p, Place(3)).value == 1
    total = weil_local(f, p, ARCH).value
    for q in support_primes([2, 3]):
        total *= weil_local(f, p, Place(q)).value
    assert total == height(p) ** 1


def test_weil_local_near_divisor():
    f = parse_poly("x0+x1", 2)
    for q in (3, 5, 7):
        p = ProjPoint.normalize([1, -1 + q])
        assert weil_local(f, p, Place(q)).value == q


def test_weil_local_unit_case():
    f = parse_poly("x0+x1", 2)
    p = ProjPoint.normalize([1, 2])
    assert weil_local(f, p, Place(5)).value == 1


def test_weil_local_errors():
    with pytest.raises(ValueError, match="point on support"):
        weil_local(parse_poly("x0", 2), ProjPoint.normalize([0, 1]), ARCH)
    with pytest.raises(ValueError, match="integer coefficients"):
        weil_local(parse_poly("1/2*x0", 2), ProjPoint.normalize([1, 1]), ARCH)
    with pytest.raises(ValueError):
        weil_local(parse_poly("x0+1", 2), ProjPoint.normalize([1, 1]), ARCH)


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
        total = weil_local(f, p, ARCH).value
        for q in support_primes([val, *p.coords]):
            finite_value = weil_local(f, p, Place(q)).value
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
    for v in [ARCH, *(Place(q) for q in sorted({2, 3, 5, 7, *support}))]:
        expected = max(abs_at(c, v) for c in p.coords) ** d / abs_at(val, v)
        got = weil_local(f, p, v).value
        assert type(got) is Fraction and got == expected
        if v == ARCH or v.prime in support:
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
    assert weil_subscheme([f0, f1], p, Place(2)).value == 1  # min(2, 1)
    assert weil_subscheme([f0], p, ARCH).value == weil_local(f0, p, ARCH).value


def test_strict_transform_local_where_w_vanishes():
    # W = x1 vanishes at [3:0:1], so lambda_W is +infinity: the subscheme
    # value is lambda_D and the strict transform is 1 at every place
    f_d, f_w = parse_poly("x0+x2", 3), parse_poly("x1", 3)
    p = ProjPoint.normalize([3, 0, 1])
    for v in (ARCH, Place(2), Place(3)):
        assert strict_transform_local(f_d, f_w, p, v) == (1, weil_local(f_d, p, v).value)
    with pytest.raises(ValueError, match="point on support"):
        weil_subscheme([f_w, parse_poly("x1^2", 3)], p, ARCH)
    with pytest.raises(ValueError, match="homogeneous"):
        weil_subscheme([f_d, parse_poly("x1^2+x1", 3)], p, ARCH)


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
        for v in (ARCH, Place(2), Place(3), Place(5)):
            big = weil_subscheme(fs, p, v).value
            small = weil_subscheme(fs[:2], p, v).value
            assert big <= small


def test_proximity_counting_examples():
    f = parse_poly("x0", 2)
    p = ProjPoint.normalize([2, 3])
    dec = proximity_counting(f, p, make_place_set())
    assert (dec.proximity, dec.counting, dec.total) == (Fraction(3, 2), 2, 3)
    dec_all = proximity_counting(f, p, make_place_set([2, 3]))
    assert dec_all.counting == 1
    f2 = parse_poly("x0*x1", 2)
    dec2 = proximity_counting(f2, p, make_place_set())
    assert dec2.total == 9 == height(p) ** 2


def test_theoremkey_reflexive():
    f = parse_poly("x0+x1", 3)
    p = ProjPoint.normalize([2, 1, 1])
    assert theoremkey_condition(p, [f, f], make_place_set(), mode="i")
    assert theoremkey_condition(p, [f, f], make_place_set(), mode="ii")


def test_theoremkey_sample_against_valuation_oracle():
    # D_0 = [x0+x1 = 0], D_1 = [x0 = 0], P = [2:1:1], S = {inf}
    g0 = parse_poly("x0+x1", 3)
    f1 = parse_poly("x0", 3)
    p = ProjPoint.normalize([2, 1, 1])
    # oracle: condition at each prime is v_p(F_1) <= v_p(G) (degrees 1, gamma 0)
    v0, v1 = g0.evaluate(p.coords), f1.evaluate(p.coords)  # 3, 2
    oracle = all(vp(v1, q) <= vp(v0, q) for q in (2, 3))
    assert oracle is False
    assert theoremkey_condition(p, [g0, f1], make_place_set(), mode="i") is False


def test_theoremkey_gamma_override():
    g0 = parse_poly("x0+x1", 3)
    f1 = parse_poly("x0", 3)
    p = ProjPoint.normalize([2, 1, 1])
    gamma = MkConstant.from_map({Place(2): Fraction(2)})
    assert theoremkey_condition(p, [g0, f1], make_place_set(), gamma, mode="i")
    assert gamma.at(Place(7)) == 1


def test_theoremkey_mode_i_requires_dominating_degrees():
    quad = parse_poly("x0^2+x1*x2", 3)
    lin = parse_poly("x0", 3)
    p = ProjPoint.normalize([2, 1, 1])
    with pytest.raises(ValueError):
        theoremkey_condition(p, [quad, lin], make_place_set(), mode="i")
    # mode ii has no such hypothesis
    theoremkey_condition(p, [quad, lin], make_place_set(), mode="ii")


def test_blowup_integrality_equivalence():
    # (D, W) blow-up data: strict-transform value is 1 at every place off S
    # iff lambda_D <= lambda_W there; both sides computed independently.
    rng = random.Random(43)
    f_d = parse_poly("x0", 3)
    f_w = parse_poly("x1", 3)
    s = make_place_set()
    for _ in range(80):
        coords = [rng.randint(-30, 30) or 1, rng.randint(-30, 30) or 2,
                  rng.randint(-30, 30) or 3]
        p = ProjPoint.normalize(coords)
        if f_d.evaluate(p.coords) == 0 or f_w.evaluate(p.coords) == 0:
            continue
        primes = support_primes([f_d.evaluate(p.coords), f_w.evaluate(p.coords)])
        off_s = [Place(q) for q in primes]
        lhs = all(strict_transform_local(f_d, f_w, p, v)[0] == 1 for v in off_s)
        rhs = all(weil_local(f_d, p, v).value <= weil_local(f_w, p, v).value
                  for v in off_s)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the closed S-split against the per-place products of weil_local
# ---------------------------------------------------------------------------

S_CHOICES = [(), (2,), (2, 3), (5, 7)]


def _proximity_counting_per_place(f, p, s):
    """The oracle: m_S the product of weil_local over S (which holds ARCH),
    N_S the product over the support off S, and their product."""
    val = f.evaluate(p.coords)
    support = support_primes([val, *[c for c in p.coords if c != 0]])
    m = prod(weil_local(f, p, v).value for v in s)
    n = prod((weil_local(f, p, Place(q)).value for q in support if Place(q) not in s),
             start=Fraction(1))
    return m, n, m * n, support


@settings(max_examples=200, deadline=None)
@given(integer_forms(), st.lists(COORD, min_size=3, max_size=3), st.sampled_from(S_CHOICES))
def test_proximity_counting_matches_weil_local_per_place(f, coords, s_primes):
    assume(any(coords))
    p = ProjPoint.normalize(coords)
    assume(f.evaluate(p.coords) != 0)
    s = make_place_set(s_primes)
    dec = proximity_counting(f, p, s)
    assert (dec.proximity, dec.counting, dec.total, dec.support) == \
        _proximity_counting_per_place(f, p, s)
    assert dec.total == height(p) ** f.total_degree()


def _theoremkey_per_place(p, forms, s, gamma, mode):
    """The oracle: the per-prime comparison with every local value taken
    from weil_local, one call per form and prime."""
    degrees = [f.total_degree() for f in forms]
    d0, big = degrees[0], lcm(*degrees)
    values = [f.evaluate(p.coords) for f in forms]
    primes = set(support_primes(values + [c for c in p.coords if c != 0]))
    primes.update(v.prime for v in gamma.support() if v.is_finite)
    primes -= {v.prime for v in s if v.is_finite}
    for q in sorted(primes):
        g = gamma.at(Place(q))
        vals = [weil_local(f, p, Place(q)).value for f in forms]
        if mode == "i":
            if any(vals[i] ** d0 > vals[0] ** degrees[i] * g ** (d0 * degrees[i])
                   for i in range(1, len(forms))):
                return False
        elif prod(vals[i] ** (big // degrees[i]) for i in range(1, len(forms))) > \
                vals[0] ** (big // d0) * g ** big:
            return False
    return True


GAMMAS = st.dictionaries(st.sampled_from([ARCH, Place(2), Place(3), Place(5), Place(7)]),
                         st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(2),
                                          Fraction(3), Fraction(9, 2)]), max_size=3)


@settings(max_examples=200, deadline=None)
# at 2 the values are 1 and 4 = gamma^(d0*d1): both modes hold with no room
@example([parse_poly("x0", 3), parse_poly("x1^2", 3)], [1, 2, 1], (), {Place(2): Fraction(2)}, "i")
@example([parse_poly("x0", 3), parse_poly("x1^2", 3)], [1, 2, 1], (), {Place(2): Fraction(2)}, "ii")
@given(st.lists(integer_forms(), min_size=2, max_size=4),
       # small coordinates give values with few primes, where the condition can hold
       st.lists(st.one_of(st.integers(-12, 12), st.integers(-10 ** 4, 10 ** 4)),
                min_size=3, max_size=3),
       st.sampled_from(S_CHOICES), GAMMAS, st.sampled_from(["i", "ii"]))
def test_theoremkey_matches_weil_local_per_prime(forms, coords, s_primes, gamma, mode):
    assume(any(coords))
    p = ProjPoint.normalize(coords)
    assume(all(f.evaluate(p.coords) != 0 for f in forms))
    degrees = [f.total_degree() for f in forms]
    assume(mode == "ii" or min(degrees[1:]) >= degrees[0])
    s, gamma = make_place_set(s_primes), MkConstant.from_map(gamma)
    assert theoremkey_condition(p, forms, s, gamma, mode) == \
        _theoremkey_per_place(p, forms, s, gamma, mode)


@pytest.mark.parametrize("coords", [[1, 1, 0], [2, 2, 1]])
@pytest.mark.parametrize("first", [True, False])
def test_theoremkey_refuses_rational_coefficients_at_every_point(coords, first):
    # 1/2*x0 + 1/2*x1 is 1 at [1:1:0], where no prime is checked at all
    half, x0 = parse_poly("1/2*x0+1/2*x1", 3), parse_poly("x0", 3)
    forms = [half, x0] if first else [x0, half]
    for mode in ("i", "ii"):
        with pytest.raises(ValueError, match="integer coefficients"):
            theoremkey_condition(ProjPoint.normalize(coords), forms, make_place_set(), mode=mode)
