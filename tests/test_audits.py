from fractions import Fraction
from itertools import combinations
from math import lcm, prod

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import betachow.audits
from betachow.audits import iter_sample_points, levin_duke_rows, subspace_rows
from betachow.heights import (
    ProjPoint,
    SRing,
    height,
    support_primes,
    weil_local,
)
from betachow.linalg import rank
from betachow.poly import MultiPoly, hyperplanes_general_position, monomial_exponents, parse_poly
from betachow.primes import FactorizationBoundError

COORD = [parse_poly(t, 3) for t in ("x0", "x1", "x2")]
FOUR = [parse_poly(t, 3) for t in ("x0", "x1", "x2", "x0+x1+x2")]


def _rows(audit, *args, **kwargs):
    """The audit's blocks of rows flattened into one list."""
    return [row for block in audit(*args, **kwargs) for row in block]


def _violators(rows):
    return [r for r in rows if r.get("verdict") is False]


def independent_subsets(forms):
    """The oracle's subsets: every index subset whose linear forms are
    linearly independent, including the empty set."""
    vectors = [list(f.linear_coefficients()) for f in forms]
    out = [()]
    for size in range(1, min(len(forms), forms[0].nvars) + 1):
        for subset in combinations(range(len(forms)), size):
            if rank([vectors[i] for i in subset]) == size:
                out.append(subset)
    return out


def _name(v):
    """A place's key in a row: 'inf' for the Archimedean place (None),
    else the prime."""
    return "inf" if v is None else str(v)


def _subspace_row_by_subsets(forms, s, eps, p):
    """The oracle row: weil_local at each place, the max over every
    independent subset, and the defect against every size-n subset, in
    Fractions.  Returns (lhs, verdict, per_place, defect, defect_by_place)."""
    n = forms[0].nvars - 1
    subsets = independent_subsets(forms)
    s_places = [None, *s.primes]
    support = [q for q in support_primes([*(f.evaluate(p.coords) for f in forms), *p.coords])
               if q not in s.primes]
    local = {v: [weil_local(f, p, v) for f in forms]
             for v in s_places + support}
    per_place = {_name(v): max(prod(local[v][i] for i in subset) for subset in subsets)
                 for v in s_places}
    lhs = prod(per_place.values())
    verdict = lhs ** eps.denominator <= \
        Fraction(height(p)) ** ((n + 1) * eps.denominator + eps.numerator)
    defect, defect_by_place = Fraction(1), {}
    if len(forms) >= n:
        for v, vals in local.items():
            d = prod(vals) / max(prod(c) for c in combinations(vals, n))
            if d != 1:
                defect_by_place[_name(v)] = str(d)
            defect *= d
    return lhs, verdict, {k: str(b) for k, b in per_place.items()}, defect, defect_by_place


def test_sample_points_deterministic():
    a = list(iter_sample_points(2, 100, 20, seed=5))
    b = list(iter_sample_points(2, 100, 20, seed=5))
    assert a == b
    assert all(1 <= max(abs(c) for c in p.coords) <= 100 for p in a)
    assert list(iter_sample_points(2, 100, 5, seed=6)) != a[:5]


@pytest.mark.parametrize("bound", [0, -2])
def test_sample_points_refuses_a_height_bound_below_one(bound):
    with pytest.raises(ValueError, match="height bound must be >= 1"):
        list(iter_sample_points(2, bound, 3, seed=1))


def test_independent_subsets():
    subs = independent_subsets(COORD)
    # empty set, 3 singletons, 3 pairs, 1 triple
    assert len(subs) == 8
    concurrent = [parse_poly(t, 3) for t in ("x0", "x1", "x0+x1")]
    subs2 = independent_subsets(concurrent)
    assert (0, 1, 2) not in subs2


def test_subspace_audit_exact_row():
    p = ProjPoint.normalize([1, 2, 3])
    rows = _rows(subspace_rows, COORD, SRing(), Fraction(1, 2), [p])
    row = rows[0]
    # best independent subset at infinity: all three forms, value 3^3/(1*2*3)
    assert row["lhs"] == Fraction(27, 6)
    assert row["verdict"] is True
    assert not _violators(rows)


def test_subspace_audit_far_points_contribute_nothing_at_finite_places():
    p = ProjPoint.normalize([1, 2, 3])  # all coordinate values are 6-units
    rows = _rows(subspace_rows, COORD, SRing((5,)), Fraction(1, 2), [p])
    assert rows[0]["per_place"]["5"] == "1"


def test_subspace_audit_flags_support():
    p = ProjPoint.normalize([0, 1, 5])
    rows = _rows(subspace_rows, COORD, SRing(), Fraction(1, 2), [p])
    assert rows[0]["on_support"]
    assert not _violators(rows)


def test_subspace_audit_rejects_degenerate_arrangement():
    with pytest.raises(ValueError, match="non-general-position"):
        _rows(subspace_rows, [parse_poly(t, 3) for t in ("x0", "x1", "x0+x1")],
              SRing(), Fraction(1, 2), [ProjPoint.normalize([1, 2, 3])])


def test_defect_zero_at_finite_places_for_coprime_points():
    pts = list(iter_sample_points(2, 500, 60, seed=11))
    rows = _rows(subspace_rows, FOUR, SRing(), Fraction(1, 2), pts)
    for row in rows:
        if row["on_support"]:
            continue
        for place, val in row["defect_by_place"].items():
            if place != "inf":
                assert Fraction(val) == 1


def test_levin_duke_vacuous_for_coordinate_arrangement():
    # q = n+1 makes the target coefficient negative: everything passes
    pts = list(iter_sample_points(2, 10 ** 4, 50, seed=13))
    rows = _rows(levin_duke_rows, COORD, SRing(), Fraction(1, 2), pts)
    assert not _violators(rows)
    assert all(r["on_support"] or r["verdict"] for r in rows)


def test_levin_duke_enlarged_s_passes():
    # with S covering the whole support, m = h and the sum is q*h
    pts = [ProjPoint.normalize([2, 3, 5]), ProjPoint.normalize([4, 9, 1])]
    rows = _rows(levin_duke_rows, FOUR + [parse_poly("x0+2*x1+3*x2", 3)],
                 SRing((2, 3, 5, 7, 11, 13)), Fraction(1, 2), pts)
    assert all(r["verdict"] for r in rows if not r["on_support"])


def test_worker_sharding_matches_serial():
    pts = list(iter_sample_points(2, 200, 24, seed=17))
    serial = _rows(subspace_rows, FOUR, SRing(), Fraction(1, 2), pts, workers=1)
    parallel = _rows(subspace_rows, FOUR, SRing(), Fraction(1, 2), pts, workers=3)
    assert [(r["index"], r.get("lhs"), r.get("verdict"), r.get("defect")) for r in serial] == \
        [(r["index"], r.get("lhs"), r.get("verdict"), r.get("defect")) for r in parallel]


def test_audit_rows_match_weil_local():
    """The audits' integer local values against public weil_local, place by place."""
    s = SRing((2, 3))
    places = [None, 2, 3]
    pts = list(iter_sample_points(2, 10 ** 4, 40, seed=23))
    sub = _rows(subspace_rows, FOUR, s, Fraction(1, 2), pts)
    subsets = independent_subsets(FOUR)
    for row in sub:
        p = row["point"]
        if row["on_support"]:
            assert any(f.evaluate(p.coords) == 0 for f in FOUR)
            continue
        for v in places:
            vals = [weil_local(f, p, v) for f in FOUR]
            best = max(prod(vals[i] for i in subset) for subset in subsets)
            assert row["per_place"][_name(v)] == str(best)
        support = support_primes([*(f.evaluate(p.coords) for f in FOUR), *p.coords])
        defect = Fraction(1)
        for v in places + [q for q in support if q not in (2, 3)]:
            vals = [weil_local(f, p, v) for f in FOUR]
            defect *= prod(vals) / max(prod(c) for c in combinations(vals, 2))
        assert row["defect"] == defect

    mixed = [parse_poly(t, 3) for t in ("x0^2+x1^2+x0*x2", "x1", "x2", "x0+x1+x2")]
    ld = _rows(levin_duke_rows, mixed, s, Fraction(1, 2), pts, assert_general_position=True)
    for row in ld:
        if row["on_support"]:
            continue
        for i, f in enumerate(mixed):
            m_i = prod(weil_local(f, row["point"], v) for v in places)
            assert row["per_place"][f"m{i + 1}"] == str(m_i)


@pytest.mark.parametrize("audit", [subspace_rows, levin_duke_rows])
def test_audits_reject_rational_coefficients_before_any_row(audit):
    forms = [parse_poly(t, 3) for t in ("x0", "x1", "x2", "1/2*x0+x1+x2")]
    # a point on x0 = 0 is on the support, so no row ever computes a value
    # the forms are checked on the call, before any block is taken
    with pytest.raises(ValueError, match=r"form 1/2\*x0 \+ x1 \+ x2 needs integer coefficients"):
        audit(forms, SRing(), Fraction(1, 2), [ProjPoint.normalize([0, 1, 1])])


# ---------------------------------------------------------------------------
# Levin-Duke rows against the per-place row
# ---------------------------------------------------------------------------

@st.composite
def _forms(draw):
    """A linear or quadratic form in x0, x1, x2 with integer coefficients."""
    mons = monomial_exponents(3, draw(st.sampled_from([1, 2])), homogeneous=True)
    coeffs = draw(st.lists(st.integers(-30, 30), min_size=len(mons), max_size=len(mons)))
    f = MultiPoly(3, dict(zip(mons, coeffs)))
    assume(not f.is_zero())
    return f


def _levin_duke_per_place(forms, s, eps, p):
    """The oracle: each m_i the product of weil_local over S, lhs the product
    of the m_i^(lcm/d_i), and the cross-powered verdict in Fractions."""
    degrees = [f.total_degree() for f in forms]
    big, q, n = lcm(*degrees), len(forms), forms[0].nvars - 1
    m = [prod(weil_local(f, p, v) for v in (None, *s.primes)) for f in forms]
    lhs = prod(m_i ** (big // d) for m_i, d in zip(m, degrees))
    den, num = eps.denominator, eps.numerator
    verdict = lhs ** den > Fraction(height(p)) ** ((q - n - 1) * big * den - big * num)
    return lhs, {f"m{i + 1}": str(m_i) for i, m_i in enumerate(m)}, verdict


@settings(max_examples=120, deadline=None)
@given(st.lists(_forms(), min_size=3, max_size=5),
       st.sampled_from([(), (2,), (2, 3), (5, 7)]),
       # -10 makes the row's exponent k negative, 10 the oracle's
       st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(7, 3), Fraction(10), Fraction(-10)]),
       st.sampled_from([10, 10 ** 3, 10 ** 6, 10 ** 12]), st.integers(0, 10 ** 6))
def test_levin_duke_rows_match_per_place_row(forms, s_primes, eps, height_bound, seed):
    if all(f.total_degree() == 1 for f in forms):
        assume(hyperplanes_general_position(forms))
    s = SRing(s_primes)
    points = list(iter_sample_points(2, height_bound, 6, seed))
    rows = _rows(levin_duke_rows, forms, s, eps, points, assert_general_position=True)
    for row in rows:
        if row["on_support"]:
            assert any(f.evaluate(row["point"].coords) == 0 for f in forms)
            continue
        assert (row["lhs"], row["per_place"], row["verdict"]) == \
            _levin_duke_per_place(forms, s, eps, row["point"])


# ---------------------------------------------------------------------------
# closed-form subspace rows against the enumeration of independent subsets
# ---------------------------------------------------------------------------

@st.composite
def _arrangements(draw):
    """3-6 integer lines in P^2 or 4-6 planes in P^3, in general position."""
    nvars = draw(st.sampled_from([3, 4]))
    count = draw(st.integers(nvars, 6))
    forms = []
    for _ in range(count):
        coeffs = draw(st.lists(st.integers(-12, 12), min_size=nvars, max_size=nvars))
        assume(any(coeffs))
        forms.append(MultiPoly(nvars, {tuple(int(i == j) for j in range(nvars)): c
                                       for i, c in enumerate(coeffs) if c}))
    assume(hyperplanes_general_position(forms))
    return forms


@settings(max_examples=120, deadline=None)
@given(_arrangements(), st.sampled_from([(), (2,), (2, 3), (5, 7)]),
       # -10 makes the exponent (n+1)+eps of h negative
       st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(7, 3), Fraction(-3),
                        Fraction(-10)]),
       st.sampled_from([10, 10 ** 3, 10 ** 6, 10 ** 12]), st.integers(0, 10 ** 6))
def test_subspace_rows_match_subset_enumeration(forms, s_primes, eps, height_bound, seed):
    s = SRing(s_primes)
    points = list(iter_sample_points(forms[0].nvars - 1, height_bound, 6, seed))
    rows = _rows(subspace_rows, forms, s, eps, points)
    for row in rows:
        if row["on_support"]:
            assert any(f.evaluate(row["point"].coords) == 0 for f in forms)
            continue
        assert (row["lhs"], row["verdict"], row["per_place"], row["defect"],
                row["defect_by_place"]) == _subspace_row_by_subsets(forms, s, eps, row["point"])


# ---------------------------------------------------------------------------
# finite defect places from the maximal minors
# ---------------------------------------------------------------------------

FIVE = [parse_poly(t, 3) for t in ("x0", "x1", "x2", "x0+2*x1+3*x2", "5*x0-7*x1+11*x2")]


def _maximal_minors(forms):
    """|det| of every (n+1)-subset of the coefficient vectors, by sympy."""
    vectors = [[int(c) for c in f.linear_coefficients()] for f in forms]
    return [abs(int(sympy.Matrix(subset).det()))
            for subset in combinations(vectors, forms[0].nvars)]


def test_subspace_defect_at_a_minor_prime():
    forms = [parse_poly(t, 3) for t in ("x0", "x1", "x2", "x0+x1+2*x2")]
    assert sorted(_maximal_minors(forms)) == [1, 1, 1, 2]
    s, eps = SRing(), Fraction(1, 2)
    p = ProjPoint.normalize([2, 4, 1])
    row = _rows(subspace_rows, forms, s, eps, [p])[0]
    # F(P) = 2, 4, 1, 8: at 2 the q-n = 2 smallest values are 1 and 2
    assert row["defect_by_place"]["2"] == "2"
    assert (row["lhs"], row["verdict"], row["per_place"], row["defect"],
            row["defect_by_place"]) == _subspace_row_by_subsets(forms, s, eps, p)


def test_subspace_audit_factors_only_maximal_minors(count_factor_calls):
    seen = count_factor_calls()
    points = list(iter_sample_points(2, 10 ** 12, 30, seed=3))
    rows = _rows(subspace_rows, FIVE, SRing((2,)), Fraction(1, 2), points)
    assert len(rows) == 30
    assert seen == _maximal_minors(FIVE)


@pytest.mark.parametrize("s_primes", [(), (2,), (7,)])
def test_subspace_rows_past_the_factorization_bound(s_primes):
    """At height 10^41 the values pass 2^128 and the oracle cannot factor
    them; the Archimedean and S values, and the defect at every minor
    prime, still match weil_local, and no other place carries a defect."""
    s, eps = SRing(s_primes), Fraction(1, 2)
    minor_primes = {q for d in _maximal_minors(FIVE) for q in sympy.factorint(d)}
    places = [None, *s.primes] + \
        [q for q in sorted(minor_primes) if q not in s_primes]
    subsets = independent_subsets(FIVE)
    points = list(iter_sample_points(2, 10 ** 41, 25, seed=5))
    assert any(abs(f.evaluate(p.coords)) > 2 ** 128 for p in points for f in FIVE)
    for row in _rows(subspace_rows, FIVE, s, eps, points):
        if row["on_support"]:
            continue
        defect = Fraction(1)
        for v in places:
            vals = [weil_local(f, row["point"], v) for f in FIVE]
            if v is None or v in s.primes:
                best = max(prod(vals[i] for i in subset) for subset in subsets)
                assert row["per_place"][_name(v)] == str(best)
            d = prod(vals) / max(prod(c) for c in combinations(vals, 2))
            assert row["defect_by_place"].get(_name(v), "1") == str(d)
            defect *= d
        assert row["defect"] == defect


def test_a_minor_past_the_factorization_bound_stops_before_any_row(monkeypatch):
    forms = [parse_poly(t, 3) for t in ("x0", "x1", "x2", f"x0+{3 ** 90}*x1+x2")]
    assert max(_maximal_minors(forms)) == 3 ** 90 > 2 ** 128
    monkeypatch.setattr(betachow.audits, "_subspace_row",
                        lambda *args: pytest.fail("a row was built"))
    with pytest.raises(FactorizationBoundError, match="factorization bound exceeded"):
        _rows(subspace_rows, forms, SRing(), Fraction(1, 2),
              list(iter_sample_points(2, 10, 3, seed=1)))


def test_levin_duke_rows_build_one_fraction_each(count_fractions):
    points = list(iter_sample_points(2, 10 ** 12, 20, seed=7))
    forms = FIVE + [parse_poly("x0^2+x1*x2", 3)]
    eps = Fraction(1, 2)
    built = count_fractions()
    _rows(levin_duke_rows, forms, SRing((2, 3)), eps, [], assert_general_position=True)
    setup = len(built)
    rows = _rows(levin_duke_rows, forms, SRing((2, 3)), eps, points,
                 assert_general_position=True)
    # past the per-audit setup, only each row's lhs: no m_i is a Fraction
    assert len(built) == 2 * setup + len(points)
    for row in rows:
        assert (row["lhs"], row["per_place"], row["verdict"]) == \
            _levin_duke_per_place(forms, SRing((2, 3)), eps, row["point"])
