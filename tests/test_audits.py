from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from betachow.audits import (
    independent_subsets,
    levin_duke_audit,
    sample_points,
    subspace_audit,
)
from betachow.heights import ARCH, Place, ProjPoint, make_place_set, support_primes, weil_local
from betachow.poly import parse_poly

COORD = [parse_poly(t, 3) for t in ("x0", "x1", "x2")]
FOUR = [parse_poly(t, 3) for t in ("x0", "x1", "x2", "x0+x1+x2")]


def test_sample_points_deterministic():
    a = sample_points(2, 100, 20, seed=5)
    b = sample_points(2, 100, 20, seed=5)
    assert a == b
    assert all(1 <= max(abs(c) for c in p.coords) <= 100 for p in a)
    assert sample_points(2, 100, 5, seed=6) != a[:5]


def test_independent_subsets():
    subs = independent_subsets(COORD)
    # empty set, 3 singletons, 3 pairs, 1 triple
    assert len(subs) == 8
    concurrent = [parse_poly(t, 3) for t in ("x0", "x1", "x0+x1")]
    subs2 = independent_subsets(concurrent)
    assert (0, 1, 2) not in subs2


def test_subspace_audit_exact_row():
    p = ProjPoint.normalize([1, 2, 3])
    report = subspace_audit(COORD, make_place_set(), Fraction(1, 2), [p])
    row = report.rows[0]
    # best independent subset at infinity: all three forms, value 3^3/(1*2*3)
    assert row.lhs == Fraction(27, 6)
    assert row.verdict is True
    assert not report.violators


def test_subspace_audit_far_points_contribute_nothing_at_finite_places():
    p = ProjPoint.normalize([1, 2, 3])  # all coordinate values are 6-units
    report = subspace_audit(COORD, make_place_set([5]), Fraction(1, 2), [p])
    assert report.rows[0].per_place["5"] == "1"


def test_subspace_audit_flags_support():
    p = ProjPoint.normalize([0, 1, 5])
    report = subspace_audit(COORD, make_place_set(), Fraction(1, 2), [p])
    assert report.rows[0].on_support
    assert not report.violators


def test_subspace_audit_rejects_degenerate_arrangement():
    with pytest.raises(ValueError, match="non-general-position"):
        subspace_audit([parse_poly(t, 3) for t in ("x0", "x1", "x0+x1")],
                       make_place_set(), Fraction(1, 2),
                       [ProjPoint.normalize([1, 2, 3])])


def test_defect_zero_at_finite_places_for_coprime_points():
    pts = sample_points(2, 500, 60, seed=11)
    report = subspace_audit(FOUR, make_place_set(), Fraction(1, 2), pts)
    for row in report.rows:
        if row.on_support:
            continue
        for place, val in row.defect_by_place.items():
            if place != "inf":
                assert Fraction(val) == 1


def test_levin_duke_vacuous_for_coordinate_arrangement():
    # q = n+1 makes the target coefficient negative: everything passes
    pts = sample_points(2, 10 ** 4, 50, seed=13)
    report = levin_duke_audit(COORD, make_place_set(), Fraction(1, 2), pts)
    assert not report.violators
    assert all(r.on_support or r.verdict for r in report.rows)


def test_levin_duke_enlarged_s_passes():
    # with S covering the whole support, m = h and the sum is q*h
    pts = [ProjPoint.normalize([2, 3, 5]), ProjPoint.normalize([4, 9, 1])]
    report = levin_duke_audit(FOUR + [parse_poly("x0+2*x1+3*x2", 3)],
                              make_place_set([2, 3, 5, 7, 11, 13]),
                              Fraction(1, 2), pts)
    assert all(r.verdict for r in report.rows if not r.on_support)


def test_worker_sharding_matches_serial():
    pts = sample_points(2, 200, 24, seed=17)
    serial = subspace_audit(FOUR, make_place_set(), Fraction(1, 2), pts, workers=1)
    parallel = subspace_audit(FOUR, make_place_set(), Fraction(1, 2), pts, workers=3)
    assert [(r.index, r.lhs, r.verdict, r.defect) for r in serial.rows] == \
        [(r.index, r.lhs, r.verdict, r.defect) for r in parallel.rows]


def test_audit_rows_match_weil_local():
    """The audits' integer local values against public weil_local, place by place."""
    s = make_place_set([2, 3])
    places = [ARCH, Place(2), Place(3)]
    pts = sample_points(2, 10 ** 4, 40, seed=23)
    sub = subspace_audit(FOUR, s, Fraction(1, 2), pts)
    subsets = independent_subsets(FOUR)
    for row in sub.rows:
        p = row.point
        if row.on_support:
            assert any(f.evaluate(p.coords) == 0 for f in FOUR)
            continue
        for v in places:
            vals = [weil_local(f, p, v).value for f in FOUR]
            best = max(prod(vals[i] for i in subset) for subset in subsets)
            assert row.per_place[str(v)] == str(best)
        support = support_primes([*(f.evaluate(p.coords) for f in FOUR), *p.coords])
        defect = Fraction(1)
        for v in places + [Place(q) for q in support if q not in (2, 3)]:
            vals = [weil_local(f, p, v).value for f in FOUR]
            defect *= prod(vals) / max(prod(c) for c in combinations(vals, 2))
        assert row.defect == defect

    mixed = [parse_poly(t, 3) for t in ("x0^2+x1^2+x0*x2", "x1", "x2", "x0+x1+x2")]
    ld = levin_duke_audit(mixed, s, Fraction(1, 2), pts, assert_general_position=True)
    for row in ld.rows:
        if row.on_support:
            continue
        for i, f in enumerate(mixed):
            m_i = prod(weil_local(f, row.point, v).value for v in places)
            assert row.per_place[f"m{i + 1}"] == str(m_i)


@pytest.mark.parametrize("audit", [subspace_audit, levin_duke_audit])
def test_audits_reject_rational_coefficients_before_any_row(audit):
    forms = [parse_poly(t, 3) for t in ("x0", "x1", "x2", "1/2*x0+x1+x2")]
    # a point on x0 = 0 is on the support, so no row ever computes a value
    with pytest.raises(ValueError, match="weil_local needs integer coefficients"):
        audit(forms, make_place_set(), Fraction(1, 2), [ProjPoint.normalize([0, 1, 1])])
