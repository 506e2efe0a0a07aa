import json
import random
from fractions import Fraction
from itertools import combinations, product
from functools import partial
from math import gcd, lcm, prod

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import betachow.search
from betachow.heights import ProjPoint, make_place_set, support_primes, theoremkey_condition
from betachow.linalg import kernel_basis
from betachow.poly import (
    MultiPoly,
    _int_evaluator,
    hyperplanes_general_position,
    monomial_exponents,
    parse_poly,
)
from betachow.primes import vp
from betachow.search import (
    Search,
    SearchBox,
    SolutionSet,
    SRing,
    _cor12_spec,
    _thm11_spec,
    _thm16_spec,
    _thm16_verdicts,
    _walk,
    _witness_map,
    run_search,
    degeneracy_report,
    _primitive_form,
    _rational_roots,
    linear_factors_2var,
    load_solution_set,
    search_spec,
    solution_set_text,
    vanishing_forms,
)

S_EMPTY = SRing(())


def test_sring_validation():
    with pytest.raises(ValueError):
        SRing((4,))
    with pytest.raises(ValueError):
        SRing((3, 2))
    assert SRing((2, 3)).contains(Fraction(5, 12))
    assert not SRing((2,)).contains(Fraction(1, 3))


@pytest.mark.parametrize("primes, part", [((), -360), ((2,), -45), ((2, 3), -5)])
def test_strip_s_part_refuses_zero(primes, part):
    # 0 is divisible by every prime, so stripping it would never end
    s = SRing(primes)
    with pytest.raises(ValueError, match="no non-S part"):
        s.strip_s_part(0)
    assert s.strip_s_part(-360) == part


def divides_in_OS(a: Fraction | int, b: Fraction | int, s: SRing) -> bool:
    """The oracle: whether a divides b in the ring of S-integers, v_p(b) >=
    v_p(a) for every prime p outside S, equivalently b/a is an S-integer."""
    if a == 0:
        raise ValueError("division by zero in the S-integer ring")
    if not s.contains(a) or not s.contains(b):
        raise ValueError("inputs outside the ring of S-integers")
    # both denominators are S-units, so b/a is an S-integer exactly when the
    # non-S part of a's numerator divides b's numerator
    return b.numerator % s.strip_s_part(abs(a.numerator)) == 0


def test_divides_examples():
    assert divides_in_OS(6, 12, S_EMPTY)
    assert divides_in_OS(4, 6, SRing((2,)))
    assert not divides_in_OS(4, 6, S_EMPTY)
    assert divides_in_OS(5, 0, S_EMPTY)
    with pytest.raises(ValueError):
        divides_in_OS(0, 3, S_EMPTY)
    with pytest.raises(ValueError):
        divides_in_OS(Fraction(1, 3), 1, SRing((2,)))


def test_divides_transitive():
    rng = random.Random(19)
    s = SRing((2, 5))
    for _ in range(300):
        a = Fraction(rng.randint(1, 50), 2 ** rng.randint(0, 3))
        b = a * rng.randint(1, 20) / Fraction(5) ** rng.randint(0, 2)
        c = b * rng.randint(1, 20)
        if divides_in_OS(a, b, s) and divides_in_OS(b, c, s):
            assert divides_in_OS(a, c, s)


S_INTEGER_RINGS = [S_EMPTY, SRing((2,)), SRing((2, 3))]


@st.composite
def _s_integers(draw, s: SRing, nonzero: bool = False):
    num = draw(st.integers(-60, 60).filter(lambda k: k != 0 or not nonzero))
    return Fraction(num, prod(p ** draw(st.integers(0, 3)) for p in s.primes))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(S_INTEGER_RINGS), st.integers(-10 ** 6, 10 ** 6).filter(bool),
       st.integers(0, 40), st.integers(0, 40))
def test_is_unit_matches_strip_s_part(s, k, e2, e3):
    # k times a large power of 2 and 3, as common denominators make them
    n = k * 2 ** e2 * 3 ** e3
    assert s.is_unit(n) == (abs(s.strip_s_part(n)) == 1)


@st.composite
def _divisibility_cases(draw):
    s = draw(st.sampled_from(S_INTEGER_RINGS))
    a = draw(_s_integers(s, nonzero=True))
    # b is a multiple of a often enough to exercise both answers
    b = draw(st.one_of(_s_integers(s), _s_integers(s).map(lambda k: k * a)))
    as_int = draw(st.booleans())
    return s, *((x.numerator if as_int and x.denominator == 1 else x) for x in (a, b))


@settings(max_examples=300, deadline=None)
@given(_divisibility_cases())
def test_divides_in_OS_matches_quotient(case):
    s, a, b = case
    assert divides_in_OS(a, b, s) == (s.strip_s_part((Fraction(b) / a).denominator) == 1)


def test_box_values():
    assert SearchBox(2, 2).coordinate_values(S_EMPTY) == [-2, -1, 0, 1, 2]
    vals = SearchBox(1, 2, denom_cap=1).coordinate_values(SRing((2,)))
    assert Fraction(1, 2) in vals and Fraction(3, 2) not in vals  # |num| <= 2
    assert Fraction(-1, 2) in vals
    assert sorted(vals) == vals


def test_cor12_frozen_solution_set():
    g = parse_poly("1", 2)
    sols = run_search(_cor12_spec(g, SearchBox(2, 100), S_EMPTY))
    assert sols.points == [(-1, 1), (1, -1), (1, 1)]
    # (-1,-1) excluded: the product is 3, which does not divide 1
    assert (Fraction(-1), Fraction(-1)) not in sols.points


def test_points_keep_integral_coordinates_as_ints(tmp_path):
    sols = run_search(_cor12_spec(parse_poly("1", 2), SearchBox(2, 6, 2), SRing((2,))))
    path = tmp_path / "c.jsonl"
    path.write_text(solution_set_text(sols))
    for points in (sols.points, load_solution_set(str(path)).points):
        assert points == sols.points
        assert any(type(c) is Fraction for pt in points for c in pt)
        assert all(type(c) is (int if c.denominator == 1 else Fraction)
                   for pt in points for c in pt)


@pytest.mark.parametrize("reverify", [True, False])
@pytest.mark.parametrize("coordinate", ["1/0", None, "1/1", "-0"])
def test_load_refuses_coordinates_that_are_not_canonical_text(tmp_path, reverify, coordinate):
    sols = run_search(_cor12_spec(parse_poly("1", 2), SearchBox(2, 6), S_EMPTY))
    lines = solution_set_text(sols).splitlines()
    rec = json.loads(lines[-1])
    rec["point"][0] = coordinate
    lines[-1] = json.dumps(rec, sort_keys=True)
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="is not canonical"):
        load_solution_set(str(path), reverify=reverify)


def test_cor12_empty_box():
    g = parse_poly("1", 2)
    assert run_search(_cor12_spec(g, SearchBox(2, 0), S_EMPTY)).points == []


def test_cor12_degenerate_g_rejected():
    with pytest.raises(ValueError, match="degenerate g"):
        _cor12_spec(parse_poly("x0", 2), SearchBox(2, 2), S_EMPTY)
    with pytest.raises(ValueError, match="degenerate g"):
        _cor12_spec(parse_poly("1-x0", 2), SearchBox(2, 2), S_EMPTY)
    with pytest.raises(ValueError):
        _cor12_spec(parse_poly("x0^2", 2), SearchBox(2, 2), S_EMPTY)


def test_cor12_monotone_in_s():
    g = parse_poly("x0+1", 2)
    base = run_search(_cor12_spec(g, SearchBox(2, 8), S_EMPTY))
    bigger = run_search(_cor12_spec(g, SearchBox(2, 8), SRing((2,))))
    assert set(base.points) <= set(bigger.points)


def test_cor12_workers_match_serial():
    g = parse_poly("1", 2)
    serial = run_search(_cor12_spec(g, SearchBox(2, 40), S_EMPTY), 1)
    parallel = run_search(_cor12_spec(g, SearchBox(2, 40), S_EMPTY), 3)
    assert serial.points == parallel.points


def test_cor12_witnesses_record_valuations():
    g = parse_poly("1", 2)
    sols = run_search(_cor12_spec(g, SearchBox(2, 3), SRing((3,))))
    for pt, wit in zip(sols.points, sols.witnesses):
        for prime in wit:
            assert int(prime) not in (3,)


def test_thm11_unit_coordinate_solutions():
    # coordinate forms against the constant G = 1 force unit coordinates
    forms = [parse_poly(t, 3) for t in ("x0", "x1", "x2")]
    g_form = parse_poly("1", 3)
    sols = run_search(_thm11_spec(forms, g_form, "i", SearchBox(2, 2), S_EMPTY, False))
    pts = {tuple(int(c) for c in p) for p in sols.points}
    assert pts == {(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)}


def test_thm11_empty_box():
    forms = [parse_poly(t, 3) for t in ("x0", "x1", "x2")]
    g_form = parse_poly("x0+x1+x2", 3)
    assert run_search(_thm11_spec(forms, g_form, "i", SearchBox(2, 0), S_EMPTY, False)).points == []


def test_thm11_mode_ii_solutions_reverify():
    forms = [parse_poly(t, 3) for t in ("x0", "x1", "x2", "x0+x1+x2")]
    g_form = parse_poly("x0+2*x1+4*x2", 3)
    sols = run_search(_thm11_spec(forms, g_form, "ii", SearchBox(2, 4), S_EMPTY, False))
    assert sols.count > 0
    for pt in sols.points:
        prod = Fraction(1)
        for f in forms:
            prod *= f.evaluate(pt)
        assert divides_in_OS(prod, g_form.evaluate(pt), S_EMPTY)


def test_thm11_degree_validation():
    with pytest.raises(ValueError, match="degree hypothesis"):
        _thm11_spec([parse_poly("x0", 3), parse_poly("x1^2", 3)],
                    parse_poly("x0", 3), "i", SearchBox(2, 1), S_EMPTY, False)
    with pytest.raises(ValueError, match="degree hypothesis"):
        _thm11_spec([parse_poly("x0", 3)], parse_poly("x0^2", 3), "i",
                    SearchBox(2, 1), S_EMPTY, False)
    with pytest.raises(ValueError, match="general position"):
        _thm11_spec([parse_poly(t, 3) for t in ("x0", "x1", "x0+x1")],
                    parse_poly("x2", 3), "i", SearchBox(2, 1), S_EMPTY, False)
    with pytest.raises(ValueError, match="asserted"):
        _thm11_spec([parse_poly("x0^2+x1^2", 3), parse_poly("x1^2+x2^2", 3)],
                    parse_poly("x0^2", 3), "i", SearchBox(2, 1), S_EMPTY, False)


def test_thm11_divisibility_implies_key_condition():
    forms = [parse_poly(f"x0+{i}*x1+{i * i}*x2", 3) for i in range(1, 6)]
    g_form = parse_poly("x0", 3)
    sols = run_search(_thm11_spec(forms, g_form, "i", SearchBox(2, 12), S_EMPTY, False))
    assert sols.count > 0
    for pt in sols.points:
        p = ProjPoint(tuple(int(c) for c in pt))
        assert theoremkey_condition(p, [g_form, *forms], make_place_set(), mode="i")


def ideal_window_sides(form_vps, n, coord_min_vp=0):
    """The oracle's single-prime window arithmetic: given the valuations of
    the q form values at one prime, the two sides at each index i of

      v(F_i(x)) + min_j v(x_j)  =  sum_{j=i-n+1..i} min_t v(F_{j+t}(x)),

    with all indices cyclic mod q and t running over 0..n-1."""
    q = len(form_vps)
    lhs, rhs = [], []
    for i in range(q):
        lhs.append(form_vps[i] + coord_min_vp)
        total = 0
        for j in range(i - n + 1, i + 1):
            total += min(form_vps[(j + t) % q] for t in range(n))
        rhs.append(total)
    return lhs, rhs


def _thm16_by_primes(coords, values, n, s):
    """The oracle: the per-index verdicts of the window equality, prime by
    prime over the factored support of the values and coordinates outside S."""
    per_index = [True] * len(values)
    for p in support_primes([*values, *coords]):
        if p in s.primes:
            continue
        form_vps = [vp(v, p) for v in values]
        coord_min = min(vp(c, p) for c in coords if c != 0)
        lhs, rhs = ideal_window_sides(form_vps, n, coord_min)
        for i in range(len(values)):
            if lhs[i] != rhs[i]:
                per_index[i] = False
    return per_index


def test_ideal_window_sides_synthetic():
    # hand table: v(F_1..F_4) = (1,0,0,0), n = 2, coprime coordinates
    lhs, rhs = ideal_window_sides([1, 0, 0, 0], 2)
    assert lhs == [1, 0, 0, 0]
    assert rhs == [0, 0, 0, 0]  # every window min vanishes
    # balanced table where the equality holds at every index
    lhs2, rhs2 = ideal_window_sides([0, 0, 0, 0, 0, 0], 2)
    assert lhs2 == rhs2


def test_ideal_equality_all_units():
    forms = [parse_poly(f"x0+{i}*x1+{i * i}*x2", 3) for i in range(1, 7)]
    values = _thm16_spec(forms, SearchBox(2, 1), S_EMPTY).check((1, 0, 0))
    assert values == [1] * 6                # every form value is 1
    assert all(_thm16_verdicts(values, 2, S_EMPTY))


def test_ideal_equality_failing_point():
    forms = [parse_poly(f"x0+{i}*x1+{i * i}*x2", 3) for i in range(1, 7)]
    # at [1:2:1] the form values are (i+1)^2, with 2-adic valuations
    # (2, 0, 4, 0, 2, 0): the window sums cannot reach the lhs at index 1
    p = ProjPoint.normalize([1, 2, 1])
    values = [f.evaluate(p.coords) for f in forms]
    vals2 = [vp(v, 2) for v in values]
    assert vals2 == [2, 0, 4, 0, 2, 0]
    lhs, rhs = ideal_window_sides(vals2, 2)
    assert lhs[0] == 2 and rhs[0] == 0  # hand check of the first window
    assert _thm16_spec(forms, SearchBox(2, 2), S_EMPTY).check(p.coords) is None
    assert not list(_thm16_verdicts(values, 2, S_EMPTY))[0]


def test_ideal_equality_validation():
    forms = [parse_poly(t, 3) for t in ("x0", "x1", "x2")]
    with pytest.raises(ValueError, match="3n"):
        _thm16_spec(forms, SearchBox(2, 1), S_EMPTY)
    six = [parse_poly(f"x0+{i}*x1+{i * i}*x2", 3) for i in range(1, 7)]
    # [0:1:-1] lies on the first hyperplane, x0 + x1 + x2 = 0
    assert _thm16_spec(six, SearchBox(2, 1), S_EMPTY).check((0, 1, -1)) is None


def test_search_thm16_runs():
    forms = [parse_poly(f"x0+{i}*x1+{i * i}*x2", 3) for i in range(1, 7)]
    search = _thm16_spec(forms, SearchBox(2, 2), S_EMPTY)
    sols = run_search(search)
    assert (1, 0, 0) in sols.points
    for pt in sols.points:
        values = search.check(pt)
        assert values is not None
        assert all(_thm16_by_primes(pt, values, 2, S_EMPTY))


def _forms_of_rows(rows) -> list:
    return [MultiPoly(len(row), {tuple(int(k == m) for m in range(len(row))): c
                                 for k, c in enumerate(row)}) for row in rows]


@st.composite
def _thm16_cases(draw):
    """Lines in general position in P^2 (q = 6..8) or planes in P^3
    (q = 9, 10), with int or Fraction coefficients; a ring S; and points:
    random ones, and ones where every form of a window is divisible by a
    prime p, x = K + p^k y for K in the window's kernel, so that true
    indices occur at primes outside S too."""
    n = draw(st.sampled_from([2, 3]))
    q = draw(st.integers(6, 8) if n == 2 else st.integers(9, 10))
    denominators = draw(st.sampled_from([[1], [1, 2, 3, 5]]))
    coefficient = st.builds(Fraction, st.integers(-6, 6), st.sampled_from(denominators))
    rows = draw(st.lists(st.lists(coefficient, min_size=n + 1, max_size=n + 1),
                         min_size=q, max_size=q))
    assume(all(any(row) for row in rows))
    forms = _forms_of_rows(rows)
    assume(hyperplanes_general_position(forms))
    s = draw(st.sampled_from([S_EMPTY, SRing((2,)), SRing((2, 3)), SRing((3, 5))]))
    coords = st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1)
    points = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            points.append(draw(coords))
            continue
        j = draw(st.integers(0, q - 1))
        kernel = kernel_basis([rows[(j + t) % q] for t in range(n)])[0]
        scale = lcm(*(c.denominator for c in kernel))
        step = draw(st.sampled_from([2, 3, 5, 7, 11])) ** draw(st.integers(1, 3))
        points.append([int(c * scale) + step * y for c, y in zip(kernel, draw(coords))])
    return forms, s, points


# F(x) at [0:1:1] is 2, 1, 1, 2, 1, 4: at 2, index 0 holds (its windows
# {5, 0} and {0, 1} have minima 1 and 0), while indices 3 and 5 fail
@example((_forms_of_rows([[1, 0, 2], [-1, 1, 0], [-2, 0, 1], [-1, 2, 0], [-3, 4, -3], [0, 1, 3]]),
          S_EMPTY, [[0, 1, 1]]))
@settings(max_examples=100, deadline=None)
@given(_thm16_cases())
def test_thm16_verdicts_match_the_per_prime_oracle(case):
    forms, s, points = case
    n = forms[0].nvars - 1
    evaluators = [_int_evaluator(f) for f in forms]
    check = _thm16_spec(forms, SearchBox(n, 0), s).check
    for xs in points:
        if gcd(*xs) != 1:
            continue
        x = ProjPoint.normalize(xs)
        values = [ev(x.coords) for ev in evaluators]
        if 0 in values:
            continue
        want = _thm16_by_primes(x.coords, values, n, s)
        assert list(_thm16_verdicts(values, n, s)) == want
        # the same verdicts on the values evaluated in Fractions
        assert list(_thm16_verdicts([f.evaluate(x.coords) for f in forms], n, s)) == want
        assert (check(x.coords) is not None) == all(want)


@pytest.mark.parametrize("s", [S_EMPTY, SRing((2,)), SRing((2, 3))])
def test_thm16_check_factors_nothing(count_factor_calls, s):
    search = _thm16_spec(SIX, SearchBox(2, 4), s)
    rows = search.rows(search.box)
    seen = count_factor_calls()
    passed = [xs for xs in _walk(rows, rows.firsts) if search.check(xs) is not None]
    assert seen == []
    assert (1, 0, 0) in passed


def test_persistence_round_trip(tmp_path):
    g = parse_poly("1", 2)
    sols = run_search(_cor12_spec(g, SearchBox(2, 30), SRing((2,))))
    path = tmp_path / "sols.jsonl"
    path.write_text(solution_set_text(sols))
    loaded = load_solution_set(str(path))
    assert loaded.points == sols.points
    assert loaded.witnesses == sols.witnesses
    # corrupt a point: the loader must refuse it
    lines = path.read_text().splitlines()
    lines.append(lines[-1].replace('"1"', '"2"'))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="fails its predicate"):
        load_solution_set(str(bad))


def test_vanishing_forms_examples():
    pts = [(1, 1), (1, -1), (-1, 1)]
    assert vanishing_forms(pts, 1) == []
    assert len(vanishing_forms(pts, 2)) == 3
    # few points always lie on a curve of degree d when the monomial count wins
    assert len(vanishing_forms(pts[:2], 1)) == 1
    collinear = [(0, 0), (1, 1), (2, 2)]
    basis = vanishing_forms(collinear, 1)
    assert len(basis) == 1
    assert all(basis[0].evaluate(p) == 0 for p in collinear)


def test_linear_factors():
    f = parse_poly("x0^2-1", 2)
    facs = sorted(str(t) for t in linear_factors_2var(f))
    assert facs == ["x0 + 1", "x0 - 1"]
    assert linear_factors_2var(parse_poly("x0^2+x1^2-1", 2)) == []
    sq = linear_factors_2var(parse_poly("x0^2-2*x0*x1+x1^2", 2))
    assert len(sq) == 2 and sq[0].divide_by_linear(sq[1]) is not None


def test_linear_factor_candidates_are_taken_once_per_form(monkeypatch):
    calls = []
    real = betachow.search._linear_factor_candidates
    monkeypatch.setattr(betachow.search, "_linear_factor_candidates",
                        lambda f: calls.append(str(f)) or real(f))
    f = prod((parse_poly(t, 2) for t in ("x0 - 1", "x0 - 1", "x0 + x1", "2*x0 - x1 + 3",
                                         "x0^2 + x1^2 + 1")), start=MultiPoly.constant(1, 2))
    got = sorted(str(lf) for lf in linear_factors_2var(f))
    assert got == ["2*x0 - x1 + 3", "x0 + x1", "x0 - 1", "x0 - 1"]
    assert calls == [str(f)]
    # the degeneracy report splits each kernel form once: four points on
    # two lines leave two conics, each factored from one candidate list
    calls.clear()
    rep = degeneracy_report([(0, 0), (1, 0), (0, 1), (0, 2)], 2)
    assert len(calls) == rep["kernel_dims"]["2"] == 2


def test_degeneracy_report_examples():
    pts = [(1, 1), (1, -1), (-1, 1)]
    rep = degeneracy_report(pts, 2)
    assert rep["kernel_dims"] == {"1": 0, "2": 3}
    assert all(rep["splits_linearly"]["2"])
    empty = degeneracy_report([], 2)
    assert empty == {"n_points": 0, "kernel_dims": {}, "kernel_forms": {},
                     "splits_linearly": {}, "line_components": []}
    collinear = degeneracy_report([(0, 0), (1, 1), (2, 2)], 1)
    assert collinear["kernel_dims"]["1"] == 1
    assert collinear["line_components"][0] == {"line": "x0 - x1", "count": 3}
    # vertical lines come out primitive too: x0 = 1/2 is 2*x0 - 1
    halves = degeneracy_report([(Fraction(1, 2), 0), (Fraction(1, 2), 1)], 1)
    assert halves["line_components"] == [{"line": "2*x0 - 1", "count": 2}]


SIX = [parse_poly(f"x0+{i}*x1+{i * i}*x2", 3) for i in range(1, 7)]


def _counting_general_position(monkeypatch):
    import betachow.search
    calls = []
    real = betachow.search.hyperplanes_general_position

    def counted(forms):
        calls.append(len(forms))
        return real(forms)

    monkeypatch.setattr(betachow.search, "hyperplanes_general_position", counted)
    return calls


def test_thm16_hypotheses_checked_once_per_search_and_per_file(tmp_path, monkeypatch):
    calls = _counting_general_position(monkeypatch)
    sols = run_search(_thm16_spec(SIX, SearchBox(2, 3), S_EMPTY))
    assert sols.count >= 1 and calls == [6]
    path = tmp_path / "t.jsonl"
    path.write_text(solution_set_text(sols))
    assert load_solution_set(str(path)).points == sols.points
    assert calls == [6, 6]


def test_search_thm16_rejects_bad_hypotheses_up_front():
    with pytest.raises(ValueError, match="general position"):
        _thm16_spec([parse_poly(t, 3) for t in
                     ("x0", "x1", "x2", "x0+x1", "x0+x1+x2", "x1+x2")],
                    SearchBox(2, 2), S_EMPTY)
    with pytest.raises(ValueError, match="3n"):
        _thm16_spec([parse_poly(t, 3) for t in ("x0", "x1", "x2", "x0+x1+x2")],
                    SearchBox(2, 2), S_EMPTY)


@pytest.mark.parametrize("bad_point, message", [
    (["1", "2", "1"], "fails its predicate"),      # window equality fails at 2
    (["2", "0", "0"], "not normalized"),           # [1:0:0] passes, scaled
    (["1", "0"], "not a point of the search box"),            # too few coordinates
    (["1", "0", "0", "5"], "not a point of the search box"),  # too many
    (["9", "-7", "1"], "not a point of the search box"),      # a box-12 solution
    (["1/2", "0", "0"], "not a point of the search box"),     # not an integer
])
def test_thm16_reverify_rejects_tampered_point(tmp_path, bad_point, message):
    sols = run_search(_thm16_spec(SIX, SearchBox(2, 2), S_EMPTY))
    path = tmp_path / "t.jsonl"
    path.write_text(solution_set_text(sols))
    lines = path.read_text().splitlines()
    rec = json.loads(lines[-1])
    rec["point"] = bad_point
    lines[-1] = json.dumps(rec, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        load_solution_set(str(path))
    assert load_solution_set(str(path), reverify=False).count == sols.count


def test_cor12_reverify_rejects_tampered_point(tmp_path):
    for g_text, box, s, bad_point, message in [
        # (-1)(-1)(1 + 2) = 3 does not divide 1
        ("1", SearchBox(2, 6, 2), SRing((2,)), ["-1", "-1"], "fails its predicate"),
        # 1*1*1*(1 - 3) = -2 divides g = 2, but the box has two coordinates
        ("2", SearchBox(2, 3), S_EMPTY, ["1", "1", "1"], "not a point of the search box"),
        # 8*(-8)*1 and (1/8)(-1/8)*1 are S-units, but beyond the bound and the cap
        ("1", SearchBox(2, 6, 2), SRing((2,)), ["8", "-8"], "not a point of the search box"),
        ("1", SearchBox(2, 6, 2), SRing((2,)), ["1/8", "-1/8"], "not a point of the search box"),
        ("1", SearchBox(2, 6, 2), SRing((2,)), ["1/3", "-1/3"], "not a point of the search box"),
    ]:
        sols = run_search(_cor12_spec(parse_poly(g_text, 2), box, s))
        path = tmp_path / "c.jsonl"
        path.write_text(solution_set_text(sols))
        lines = path.read_text().splitlines()
        rec = json.loads(lines[-1])
        rec["point"] = bad_point
        lines[-1] = json.dumps(rec, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            load_solution_set(str(path))


def _edit_witnesses(wit: dict, key: str, vps) -> dict:
    """wit with key's list set to vps, or key dropped when vps is None."""
    out = {k: v for k, v in wit.items() if k != key}
    return out if vps is None else {**out, key: vps}


# the stored record of (1/2, -5/2) for g = 3 - x0 + x1, S = {2}: values
# 1, -5, 6, -30 and 0 up to S-units
WIT = {"3": [0, 0, 1, 1, None], "5": [0, 1, 0, 1, None]}
TAMPERED_WITNESSES = [
    {"7": [1]},                                             # a fabricated map
    [],                                                     # not a map
    _edit_witnesses(WIT, "5", None),                        # -5 and -30 keep the prime 5
    _edit_witnesses(WIT, "3", [0, 0, 2, 1, None]),          # a wrong valuation
    _edit_witnesses(WIT, "3", [0, 0, True, 1, None]),       # not an int
    _edit_witnesses(WIT, "3", [0, 0, 1, 1, 0]),             # a zero value with a valuation
    _edit_witnesses(WIT, "3", [None, 0, 1, 1, None]),       # None at a nonzero value
    _edit_witnesses(WIT, "3", [0, 0, 1, 1]),                # one valuation short
    _edit_witnesses(WIT, "2", [0, 0, 1, 1, None]),          # a prime of S
    _edit_witnesses(WIT, "7", [0, 0, 0, 0, None]),          # a prime dividing no value
    _edit_witnesses(WIT, "9", [0, 0, 2, 2, None]),          # not a prime
    {"03": WIT["3"], "5": WIT["5"]},                        # not the canonical key
]


@pytest.mark.parametrize("witnesses", TAMPERED_WITNESSES)
def test_reverify_rejects_tampered_witnesses(tmp_path, witnesses):
    sols = run_search(_cor12_spec(parse_poly("3 - x0 + x1", 2), SearchBox(2, 6, 1), SRing((2,))))
    path = tmp_path / "c.jsonl"
    path.write_text(solution_set_text(sols))
    header, *records = [json.loads(line) for line in path.read_text().splitlines()]
    i = next(k for k, rec in enumerate(records) if rec["point"] == ["1/2", "-5/2"])
    assert records[i]["witnesses"] == WIT
    assert load_solution_set(str(path)).witnesses == sols.witnesses
    records[i]["witnesses"] = witnesses
    path.write_text("".join(json.dumps(rec, sort_keys=True) + "\n"
                            for rec in [header, *records]))
    with pytest.raises(ValueError, match=r"stored point \['1/2', '-5/2'\] has witnesses "
                                         "that differ from its predicate"):
        load_solution_set(str(path))
    assert load_solution_set(str(path), reverify=False).witnesses[i] == witnesses


@pytest.mark.parametrize("search", [
    lambda: run_search(_cor12_spec(parse_poly("3 - x0 + x1", 2), SearchBox(2, 6, 1), SRing((2,)))),
    lambda: run_search(_thm16_spec(SIX, SearchBox(2, 5), SRing((2, 3)))),
    lambda: run_search(_thm11_spec([parse_poly(t, 3) for t in ("x0", "x1", "x2", "x0 + x1 + x2")],
                                   parse_poly("1/2*x0 - 3*x1 + 5*x2", 3), "ii", SearchBox(2, 5),
                                   SRing((2,)), False)),
    # forms with coefficients 1/2 and 3/2: the check scales them by S-units
    lambda: run_search(_thm11_spec([parse_poly(t, 3) for t in ("1/2*x0 + x1", "x1 - 3/2*x2", "x2",
                                                               "x0 + x1 + x2")],
                                   parse_poly("x0 + 3*x1 + 5*x2", 3), "ii", SearchBox(2, 6),
                                   SRing((2,)), False)),
])
def test_reverify_tests_each_witness_key_for_primality_once(tmp_path, monkeypatch, search):
    sols = search()
    keys = {k for wit in sols.witnesses for k in wit}
    assert sols.count > 1 and keys
    path = tmp_path / "w.jsonl"
    path.write_text(solution_set_text(sols))
    calls = []
    real = betachow.search.is_prime
    monkeypatch.setattr(betachow.search, "is_prime", lambda p: calls.append(p) or real(p))
    loaded = load_solution_set(str(path))
    assert loaded.witnesses == sols.witnesses
    # SRing checks the primes of S itself
    s_primes = sols.descriptor["s_primes"]
    assert sorted(p for p in calls if p not in s_primes) == sorted(int(k) for k in keys)


@pytest.mark.parametrize("edit", [
    {"projective": False},                  # would re-verify [-2:0:0] as an affine point
    {"forms": [str(f) for f in SIX[:5]] + ["x0 + 6*x1 + 36*x2 + 0"]},
    {"mode": "i"},
])
def test_reverify_rejects_a_non_canonical_descriptor(tmp_path, edit):
    sols = run_search(_thm16_spec(SIX, SearchBox(2, 2), S_EMPTY))
    path = tmp_path / "t.jsonl"
    path.write_text(solution_set_text(sols))
    header, *records = [json.loads(line) for line in path.read_text().splitlines()]
    header["descriptor"] |= edit
    records.append({**records[-1], "point": ["-2", "0", "0"]})
    path.write_text("".join(json.dumps(rec, sort_keys=True) + "\n"
                            for rec in [header, *records]))
    with pytest.raises(ValueError, match="differs from its canonical form"):
        load_solution_set(str(path))


DESCRIPTORS = {
    "cor12": _cor12_spec(parse_poly("3 - x0 + x1", 2), SearchBox(2, 2), S_EMPTY).descriptor,
    "thm11": _thm11_spec(SIX[:5], parse_poly("x0", 3), "i", SearchBox(2, 2), S_EMPTY,
                         False).descriptor,
    "thm16": _thm16_spec(SIX, SearchBox(2, 2), S_EMPTY).descriptor,
}


@pytest.mark.parametrize("kind, key", [
    *((kind, key) for kind in DESCRIPTORS
      for key in ("kind", "dim", "bound", "denom_cap", "s_primes")),
    ("cor12", "g"), ("thm11", "forms"), ("thm16", "forms"),
    ("thm11", "mode"), ("thm11", "assert_general_position"),
])
def test_search_spec_names_a_missing_descriptor_key(kind, key):
    descriptor = dict(DESCRIPTORS[kind])
    assert search_spec(descriptor).descriptor == descriptor
    del descriptor[key]
    with pytest.raises(ValueError, match=f"search descriptor lacks '{key}'"):
        search_spec(descriptor)


# with reverify, a descriptor without "projective" is not canonical
@pytest.mark.parametrize("key, reverify", [("descriptor", True), ("descriptor", False),
                                           ("projective", False)])
def test_load_names_a_missing_header_key(tmp_path, key, reverify):
    sols = run_search(_thm16_spec(SIX, SearchBox(2, 2), S_EMPTY))
    header, *records = solution_set_text(sols).splitlines()
    header = json.loads(header)
    del (header if key == "descriptor" else header["descriptor"])[key]
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join([json.dumps(header), *records]) + "\n")
    with pytest.raises(ValueError, match=f"lacks '{key}'"):
        load_solution_set(str(path), reverify=reverify)


@pytest.mark.parametrize("edit, message", [
    (lambda header: [1], "not a solution-set file"),
    (lambda header: "solution-set", "not a solution-set file"),
    (lambda header: {**header, "descriptor": [1]}, "descriptor is not a JSON object"),
    (lambda header: {**header, "descriptor": None}, "descriptor is not a JSON object"),
])
@pytest.mark.parametrize("reverify", [True, False])
def test_load_refuses_a_header_that_is_not_an_object(tmp_path, edit, message, reverify):
    sols = run_search(_thm16_spec(SIX, SearchBox(2, 2), S_EMPTY))
    header, *records = solution_set_text(sols).splitlines()
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join([json.dumps(edit(json.loads(header))), *records]) + "\n")
    with pytest.raises(ValueError, match=message):
        load_solution_set(str(path), reverify=reverify)


@pytest.mark.parametrize("key, value", [(key, value)
                                        for key in ("dim", "bound", "denom_cap")
                                        for value in ("2", 2.0, True, None)])
def test_load_refuses_a_box_field_that_is_not_an_int(tmp_path, key, value):
    sols = run_search(_thm16_spec(SIX, SearchBox(2, 2), S_EMPTY))
    header, *records = solution_set_text(sols).splitlines()
    header = json.loads(header)
    header["descriptor"][key] = value
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join([json.dumps(header), *records]) + "\n")
    with pytest.raises(ValueError, match="must be ints"):
        load_solution_set(str(path))
    with pytest.raises(ValueError, match="must be ints"):
        SearchBox(**{"dim": 2, "bound": 2, "denom_cap": 0, key: value})


@pytest.mark.parametrize("kind, key, value, message", [
    ("cor12", "s_primes", "2", "is not a list"),
    ("cor12", "s_primes", 2, "is not a list"),
    ("thm16", "s_primes", [2.0], "list of primes"),
    ("thm16", "s_primes", [True], "list of primes"),
    ("cor12", "g", 5, "are not strings"),
    ("thm11", "g", 5, "are not strings"),
    ("thm16", "forms", [5], "are not strings"),
    ("thm11", "forms", "x0", "are not strings"),
])
def test_a_malformed_descriptor_field_is_a_value_error(tmp_path, kind, key, value, message):
    descriptor = {**DESCRIPTORS[kind], key: value}
    with pytest.raises(ValueError, match=message):
        search_spec(descriptor)
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps({"artifact": "betachow", "kind": "solution-set",
                                "descriptor": descriptor}) + "\n")
    with pytest.raises(ValueError, match=message):
        load_solution_set(str(path))


# ---------------------------------------------------------------------------
# sharded searches against serial ones
# ---------------------------------------------------------------------------

S_RINGS = st.sampled_from([S_EMPTY, SRing((2,)), SRing((2, 3))])


def _vandermonde(ts) -> list:
    """x0 + t*x1 + t^2*x2 for distinct t: hyperplanes in general position."""
    return [parse_poly(f"x0+{t}*x1+{t * t}*x2", 3) for t in ts]


@st.composite
def _searches(draw):
    """A search: a random cor12 g, or random thm11/thm16 forms; boxes with
    at least 4 parts of first coordinates, so sharded runs use a pool."""
    kind = draw(st.sampled_from(["cor12", "thm11", "thm16"]))
    s = draw(S_RINGS)
    if kind == "cor12":
        a, b = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
        c = draw(st.integers(-6, 6).filter(lambda c: c not in (0, -a, -b)))
        g = MultiPoly(2, {(1, 0): a, (0, 1): b, (0, 0): c})
        box = SearchBox(2, draw(st.integers(64, 70)), draw(st.integers(0, 1)))
        return _cor12_spec(g, box, s)
    ts = draw(st.lists(st.integers(-5, 5), min_size=7, max_size=7, unique=True))
    box = SearchBox(2, draw(st.integers(7, 9)))
    if kind == "thm16":
        return _thm16_spec(_vandermonde(ts[:draw(st.integers(6, 7))]), box, s)
    g_form = draw(st.sampled_from([parse_poly("1", 3), *_vandermonde(ts[-1:])]))
    return _thm11_spec(_vandermonde(ts[:draw(st.integers(1, 5))]), g_form,
                       draw(st.sampled_from(["i", "ii"])), box, s, False)


@settings(max_examples=12, deadline=None)
@given(_searches(), st.integers(1, 4))
def test_sharded_search_equals_serial(search, workers):
    seen = []
    real = betachow.search.sharded

    def spy(fn, items, n, size):
        seen.append((n, size))
        return real(fn, items, n, size)

    serial = run_search(search)
    # patched by hand: a function-scoped monkeypatch would span all examples
    betachow.search.sharded = spy
    try:
        sharded = run_search(search, workers)
    finally:
        betachow.search.sharded = real
    rows = search.rows(search.box)
    # one coordinate holds one row affine in dim 2, len(values) rows projective
    per_first = 1 if search.descriptor["kind"] == "cor12" else len(rows.values)
    assert seen == [(workers, max(1, 32 // per_first))]
    assert sharded.descriptor == serial.descriptor
    assert sharded.points == serial.points
    assert sharded.witnesses == serial.witnesses


def test_sharded_dim1_search_equals_serial():
    # one row, built once as a set; 91 first coordinates in 3 parts of 32
    search = _cor12_spec(parse_poly("1/2*x0 + 3", 1), SearchBox(1, 30, 1), SRing((2,)))
    assert len(search.rows(search.box).firsts) == 91
    serial = run_search(search)
    for workers in (2, 3):
        sharded = run_search(search, workers)
        assert sharded.points == serial.points
        assert sharded.witnesses == serial.witnesses
    assert len(serial.points) > 3


# ---------------------------------------------------------------------------
# exact linear factors and rational roots against sympy
# ---------------------------------------------------------------------------

X0, X1 = sympy.symbols("x0 x1")
RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=4)
# irreducible over Q, with no linear factor
QUADRATICS = ["x0^2 + x1^2 + 1", "x0^2 - 2", "x0*x1 + 1", "x0^2 + x1"]


def _to_sympy(f: MultiPoly):
    return sum(sympy.Rational(c.numerator, c.denominator) * X0 ** e[0] * X1 ** e[1]
               for e, c in f.terms.items())


def _from_sympy(expr) -> MultiPoly:
    return MultiPoly(2, {e: Fraction(int(c.p), int(c.q))
                         for e, c in sympy.Poly(expr, X0, X1).terms()})


@st.composite
def _linear_forms(draw):
    a, b = draw(RATIONALS), draw(RATIONALS)
    if a == b == 0:
        a = Fraction(1)
    return MultiPoly(2, {(1, 0): a, (0, 1): b, (0, 0): draw(RATIONALS)})


@settings(max_examples=40, deadline=None)
@given(st.lists(_linear_forms(), min_size=1, max_size=4),
       st.sampled_from([None, *QUADRATICS]), RATIONALS.filter(lambda c: c != 0))
# (2x0 - 1)^2 (x0 + 3): every factor misses x1, and one repeats
@example([MultiPoly(2, {(1, 0): 2, (0, 0): -1}), MultiPoly(2, {(1, 0): 2, (0, 0): -1}),
          MultiPoly(2, {(1, 0): 1, (0, 0): 3})], None, Fraction(1))
def test_linear_factors_match_sympy(lines, quadratic, scale):
    f = MultiPoly.constant(scale, 2)
    for factor in lines + ([parse_poly(quadratic, 2)] if quadratic else []):
        f = f * factor
    got = sorted(str(_primitive_form(lf.terms, 2)) for lf in linear_factors_2var(f))
    _, factors = sympy.factor_list(_to_sympy(f), X0, X1)
    want = sorted(str(_primitive_form(_from_sympy(fac).terms, 2))
                  for fac, mult in factors if sympy.Poly(fac, X0, X1).total_degree() == 1
                  for _ in range(mult))
    assert got == want


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(RATIONALS, RATIONALS).filter(lambda ab: ab[0] != 0),
                min_size=0, max_size=4),
       st.sampled_from([None, [1, 0, 1], [-2, 0, 1], [1, 1, 1]]),
       RATIONALS.filter(lambda c: c != 0))
@example([(Fraction(2), Fraction(-1)), (Fraction(2), Fraction(1))], None, Fraction(1))
def test_rational_roots_match_sympy(linears, quadratic, scale):
    t = sympy.symbols("t")
    poly = sympy.Rational(scale.numerator, scale.denominator)
    for a, b in linears:
        poly *= sympy.Rational(a.numerator, a.denominator) * t \
            + sympy.Rational(b.numerator, b.denominator)
    if quadratic:
        poly *= sum(c * t ** k for k, c in enumerate(quadratic))
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(poly, t).all_coeffs())]
    want = sorted(Fraction(int(r.p), int(r.q)) for r in sympy.roots(poly, t, filter="Q"))
    assert _rational_roots(coeffs) == want


def _vanishing_forms_by_powers(points, degree: int, projective: bool) -> list:
    """The oracle: each row entry a product of powers, built per monomial."""
    nvars = len(points[0])
    exps = monomial_exponents(nvars, degree, homogeneous=projective)
    rows = [[prod(Fraction(x).numerator ** k * Fraction(x).denominator ** (degree - k)
                  for x, k in zip(pt, e)) for e in exps] for pt in points]
    return [MultiPoly(nvars, dict(zip(exps, vec))) for vec in kernel_basis(rows)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
           st.tuples(*[st.one_of(st.integers(-9, 9), RATIONALS)] * n), min_size=1, max_size=12)),
       st.integers(1, 3), st.booleans())
def test_vanishing_forms_match_per_monomial_powers(points, degree, projective):
    assert vanishing_forms(points, degree, projective) == \
        _vanishing_forms_by_powers(points, degree, projective)


class _CountingPoints(list):
    """A point list that counts the points its iterator hands out."""
    pulled = 0

    def __iter__(self):
        for pt in super().__iter__():
            self.pulled += 1
            yield pt


def _growth_points() -> list:
    """The 637 points of cor12 with g = 1, S = {2, 3}, cap 2, box 10."""
    return run_search(_cor12_spec(parse_poly("1", 2), SearchBox(2, 10, 2), SRing((2, 3)))).points


def test_vanishing_forms_on_dense_sets_stop_at_full_rank(count_fractions):
    rng = random.Random(5)
    grid = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(200)]
    for points, projective in ((_growth_points(), False), (grid, True)):
        for degree in (1, 2, 3, 4):
            monomials = len(monomial_exponents(len(points[0]), degree, projective))
            counted = _CountingPoints(points)
            built = count_fractions()
            assert vanishing_forms(counted, degree, projective) == []
            assert built == []
            assert counted.pulled <= 2 * monomials


@pytest.mark.parametrize("points, degree, projective, want", [
    ([(Fraction(t, 2), t + 1) for t in range(-4, 5)], 1, False, ["2*x0 - x1 + 1"]),
    ([(Fraction(t, 2), t + 1) for t in range(-4, 5)], 2, False,
     ["2*x0 - x1 + 1", "2*x0^2 - x0*x1 + x0", "4*x0^2 - x1^2 + 4*x0 + 1"]),
    ([(x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25], 2, False,
     ["-x0^2 - x1^2 + 25"]),
    ([(x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25], 3, False,
     ["-x0^2 - x1^2 + 25", "-x0^3 - x0*x1^2 + 25*x0", "-x0^2*x1 - x1^3 + 25*x1"]),
    ([(a, b, a - 2 * b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)],
     2, True, ["x0^2 - 2*x0*x1 - x0*x2", "x0*x1 - 2*x1^2 - x1*x2",
               "x0^2 - 4*x0*x1 + 4*x1^2 - x2^2"]),
])
def test_vanishing_forms_on_degenerate_sets_use_every_point(points, degree, projective, want):
    # collinear, conic and plane sets never reach full rank, so every row is read
    counted = _CountingPoints(points)
    assert [str(f) for f in vanishing_forms(counted, degree, projective)] == want
    assert counted.pulled == len(points)


# ---------------------------------------------------------------------------
# the cor12 check against its Fraction formula
# ---------------------------------------------------------------------------

def _cor12_fraction_check(g: MultiPoly, s: SRing, xs: tuple) -> list | None:
    """The oracle: a and g(x) computed in Fractions, g by MultiPoly.evaluate."""
    xs = tuple(Fraction(c) for c in xs)
    total = sum(xs)
    a = prod(xs) * (1 - total)
    b = g.evaluate(xs)
    ok = b == 0 if a == 0 else divides_in_OS(a, b, s)
    return [*xs, 1 - total, a, b] if ok else None


@st.composite
def _cor12_check_cases(draw):
    """A cor12 g (constant g included) with integer or S-fraction
    coefficients, and an integer or S-fraction point."""
    s = draw(S_RINGS)
    n = draw(st.integers(1, 3))
    const = draw(_s_integers(s, nonzero=True))
    linear = [draw(st.one_of(st.just(Fraction(0)), _s_integers(s))) for _ in range(n)]
    assume(all(const + c != 0 for c in linear))
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    g = MultiPoly(n, dict(zip([(0,) * n, *units], [const, *linear])))
    coordinate = st.one_of(st.integers(-60, 60), _s_integers(s))
    return g, s, tuple(draw(coordinate) for _ in range(n))


@settings(max_examples=300, deadline=None)
@given(_cor12_check_cases())
@example((parse_poly("2", 2), S_EMPTY, (1, -1)))
@example((parse_poly("6", 2), SRing((2,)), (Fraction(1, 2), 2)))
# a mixed int/Fraction point: a = -8/9 is an S-unit
@example((parse_poly("5 + 1/2*x1", 2), SRing((2, 3)), (Fraction(1, 3), 2)))
# rest = 0: a = 0 = g(1/2, 1/2)
@example((parse_poly("2 - 3*x0 - x1", 2), SRing((2,)), (Fraction(1, 2), Fraction(1, 2))))
# a denominator that is not an S-unit
@example((parse_poly("6", 2), SRing((2,)), (Fraction(1, 3), 1)))
def test_cor12_check_matches_fraction_formula(case):
    g, s, xs = case
    check = _cor12_spec(g, SearchBox(g.nvars, 0), s).check
    if not all(s.contains(Fraction(c)) for c in xs):
        with pytest.raises(ValueError, match="outside the ring of S-integers"):
            check(xs)
        return
    got, want = check(xs), _cor12_fraction_check(g, s, xs)
    assert (got is None) == (want is None)
    if want is None:
        return
    assert _witness_map(got, s) == _witness_map(want, s)
    # the same values over the common denominator D of the point and the
    # common denominator c of g: x_i and 1 - sum x_i times D, a times
    # D^(n+1), g(x) times c*D
    n = len(xs)
    d = lcm(*(Fraction(x).denominator for x in xs))
    c = lcm(*(v.denominator for v in g.terms.values()))
    assert all(type(v) is int for v in got)
    assert got == [v * k for v, k in zip(want, [d] * (n + 1) + [d ** (n + 1), c * d])]


def test_cor12_check_builds_no_fractions(count_fractions):
    g = parse_poly("1/4*x0 + 3/2*x1 - 5/6", 2)
    s = SRing((2, 3))
    check = _cor12_spec(g, SearchBox(2, 0), s).check
    points = [(Fraction(1, 2), Fraction(-3, 4)), (Fraction(5, 9), 7), (Fraction(1, 6), -1)]
    wants = [_cor12_fraction_check(g, s, xs) for xs in points]
    assert any(wants) and not all(wants)
    built = count_fractions()
    gots = [check(xs) for xs in points]
    assert built == []
    assert [got is None for got in gots] == [want is None for want in wants]
    assert [_witness_map(got, s) for got in gots if got] == \
        [_witness_map(want, s) for want in wants if want]
    # the guard sees the Fractions of the oracle
    _cor12_fraction_check(g, s, points[0])
    assert built


# ---------------------------------------------------------------------------
# divisor-driven cor12 enumeration against the brute box product
# ---------------------------------------------------------------------------

def _brute_cor12(search) -> SolutionSet:
    """The oracle: every point of the box, through the same check."""
    out = SolutionSet(search.descriptor)
    for xs in product(search.box.coordinate_values(search.s), repeat=search.box.dim):
        values = search.check(xs)
        if values is not None:
            out.points.append(tuple(Fraction(c) for c in xs))
            out.witnesses.append(_witness_map(values, search.s))
    out.sort()
    return out


def _assert_matches_brute(g: MultiPoly, box: SearchBox, s: SRing, workers: int = 1):
    search = _cor12_spec(g, box, s)
    got = run_search(search, workers)
    want = _brute_cor12(search)
    assert got.points == want.points
    assert got.witnesses == want.witnesses
    return got


@st.composite
def _cor12_cases(draw, rings=(*S_INTEGER_RINGS, SRing((5,)))):
    """A cor12 g satisfying the hypotheses, with integer or S-fraction
    coefficients, an S from rings, and a box of at most 3000 points."""
    s = draw(st.sampled_from(rings))
    n = draw(st.integers(1, 3))
    dens = [1]
    if draw(st.booleans()):
        dens = [prod(ps) for k in range(len(s.primes) + 1)
                for ps in combinations(s.primes, k)]
    coeffs = [Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from(dens)))
              for _ in range(n + 1)]
    assume(coeffs[0] != 0 and all(coeffs[0] + c != 0 for c in coeffs[1:]))
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    g = MultiPoly(n, dict(zip([(0,) * n, *units], coeffs)))
    cap = draw(st.integers(0, 2))
    fits = [b for b in range(13)
            if len(SearchBox(n, b, cap).coordinate_values(s)) ** n <= 3000]
    return g, SearchBox(n, draw(st.integers(0, max(fits))), cap), s


@settings(max_examples=60, deadline=None)
@given(_cor12_cases(), st.integers(1, 2))
def test_cor12_enumeration_matches_brute_product(case, workers):
    _assert_matches_brute(*case, workers=workers)


@settings(max_examples=40, deadline=None)
@given(_cor12_cases([SRing((2,)), SRing((2, 3))]), st.integers(1, 2))
def test_cor12_search_matches_fraction_check_search(case, workers):
    # the same enumeration and driver, with the Fraction formula as the check
    g, box, s = case
    search = _cor12_spec(g, box, s)
    got = run_search(search, workers)
    want = run_search(Search(search.descriptor, search.box, search.s,
                             partial(_cor12_fraction_check, g, s), search.rows), workers)
    assert got.points == want.points
    assert got.witnesses == want.witnesses


@pytest.mark.parametrize("g_text, box, s", [
    ("3 - x0 + x1", SearchBox(2, 6), S_EMPTY),
    ("3 - x0 + x1", SearchBox(2, 4, 1), SRing((2, 3))),
    ("x0 + 6", SearchBox(1, 40), S_EMPTY),
    ("1/2*x0 + 3", SearchBox(1, 20, 2), SRing((2,))),
    ("1 + x0 - 2*x1 + x2", SearchBox(3, 4), S_EMPTY),
    # g(x', 0) beyond the row factoring bound: every row taken whole
    (f"{10 ** 20 + 1} + x0 + x1", SearchBox(2, 5), S_EMPTY),
    # coefficient denominators 2 and 3: the rows need c*g with c = 6
    ("1/2*x0 + x1 + 1/3", SearchBox(2, 6, 1), SRing((2, 3))),
])
def test_cor12_enumeration_explicit_cases(g_text, box, s):
    sols = _assert_matches_brute(parse_poly(g_text, box.dim), box, s)
    if g_text == "3 - x0 + x1":
        # g(3, 0) = 0: only the full row x0 = 3 holds (3, 0), where a = 0 = g
        assert (Fraction(3), Fraction(0)) in sols.points


def test_cor12_candidates_visit_divisors_only():
    g = parse_poly("1", 2)
    search = _cor12_spec(g, SearchBox(2, 50), S_EMPTY)
    # g(x', 0) = 1 on every row: the last coordinate is a unit
    assert sorted(_walk(search.rows(search.box), range(-50, 51))) == \
        [(x0, t) for x0 in range(-50, 51) for t in (-1, 1)]
    search = _cor12_spec(parse_poly("3 - x0 + x1", 2), SearchBox(2, 5), S_EMPTY)
    rows = {x0: sorted(t for _, t in _walk(search.rows(search.box), [x0])) for x0 in (0, 2, 3)}
    assert rows == {0: [-3, -1, 1, 3], 2: [-1, 1], 3: list(range(-5, 6))}


# ---------------------------------------------------------------------------
# divisor-driven thm11 enumeration against the brute projective box
# ---------------------------------------------------------------------------

def _brute_projective(search) -> SolutionSet:
    """The oracle: every coprime tuple of the box whose first nonzero
    coordinate is positive, through the same check."""
    bound = search.box.bound
    out = SolutionSet(search.descriptor)
    for xs in product(range(-bound, bound + 1), repeat=search.box.dim + 1):
        if gcd(*xs) != 1 or next(c for c in xs if c != 0) < 0:
            continue
        values = search.check(xs)
        if values is not None:
            out.points.append(tuple(Fraction(c) for c in xs))
            out.witnesses.append(_witness_map(values, search.s))
    out.sort()
    return out


def _assert_projective_matches_brute(search, workers: int = 1) -> SolutionSet:
    got = run_search(search, workers)
    want = _brute_projective(search)
    assert got.points == want.points
    assert got.witnesses == want.witnesses
    return got


@st.composite
def _thm11_cases(draw, rings=S_RINGS):
    """thm11 forms satisfying the hypotheses, with integer or S-fraction
    coefficients: linear forms of which none, some or all miss the last
    coordinate, or quadratic forms under asserted general position; a
    constant or linear G; an S drawn from rings; a box of at most 6000
    tuples."""
    s = draw(rings)
    n = draw(st.integers(1, 3))
    ncoords = n + 1
    coeff = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, *s.primes]))
    quadratic = draw(st.integers(0, 4)) == 0
    if quadratic:
        exps = monomial_exponents(ncoords, 2, homogeneous=True)
        forms = [MultiPoly(ncoords, {e: draw(coeff) for e in exps})
                 for _ in range(draw(st.integers(1, 3)))]
    else:
        count = draw(st.integers(1, 2 * n + 1))
        # at most n forms can miss the last coordinate in general position
        missing = draw(st.integers(0, min(n, count)))
        forms = [MultiPoly(ncoords, {tuple(int(i == j) for j in range(ncoords)): draw(coeff)
                                     for i in range(ncoords - (k < missing))})
                 for k in range(count)]
    if draw(st.booleans()):
        g_form = MultiPoly.constant(draw(coeff.filter(lambda c: c != 0)), ncoords)
    else:
        g_form = MultiPoly(ncoords, {tuple(int(i == j) for j in range(ncoords)): draw(coeff)
                                     for i in range(ncoords)})
    bound = draw(st.integers(0, {1: 38, 2: 8, 3: 4}[n]))
    try:
        spec = _thm11_spec(forms, g_form, draw(st.sampled_from(["i", "ii"])),
                           SearchBox(n, bound), s, assert_general_position=quadratic)
    except ValueError:
        assume(False)
    return spec


@settings(max_examples=80, deadline=None)
@given(_thm11_cases(), st.integers(1, 2))
def test_thm11_enumeration_matches_brute_box(spec, workers):
    _assert_projective_matches_brute(spec, workers)


def _thm11_fraction_check(forms: list, g_form: MultiPoly, mode: str, s: SRing,
                          xs: tuple) -> list | None:
    """The oracle: the forms unscaled, evaluated by MultiPoly.evaluate, and
    the divisibility tested by divides_in_OS."""
    gval = g_form.evaluate(xs)
    if gval == 0:
        return None
    fvals = [f.evaluate(xs) for f in forms]
    if any(v == 0 for v in fvals):
        return None
    if mode == "i":
        ok = all(divides_in_OS(v, gval, s) for v in fvals)
    else:
        ok = divides_in_OS(prod(fvals), gval, s)
    return [*fvals, gval] if ok else None


@settings(max_examples=40, deadline=None)
@given(_thm11_cases(st.sampled_from([SRing((2,)), SRing((2, 3))])), st.integers(1, 2))
@example(_thm11_spec([parse_poly(t, 3) for t in ("1/2*x0 + x1", "x1 - 3/2*x2", "x2")],
                     parse_poly("x0 + 1/3*x1 + 5*x2", 3), "i", SearchBox(2, 6),
                     SRing((2, 3)), False), 2)
@example(_thm11_spec([parse_poly(t, 3) for t in ("1/2*x0 + x1", "x1 - 3/2*x2", "x2",
                                                 "x0 + x1 + x2")],
                     parse_poly("x0 + 3*x1 + 5*x2", 3), "ii", SearchBox(2, 6), SRing((2,)),
                     False), 1)
def test_thm11_search_matches_fraction_check_search(search, workers):
    # the same enumeration and driver, with the unscaled Fraction formula as
    # the check
    d = search.descriptor
    forms = [parse_poly(t, d["dim"] + 1) for t in d["forms"]]
    oracle = partial(_thm11_fraction_check, forms, parse_poly(d["g"], d["dim"] + 1), d["mode"],
                     search.s)
    got = run_search(search, workers)
    want = run_search(Search(search.descriptor, search.box, search.s, oracle, search.rows),
                      workers)
    assert got.points == want.points
    assert got.witnesses == want.witnesses


BENCH_FORMS = ["-2*x0 - x1 - x2", "x0 + 2*x1 - x2", "-x0 - 2*x1 - 2*x2", "2*x0 - 2*x2",
               "-x0 + x1"]


@pytest.mark.parametrize("forms, g_text, mode, bound, s", [
    # the seed-1 search-scan forms: S-units up to max |F| must be listed in
    # ascending order before the cut, or points such as (4, 1, 5) are lost
    (BENCH_FORMS, "-x0 + 2*x1 - 15*x2", "ii", 25, SRing((2, 3))),
    # G = x0: H(x') = x0 vanishes on the rows x0 = 0, which are taken whole
    (["x0+x1+x2", "x0+2*x1+4*x2", "x0+3*x1+9*x2"], "x0", "i", 10, S_EMPTY),
    # H(x') beyond the row factoring bound: every row taken whole
    (["x2", "x0+x1+x2"], f"{10 ** 20}*x0 + x1 + x2", "i", 4, S_EMPTY),
    # every form misses the last coordinate: the full scan
    (["x0", "x1"], "x0 + x1 + x2", "i", 8, SRing((2,))),
])
def test_thm11_enumeration_explicit_cases(forms, g_text, mode, bound, s):
    sols = _assert_projective_matches_brute(_thm11_spec(
        [parse_poly(f, 3) for f in forms], parse_poly(g_text, 3), mode, SearchBox(2, bound), s,
        False))
    if forms is BENCH_FORMS:
        assert sols.count == 547
        assert (4, 1, 5) in sols.points


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=7, max_size=7, unique=True), st.integers(6, 7),
       S_RINGS, st.integers(0, 4), st.integers(1, 2))
def test_thm16_enumeration_matches_brute_box(ts, q, s, bound, workers):
    spec = _thm16_spec(_vandermonde(ts[:q]), SearchBox(2, bound), s)
    _assert_projective_matches_brute(spec, workers)


def test_thm11_enumeration_checks_few_candidates():
    # criterion 7's five lines with G = x0 at B = 50: the brute scan checks
    # 427 393 points; the divisor-driven one checks fewer than 50 000
    forms = [parse_poly(f"x0+{i}*x1+{i * i}*x2", 3) for i in range(1, 6)]
    g_form = parse_poly("x0", 3)
    box = SearchBox(2, 50)
    search = _thm11_spec(forms, g_form, "i", box, S_EMPTY, False)
    calls = []

    def counting(xs):
        calls.append(xs)
        return search.check(xs)

    sols = run_search(Search(search.descriptor, search.box, search.s, counting, search.rows),
                      workers=1)
    assert len(calls) < 50_000
    assert len(set(calls)) == len(calls)
    assert sols.points == run_search(_thm11_spec(forms, g_form, "i", box, S_EMPTY, False)).points
    assert sols.count == 15                     # the brute scan's count
