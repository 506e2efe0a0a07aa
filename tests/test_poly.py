import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betachow.linalg import rref
from betachow.poly import (
    MultiPoly,
    _int_evaluator,
    hyperplanes_general_position,
    monomial_exponents,
    parse_poly,
)


def rand_poly(rng, nvars, max_deg=3, terms=4):
    out = MultiPoly.zero(nvars)
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        out = out + MultiPoly(nvars, {exps: Fraction(rng.randint(-5, 5), rng.randint(1, 4))})
    return out


def test_eval_examples():
    f = parse_poly("x0+x1", 2)
    assert f.evaluate([1, 2]) == 3
    g = parse_poly("x0^2*x1", 2)
    assert g.evaluate([2, Fraction(1, 2)]) == 2
    h = parse_poly("1-x1-x2", 3)
    assert h.evaluate([0, 1, 1]) == -1


def test_int_evaluator_matches_evaluate():
    rng = random.Random(41)
    for _ in range(200):
        nvars = rng.randint(1, 4)
        f = MultiPoly(nvars, {
            tuple(rng.randint(0, 3) for _ in range(nvars)): rng.randint(-9, 9)
            for _ in range(rng.randint(1, 4))})
        lin = MultiPoly(nvars, {tuple(int(j == i) for j in range(nvars)): rng.randint(-9, 9)
                                for i in range(nvars)})
        xs = tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(nvars))
        for g in (f, lin):
            got = _int_evaluator(g)(xs)
            assert type(got) is int and got == g.evaluate(xs)
        # rational coefficients, rational points, and both mixed
        frac = f + rand_poly(rng, nvars)
        frac_lin = lin * Fraction(rng.randint(1, 9), rng.randint(2, 6))
        ys = tuple(Fraction(rng.randint(-10 ** 3, 10 ** 3), rng.randint(1, 12))
                   for _ in range(nvars))
        for g in (f, lin, frac, frac_lin):
            for point in (xs, ys):
                assert _int_evaluator(g)(point) == g.evaluate(point)


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        parse_poly("x0", 1).evaluate([1, 2])


def test_eval_is_ring_homomorphism():
    rng = random.Random(3)
    for _ in range(60):
        f = rand_poly(rng, 2)
        g = rand_poly(rng, 2)
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)]
        assert (f * g).evaluate(x) == f.evaluate(x) * g.evaluate(x)
        assert (f + g).evaluate(x) == f.evaluate(x) + g.evaluate(x)


def test_parse_round_trip():
    rng = random.Random(5)
    for _ in range(40):
        f = rand_poly(rng, 3)
        assert parse_poly(str(f), 3) == f


def test_parse_rational_coefficients():
    f = parse_poly("1/2*x0^2 - 3*x0*x1 + 2/3")
    assert f.terms[(2, 0)] == Fraction(1, 2)
    assert f.terms[(1, 1)] == -3
    assert f.terms[(0, 0)] == Fraction(2, 3)


def test_parse_rejects_garbage():
    for bad in ("", "x0 +", "2**x0", "y1"):
        with pytest.raises(ValueError):
            parse_poly(bad)


@pytest.mark.parametrize("text", ["3/0", "3/00", "1/0*x0 + x1", "x0 - 2/0*x1^2"])
def test_parse_rejects_a_zero_denominator(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_poly(text)


def test_general_position_examples():
    forms = [parse_poly(t, 3) for t in ("x0", "x1", "x2", "x0+x1+x2")]
    assert hyperplanes_general_position(forms)
    concurrent = [parse_poly(t, 3) for t in ("x0", "x1", "x0+x1")]
    assert not hyperplanes_general_position(concurrent)


def test_general_position_vandermonde():
    # oracle: every 3x3 Vandermonde minor with distinct nodes is nonzero
    forms = [parse_poly(f"x0+{i}*x1+{i * i}*x2", 3) for i in range(1, 7)]
    nodes = list(range(1, 7))
    for a in range(6):
        for b in range(a + 1, 6):
            for c in range(b + 1, 6):
                det = (nodes[b] - nodes[a]) * (nodes[c] - nodes[a]) * (nodes[c] - nodes[b])
                assert det != 0
    assert hyperplanes_general_position(forms)


def _general_position_by_rref(forms) -> bool:
    """The oracle: every subset of size min(#forms, nvars) of the Fraction
    coefficient vectors has that many rref pivots."""
    k = min(len(forms), forms[0].nvars)
    return all(len(rref(sub)[1]) == k
               for sub in combinations([f.linear_coefficients() for f in forms], k))


def _linear(coeffs) -> MultiPoly:
    n = len(coeffs)
    return MultiPoly(n, {tuple(int(j == i) for j in range(n)): c for i, c in enumerate(coeffs)})


_COEFF = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def _arrangements(draw):
    """1-7 linear forms in 2-4 variables, sometimes with a form that is a
    combination of the first two."""
    nv = draw(st.integers(2, 4))
    vecs = draw(st.lists(st.lists(_COEFF, min_size=nv, max_size=nv).filter(any),
                         min_size=1, max_size=6))
    a, b = draw(_COEFF), draw(_COEFF)
    combo = [a * x + b * y for x, y in zip(vecs[0], vecs[-1])]
    if len(vecs) > 1 and any(combo) and draw(st.booleans()):
        vecs.append(combo)
    return [_linear(v) for v in vecs]


@settings(max_examples=200, deadline=None)
@given(_arrangements())
def test_general_position_matches_per_subset_rref(forms):
    assert hyperplanes_general_position(forms) == _general_position_by_rref(forms)


@pytest.mark.parametrize("texts, nvars, want", [
    (["x0", "x1", "x0+x1"], 2, True),                               # P^1: three points
    (["x0", "1/2*x0", "x1"], 2, False),                             # P^1: a repeated point
    (["x0", "x1", "x2", "x3", "x0+x1+x2+x3"], 4, True),             # P^3
    (["x0", "x1", "x2", "x3", "x0+2/3*x1"], 4, False),              # P^3: x0, x1, x2, x0+2/3*x1
    ([f"x0+{i}*x1+{i * i}*x2" for i in range(5)] + ["2*x0+x1+x2"], 3, False),   # one dependent triple
    (["1/2*x0+x1-x2", "x0-1/3*x1", "3/4*x2", "x0+x1+x2"], 3, True),  # Fraction coefficients
])
def test_general_position_cases_match_per_subset_rref(texts, nvars, want):
    forms = [parse_poly(t, nvars) for t in texts]
    assert hyperplanes_general_position(forms) == _general_position_by_rref(forms) == want


def test_general_position_builds_no_fractions(count_fractions):
    forms = [parse_poly(t, 3) for t in ("1/2*x0+x1-x2", "x0-1/3*x1", "3/4*x2", "x0+x1+x2")]
    built = count_fractions()
    assert hyperplanes_general_position(forms)
    assert built == []


def test_general_position_rejects_nonlinear():
    with pytest.raises(ValueError, match="restricted to hyperplanes"):
        hyperplanes_general_position([parse_poly("x0^2", 2)])


def test_divide_by_linear():
    x0, x1 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
    f = (x0 - 1) * (x0 + x1) * (x1 + 2)
    q = f.divide_by_linear(x0 - 1)
    assert q == (x0 + x1) * (x1 + 2)
    assert f.divide_by_linear(x0 + 1) is None


def test_monomial_exponents_counts():
    assert len(monomial_exponents(2, 2, homogeneous=False)) == 6
    assert len(monomial_exponents(3, 2, homogeneous=True)) == 6
    exps = monomial_exponents(2, 1, homogeneous=False)
    assert exps[0] == (0, 0)  # graded order starts at the constant
