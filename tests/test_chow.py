import pickle
import random
from fractions import Fraction
from itertools import combinations, product
from math import prod as product_of

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betachow.chow import (
    BlowupConfig,
    CurveClass,
    DivisorClass,
    config_classes,
    curve_family,
    curve_value,
    cyclic_config,
    e_class,
    marked_config,
    nef_test,
    parse_class_expr,
    pullback_hyperplane,
    top_intersection,
)


def brute_force_top(classes):
    """Independent oracle: distribute the product over the basis H, E_1..E_r
    and apply H^n = 1, E_i^n = (-1)^(n-1), mixed products = 0."""
    n, r = classes[0].n, classes[0].r
    total = Fraction(0)
    for pick in product(range(r + 1), repeat=n):  # 0 = H, 1+i = E_i
        coeff = Fraction(1)
        for cls, choice in zip(classes, pick):
            coeff *= cls.a if choice == 0 else -cls.b[choice - 1]
        if coeff == 0:
            continue
        if all(c == 0 for c in pick):
            total += coeff
        elif pick.count(pick[0]) == n and pick[0] != 0:
            total += coeff * Fraction(-1) ** (n - 1)
    return total


def dense_top(classes):
    """The dense oracle: prod_j a_j - sum_i prod_j b_{j,i}, one Fraction
    product per entry of every b-vector."""
    total = Fraction(1)
    for c in classes:
        total *= c.a
    for i in range(classes[0].r):
        prod = Fraction(1)
        for c in classes:
            prod *= c.b[i]
        total -= prod
    return total


def generator_top(classes):
    """top_intersection in the form it had before its products were list
    comprehensions: a validation loop and generators inside prod."""
    classes = list(classes)
    if not classes:
        raise ValueError("empty product")
    n, r = classes[0].n, classes[0].r
    if len(classes) != n:
        raise ValueError(f"top product needs exactly n = {n} classes")
    for c in classes:
        if (c.n, c.r) != (n, r):
            raise ValueError("mismatched (n, r)")
    total = product_of(c._a for c in classes)
    for i in min(classes, key=lambda c: len(c._b))._b:
        total -= product_of(c._b.get(i, 0) for c in classes)
    return Fraction(total, product_of(c._den for c in classes))


def rand_class(rng, n, r):
    return DivisorClass(n, Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                        tuple(Fraction(rng.randint(-4, 4)) for _ in range(r)))


def test_top_intersection_matches_brute_force():
    rng = random.Random(9)
    for n, r in ((2, 3), (2, 6), (3, 4)):
        for _ in range(40):
            classes = [rand_class(rng, n, r) for _ in range(n)]
            assert top_intersection(classes) == brute_force_top(classes)


def test_top_intersection_examples():
    cfg = cyclic_config(2, 6)
    cl = config_classes(cfg)
    assert top_intersection([cl["D"], cl["D"]]) == 12  # 36 - 6*4
    assert top_intersection([cl["H"], cl["H"]]) == 1
    assert top_intersection([cl["D"], cl["Ht1"]]) == 2  # q - n^2


def test_top_intersection_validation():
    cfg = cyclic_config(2, 6)
    cl = config_classes(cfg)
    with pytest.raises(ValueError):
        top_intersection([cl["D"]])  # needs n classes
    other = DivisorClass(2, 1, (0, 0, 0))
    with pytest.raises(ValueError, match="mismatched"):
        top_intersection([cl["D"], other])


def test_symmetry_and_multilinearity():
    rng = random.Random(13)
    for _ in range(30):
        a, b, c = (rand_class(rng, 3, 4) for _ in range(3))
        assert top_intersection([a, b, c]) == top_intersection([c, a, b])
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        left = top_intersection([a * lam + b, b, c])
        assert left == lam * top_intersection([a, b, c]) + top_intersection([b, b, c])


def test_intersection_identity_grid():
    for n in range(2, 7):
        for q in range(3 * n, 4 * n + 1):
            cl = config_classes(cyclic_config(n, q))
            d_cls = cl["D"]
            assert top_intersection([d_cls] * n) == q ** n - n ** n * q
            for k in range(n):
                for i in range(1, q + 1):
                    got = top_intersection([d_cls] * k + [cl[f"Ht{i}"]] * (n - k))
                    assert got == q ** k - n ** (k + 1)


def test_nd_minus_m_ht_closed_form():
    # (N*D - m*Ht_i)^n = (qN-m)^n - n(nN-m)^n - n^n(q-n)N^n
    rng = random.Random(17)
    for n, q in ((2, 6), (3, 9)):
        cl = config_classes(cyclic_config(n, q))
        for _ in range(10):
            big_n, m = rng.randint(1, 9), rng.randint(0, 25)
            cls = big_n * cl["D"] - m * cl["Ht1"]
            expect = (q * big_n - m) ** n - n * (n * big_n - m) ** n \
                - n ** n * (q - n) * big_n ** n
            assert top_intersection([cls] * n) == expect


def test_strict_transform():
    # Ht_i is the line's class H - sum of the E_j at the points on it
    cfg = cyclic_config(2, 6)
    cl = config_classes(cfg)
    for i in range(1, 7):
        window = tuple(1 if j in cfg.incidence[i - 1] else 0 for j in range(6))
        assert DivisorClass(2, 1, window) == cl[f"Ht{i}"]
    assert DivisorClass(2, 1, (0,) * 6) == pullback_hyperplane(2, 6)
    marked = config_classes(marked_config(2), ell=1)
    assert marked["Ht1"] == DivisorClass(2, 1, (1, 0, 0))
    assert marked["Ht4"] == pullback_hyperplane(2, 3)


def test_config_classes_examples():
    cl = config_classes(cyclic_config(2, 6))
    assert cl["D"] == DivisorClass(2, 6, (2,) * 6)
    marked = config_classes(marked_config(2), ell=10)
    assert marked["A"] == DivisorClass(2, 31, (10, 10, 10))
    assert top_intersection([marked["A"]] * 2) == 661
    with pytest.raises(ValueError):
        config_classes(marked_config(2))  # ell required


def test_marked_leading_terms():
    # A^(n-1).Ht_i has leading coefficient (n+1)^(n-1)-1 (i <= n+1)
    # and (n+1)^(n-1) (i >= n+2); the ratio converges as ell grows.
    for n in (2, 3, 4):
        for index, const in ((1, (n + 1) ** (n - 1) - 1), (n + 2, (n + 1) ** (n - 1))):
            gaps = []
            for ell in (100, 10_000):
                cl = config_classes(marked_config(n), ell)
                val = top_intersection([cl["A"]] * (n - 1) + [cl[f"Ht{index}"]])
                gaps.append(abs(Fraction(val, ell ** (n - 1)) - const))
            assert gaps[1] < Fraction(gaps[0], 50)


def test_config_validation():
    with pytest.raises(ValueError):
        cyclic_config(2, 5)  # q < 3n
    with pytest.raises(ValueError, match="unknown configuration kind"):
        BlowupConfig(2, "weird", 6)


@pytest.mark.parametrize("n, kind, q, message", [
    (1, "cyclic", 3, "n must be >= 2"),
    (1, "marked", 2, "n must be >= 2"),
    (2, "cyclic", 5, "q >= 3n"),
    (3, "cyclic", 8, "q >= 3n"),
    (2, "marked", 5, "q = 2n"),
    (2, "marked", 6, "q = 2n"),
])
def test_blowup_config_refuses_bad_shapes(n, kind, q, message):
    with pytest.raises(ValueError, match=message):
        BlowupConfig(n, kind, q)


def test_blowup_config_derives_points_and_incidence():
    cyclic = BlowupConfig(2, "cyclic", 7)
    assert cyclic == cyclic_config(2, 7)
    assert cyclic.r == 7
    assert cyclic.incidence[0] == frozenset({0, 6})
    assert cyclic.incidence[3] == frozenset({2, 3})
    marked = BlowupConfig(3, "marked", 6)
    assert marked == marked_config(3)
    assert marked.r == 4
    assert marked.incidence == (frozenset({0}), frozenset({1}), frozenset({2}),
                                frozenset({3}), frozenset(), frozenset())


def test_nef_inconclusive_when_no_certified_family_matches():
    # H meets every witness curve nonnegatively but is no multiple of D - m*Ht_i
    res = nef_test(pullback_hyperplane(2, 6), cyclic_config(2, 6))
    assert (res.status, res.witness, res.certificate, res.min_value) == \
        ("inconclusive", None, None, 0)
    assert res.describe().startswith("inconclusive: ")


def test_nef_certified_family():
    for n, q in ((2, 6), (3, 9)):
        cfg = cyclic_config(n, q)
        cl = config_classes(cfg)
        for m in range(n + 1):
            for i in range(1, q + 1):
                res = nef_test(cl["D"] - m * cl[f"Ht{i}"], cfg)
                assert res.status == "certified-nef"
                assert "0 <= m <= n" in res.certificate


def test_nef_failure_witness():
    cfg = cyclic_config(2, 6)
    res = nef_test(-1 * e_class(2, 6, 0), cfg)
    assert res.status == "fails-witness"
    assert res.witness.kind == "exceptional-line"
    assert res.witness.points == (0,)
    assert res.min_value == -1


def test_nef_m_beyond_family():
    cfg = cyclic_config(2, 6)
    cl = config_classes(cfg)
    res = nef_test(cl["D"] - 3 * cl["Ht1"], cfg)  # m = n+1
    assert res.status in ("fails-witness", "inconclusive")
    assert res.status == "fails-witness"  # window b-entries go negative


def test_nef_marked_classes():
    cfg = marked_config(2)
    cl = config_classes(cfg, ell=10)
    assert nef_test(cl["A"], cfg).status == "certified-nef"
    for i in range(1, 5):
        assert nef_test(cl[f"Ht{i}"], cfg).status == "certified-nef"
    bad = DivisorClass(2, 1, (1, 1, 0))  # line through two points: 1-1-1 < 0
    assert nef_test(bad, cfg).status == "fails-witness"


def test_nef_never_certified_with_negative_witness():
    rng = random.Random(23)
    cfg = cyclic_config(2, 6)
    for _ in range(200):
        cls = rand_class(rng, 2, 6)
        res = nef_test(cls, cfg)
        values = [curve_value(cls, c) for c in curve_family(cfg)]
        if res.status == "certified-nef":
            assert all(v >= 0 for v in values)
        if any(v < 0 for v in values):
            assert res.status == "fails-witness"


def test_json_round_trip():
    cls = DivisorClass(2, Fraction(7, 2), (Fraction(1), Fraction(-2, 3), Fraction(0)))
    record = cls.to_json()
    assert DivisorClass(record["n"], record["a"], record["b"]) == cls
    assert record["a"] == "7/2" and record["r"] == len(record["b"]) == 3


def test_parse_class_expr():
    cfg = cyclic_config(2, 6)
    cl = config_classes(cfg)
    assert parse_class_expr("D-2*Ht1", cfg) == cl["D"] - 2 * cl["Ht1"]
    assert parse_class_expr("-E1", cfg) == -1 * e_class(2, 6, 0)
    assert parse_class_expr("3*H", cfg) == 3 * cl["H"]
    with pytest.raises(ValueError):
        parse_class_expr("D + Q7", cfg)


def test_parse_class_expr_refuses_malformed_expressions():
    cfg = cyclic_config(2, 6)
    for expr in ("1/0*D", "D - 3/00*Ht1"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_class_expr(expr, cfg)
    for expr in ("D + ", "D -", "D - 2*Ht1 +", "-", "+ "):
        with pytest.raises(ValueError, match="ends with an operator"):
            parse_class_expr(expr, cfg)
    for expr in ("* D", "D + *E1", "2 * * D"):
        with pytest.raises(ValueError, match="malformed"):
            parse_class_expr(expr, cfg)
    assert parse_class_expr("D + -E1", cfg) == parse_class_expr("D - E1", cfg)
    expect = config_classes(cfg)["D"] * 2 + Fraction(1, 2) * e_class(2, 6, 0)
    assert parse_class_expr("2 D + 1/2*E1", cfg) == expect


def test_divisor_class_is_immutable_and_canonical():
    cls = DivisorClass(2, Fraction(1, 2), (1, 0, Fraction(3, 2)))
    assert cls == DivisorClass(2, "1/2", (1.0, "0", "3/2"))
    assert cls == Fraction(1, 2) * DivisorClass(2, 1, (2, 0, 3))
    assert cls.b == (Fraction(1), Fraction(0), Fraction(3, 2))
    assert repr(cls) == ("DivisorClass(n=2, a=Fraction(1, 2), "
                         "b=(Fraction(1, 1), Fraction(0, 1), Fraction(3, 2)))")
    assert pickle.loads(pickle.dumps(cls)) == cls
    assert cls - cls == 0 * cls == DivisorClass(2, 0, (0, 0, 0))
    for field in ("n", "a", "b", "_den"):
        with pytest.raises(AttributeError):
            setattr(cls, field, 1)
    with pytest.raises(ValueError, match="invalid"):
        pullback_hyperplane(0, 3)
    with pytest.raises(IndexError):
        e_class(2, 3, 3)


# ---------------------------------------------------------------------------
# differential test: sparse integer classes against Fraction-built ones
# ---------------------------------------------------------------------------

FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6]))


def _dense_config(cfg, ell):
    """config_classes as Fraction inputs (a, b), from the formulas of the
    configuration: Ht_i = H - sum of E_j over the points on H_i, D = q*H -
    n*sum(E), A = (ell(n+1)+1)*H - ell*sum(E)."""
    n, r = cfg.n, cfg.r
    out = {f"Ht{i + 1}": (Fraction(1), tuple(Fraction(j in pts) for j in range(r)))
           for i, pts in enumerate(cfg.incidence)}
    if cfg.kind == "cyclic":
        out["D"] = (Fraction(cfg.q), (Fraction(n),) * r)
    else:
        out["A"] = (Fraction(ell * (n + 1) + 1), (Fraction(ell),) * r)
    out["H"] = (Fraction(1), (Fraction(0),) * r)
    return out


@st.composite
def _class_products(draw):
    """n classes on one blow-up, each paired with its Fraction inputs (a, b)
    computed in Fractions alongside: classes of a cyclic or marked
    configuration, or random ones (mixed denominators, negative and zero
    entries, all-zero b), combined by +, - and scalar *."""
    source = draw(st.sampled_from(["random", "cyclic", "marked"]))
    if source == "random":
        n, r = draw(st.integers(1, 4)), draw(st.integers(0, 8))
        pool = [(pullback_hyperplane(n, r), (Fraction(1), (Fraction(0),) * r))]
    else:
        if source == "cyclic":
            cfg, ell = cyclic_config(2, draw(st.integers(6, 8))), None
        else:
            cfg, ell = marked_config(draw(st.integers(2, 4))), draw(st.integers(1, 20))
        n, r = cfg.n, cfg.r
        dense = _dense_config(cfg, ell)
        pool = [(cls, dense[name]) for name, cls in sorted(config_classes(cfg, ell).items())]
    for _ in range(draw(st.integers(0, 3))):
        a = draw(FRACTIONS)
        b = tuple(draw(st.lists(FRACTIONS, min_size=r, max_size=r)))
        if draw(st.booleans()):
            b = (Fraction(0),) * r
        pool.append((DivisorClass(n, a, b), (a, b)))
    picked = []
    for _ in range(n):
        cls, (a, b) = draw(st.sampled_from(pool))
        op = draw(st.sampled_from(["", "+", "-", "*", "rmul"]))
        if op in ("+", "-"):
            other, (a2, b2) = draw(st.sampled_from(pool))
            sign = 1 if op == "+" else -1
            cls = cls + other if op == "+" else cls - other
            a, b = a + sign * a2, tuple(x + sign * y for x, y in zip(b, b2))
        elif op:
            c = draw(FRACTIONS)
            scalar = int(c) if c.denominator == 1 and draw(st.booleans()) else c
            cls = cls * scalar if op == "*" else scalar * cls
            a, b = c * a, tuple(c * x for x in b)
        picked.append((cls, (a, b)))
    return n, r, picked


@settings(max_examples=150, deadline=None)
@given(_class_products())
def test_sparse_classes_match_fraction_classes_and_dense_products(case):
    n, r, picked = case
    for cls, (a, b) in picked:
        twin = DivisorClass(n, a, b)
        assert cls.a == a and cls.b == b
        assert cls == twin and hash(cls) == hash(twin)
        assert cls.to_json() == twin.to_json() == {
            "n": n, "r": r, "a": str(a), "b": [str(x) for x in b]}
        record = cls.to_json()
        assert DivisorClass(record["n"], record["a"], record["b"]) == cls
        for i in range(r):
            assert curve_value(cls, CurveClass("exceptional-line", (i,))) == b[i]
        for pts in [(), *combinations(range(r), 1), *combinations(range(r), 2)]:
            curve = CurveClass("line-through-point-set", pts)
            assert curve_value(cls, curve) == a - sum(b[i] for i in pts)
    classes = [cls for cls, _ in picked]
    value = top_intersection(classes)
    assert value == dense_top(classes) == brute_force_top(classes)
    assert value == top_intersection(classes[::-1])


@st.composite
def _class_lists(draw):
    """0-4 random classes, most on one blow-up (n in 1..3, r in 0..3) and
    some on another: valid products and every refusal of top_intersection."""
    shape = st.tuples(st.integers(1, 3), st.integers(0, 3))
    first = draw(shape)
    classes = []
    for _ in range(draw(st.integers(0, 4))):
        n, r = first if draw(st.booleans()) else draw(shape)
        b = draw(st.lists(FRACTIONS, min_size=r, max_size=r))
        classes.append(DivisorClass(n, draw(FRACTIONS), b))
    return classes


def _outcome(top, classes):
    try:
        return top(classes)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_class_products().map(lambda case: [cls for cls, _ in case[2]]),
                 _class_lists()))
def test_top_intersection_matches_its_generator_form(classes):
    value = _outcome(top_intersection, classes)
    assert value == _outcome(generator_top, classes)
    assert type(value) in (Fraction, str)
    assert _outcome(top_intersection, iter(classes)) == value


HALVES = st.builds(lambda p, d: Fraction(2 * p + 1, 2 * d),
                   st.integers(-4, 4), st.sampled_from([1, 2, 3]))


@st.composite
def _run_products(draw):
    """Classes a and b whose denominators are > 1 (their H-parts have an
    even denominator), a on the blow-up of P^n at r points (n in 1..4, r in
    0..4) and b on the same one half the time, else with another r or n,
    with run lengths k and m - k: m is mostly n, else anything in 0..n+1."""
    n, r = draw(st.integers(1, 4)), draw(st.integers(0, 4))

    def draw_class(n, r):
        return DivisorClass(n, draw(HALVES), draw(st.lists(FRACTIONS, min_size=r, max_size=r)))

    a = draw_class(n, r)
    b = draw_class(*draw(st.sampled_from([(n, r), (n, r), (n, (r + 1) % 5), (n % 4 + 1, r)])))
    m = n if draw(st.booleans()) else draw(st.integers(0, n + 1))
    return a, b, draw(st.integers(0, m)), m


@settings(max_examples=300, deadline=None)
@given(_run_products())
def test_runs_of_one_class_match_equal_copies_and_brute_force(case):
    a, b, k, m = case
    assert a._den > 1 and b._den > 1
    runs = [a] * k + [b] * (m - k)
    copies = [DivisorClass(c.n, c.a, c.b) for c in runs]
    assert len({id(c) for c in copies}) == m
    value = _outcome(top_intersection, runs)
    assert value == _outcome(top_intersection, copies) == _outcome(generator_top, runs)
    if type(value) is Fraction:
        assert value == brute_force_top(runs) == brute_force_top(copies)
