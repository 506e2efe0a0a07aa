"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import random
import time
from fractions import Fraction

from betachow.audits import iter_sample_points, levin_duke_rows, subspace_rows
from betachow.beta import (
    beta_autissier_lower,
    autissier_input_marked,
    beta_exact_cyclic,
    beta_numeric_cyclic,
    f_poly,
    marked_target,
)
from betachow.chow import config_classes, cyclic_config, e_class, nef_test, top_intersection
from betachow.heights import (
    ProjPoint,
    height,
    support_primes,
    weil_local,
)
from betachow.poly import MultiPoly, parse_poly
from betachow.search import SearchBox, SRing, _cor12_spec, _thm11_spec, run_search, vanishing_forms
from oracles import key_condition, product_over_places


def report(number: int, label: str, ok: bool, started: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{label}]: {status} ({time.monotonic() - started:.2f}s)")
    assert ok, f"acceptance criterion {number} failed: {label}"


def test_criterion_1_intersection_identities():
    t0 = time.monotonic()
    ok = True
    for n in range(2, 7):
        for q in range(3 * n, 4 * n + 1):
            cl = config_classes(cyclic_config(n, q))
            d_cls = cl["D"]
            ok = ok and top_intersection([d_cls] * n) == q ** n - n ** n * q
            for k in range(n):
                expect = q ** k - n ** (k + 1)
                for i in range(1, q + 1):
                    got = top_intersection([d_cls] * k + [cl[f"Ht{i}"]] * (n - k))
                    ok = ok and got == expect
    report(1, "intersection identities, zero tolerance", ok, t0)


def test_criterion_2_beta_positivity():
    t0 = time.monotonic()
    ok = beta_exact_cyclic(2, 6) == Fraction(10, 9) and f_poly(2, 6) == 4
    for n in range(2, 9):
        for q in range(3 * n, 12 * n + 1):
            beta = beta_exact_cyclic(n, q)
            f = f_poly(n, q)
            ok = ok and beta > 1 and f > 0
            ok = ok and f == (beta - 1) * (n + 1) * (q ** n - n ** n * q)
    report(2, "beta > 1 and f > 0 over the full grid", ok, t0)


def test_criterion_3_two_route_convergence():
    t0 = time.monotonic()
    ok = True
    for n, q in ((2, 6), (2, 8), (3, 9)):
        exact = beta_exact_cyclic(n, q)
        gaps = [abs(beta_numeric_cyclic(n, q, big_n) - exact)
                for big_n in (50, 100, 200, 400)]
        ok = ok and all(gaps[k + 1] < gaps[k] for k in range(3))
        ok = ok and gaps[-1] < exact / 50
    report(3, "truncated sum converges to the closed form", ok, t0)


def test_criterion_4_autissier_bounds():
    t0 = time.monotonic()
    ok = beta_autissier_lower(autissier_input_marked(2, 10, 1)) == Fraction(661, 84)
    for n in (2, 3, 4):
        for ell in (10, 100, 1000):
            for index in (1, n + 1, n + 2, 2 * n):
                bound = beta_autissier_lower(autissier_input_marked(n, ell, index))
                ok = ok and bound > marked_target(n, ell, index)
    report(4, "intersection-theoretic bounds exceed their targets", ok, t0)


def test_criterion_5_height_machine_identity():
    t0 = time.monotonic()
    rng = random.Random(55)
    ok = True
    checked = 0
    while checked < 1000:
        nvars = rng.choice((2, 3))
        degree = rng.choice((1, 2, 3))
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = [0] * nvars
            remaining = degree
            for j in range(nvars - 1):
                exps[j] = rng.randint(0, remaining)
                remaining -= exps[j]
            exps[-1] = remaining
            terms[tuple(exps)] = Fraction(rng.randint(-9, 9))
        f = MultiPoly(nvars, terms)
        if f.is_zero():
            continue
        coords = [rng.randint(-50, 50) for _ in range(nvars)]
        if all(c == 0 for c in coords):
            continue
        p = ProjPoint.normalize(coords)
        value = f.evaluate(p.coords)
        if value == 0:
            continue
        total = weil_local(f, p, None)
        for q in support_primes([value, *p.coords]):
            total *= weil_local(f, p, q)
        ok = ok and total == Fraction(height(p)) ** degree
        checked += 1
    for _ in range(10_000):
        x = Fraction(rng.randint(-10 ** 6, 10 ** 6) or 7, rng.randint(1, 10 ** 5))
        ok = ok and product_over_places(x) == 1
    report(5, "height machine and product formula exact", ok, t0)


def test_criterion_6_cor12_desk_search():
    t0 = time.monotonic()
    g = parse_poly("1", 2)
    s = SRing(())
    sols = run_search(_cor12_spec(g, SearchBox(2, 100), s))
    expected = [(-1, 1), (1, -1), (1, 1)]
    ok = sols.points == [tuple(Fraction(c) for c in p) for p in expected]
    counts = [run_search(_cor12_spec(g, SearchBox(2, b), s)).count for b in (10, 100, 1000)]
    ok = ok and counts == [3, 3, 3]
    ok = ok and vanishing_forms(sols.points, 1) == []
    report(6, "unit-equation search: exactly three solutions, no common line", ok, t0)


def test_criterion_7_divisibility_condition_bridge():
    t0 = time.monotonic()
    s_places = SRing()
    ok = True
    # solutions of the affine search, moved to projective coordinates
    cor_sols = run_search(_cor12_spec(parse_poly("1", 2), SearchBox(2, 100), SRing(())))
    proj_forms = [parse_poly(t, 3) for t in ("x0", "x1", "x2", "x0-x1-x2")]
    g_proj = parse_poly("x0", 3)
    ok = ok and cor_sols.count > 0
    for pt in cor_sols.points:
        p = ProjPoint.normalize([1, *pt])
        ok = ok and key_condition(p, [g_proj, *proj_forms], s_places, "ii")
    # divisibility search with five hyperplanes in general position
    forms = [parse_poly(f"x0+{i}*x1+{i * i}*x2", 3) for i in range(1, 6)]
    g_form = parse_poly("x0", 3)
    sols = run_search(_thm11_spec(forms, g_form, "i", SearchBox(2, 50), SRing(()), False))
    ok = ok and sols.count > 0
    for pt in sols.points:
        p = ProjPoint(tuple(int(c) for c in pt))
        ok = ok and key_condition(p, [g_form, *forms], s_places, "i")
    report(7, "every found solution satisfies the local-height condition", ok, t0)


def test_criterion_8_nef_certificates():
    t0 = time.monotonic()
    ok = True
    for n in (2, 3):
        q = 3 * n
        cfg = cyclic_config(n, q)
        cl = config_classes(cfg)
        for m in range(n + 1):
            for i in range(1, q + 1):
                res = nef_test(cl["D"] - m * cl[f"Ht{i}"], cfg)
                ok = ok and res.status == "certified-nef"
        neg = nef_test(-1 * e_class(n, q, 0), cfg)
        ok = ok and neg.status == "fails-witness"
        ok = ok and neg.witness.kind == "exceptional-line"
    report(8, "nef family certified, negative class rejected by a fiber line", ok, t0)


def _audit_rows(audit, forms, s, eps, points):
    """The audit's blocks of rows flattened into one list."""
    return [row for block in audit(forms, s, eps, points) for row in block]


def _max_defect(rows):
    return max((row["defect"] for row in rows if row.get("defect") is not None), default=None)


def test_criterion_9_audit_boundedness():
    t0 = time.monotonic()
    eps = Fraction(1, 2)
    s = SRing()
    arrangement = [parse_poly(t, 3) for t in ("x0", "x1", "x2", "x0+x1+x2")]
    low = _audit_rows(subspace_rows, arrangement, s, eps,
                      iter_sample_points(2, 10 ** 3, 1000, seed=101))
    high = _audit_rows(subspace_rows, arrangement, s, eps,
                       iter_sample_points(2, 10 ** 6, 1000, seed=202))
    max_low, max_high = _max_defect(low), _max_defect(high)
    # "within 2x" in the logarithmic scale, compared multiplicatively
    ok = max_low > 1 and max_high <= max_low * max_low
    # violator lists are reported; for the coordinate arrangement every
    # failing sample must lie on a coordinate hyperplane
    coords = [parse_poly(t, 3) for t in ("x0", "x1", "x2")]
    pts = list(iter_sample_points(2, 10 ** 6, 1000, seed=303))
    sub = _audit_rows(subspace_rows, coords, s, eps, pts)
    lev = _audit_rows(levin_duke_rows, coords, s, eps, pts)
    violators = [[row for row in rows if row.get("verdict") is False] for rows in (sub, lev)]
    ok = ok and all(row["on_support"] for rows in violators for row in rows)
    ok = ok and violators == [[], []]
    report(9, "defect bounded across height brackets; violators on support only",
           ok, t0)
