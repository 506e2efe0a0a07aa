from fractions import Fraction
from math import isqrt

import pytest

import betachow.beta
from betachow.beta import (
    AutissierInput,
    autissier_input_marked,
    beta_autissier_lower,
    beta_exact_cyclic,
    beta_numeric_cyclic,
    countinglambda_rhs,
    f_poly,
    g_aut,
    marked_target,
    scan_cyclic,
    scan_f_monotone,
    scan_marked,
    sqrt_enclosure,
)


def test_g_aut_examples():
    assert g_aut(Fraction(1)) == Fraction(1, 3)
    assert g_aut(Fraction(1, 2)) == Fraction(1, 24)
    assert g_aut(Fraction(3)) == Fraction(7, 3)
    with pytest.raises(ValueError):
        g_aut(Fraction(0))


def test_g_aut_continuous_at_one():
    x = Fraction(1)
    assert x ** 3 / 3 == x - Fraction(2, 3)


def test_beta_exact_spot_values():
    assert beta_exact_cyclic(2, 6) == Fraction(10, 9)
    # direct substitution oracle at (3, 9)
    n, q = 3, 9
    num = q ** 4 - 6 ** 4 - 3 ** 5 - 3 ** 4 * 4 * 6
    assert beta_exact_cyclic(3, 9) == Fraction(num, 4 * (q ** 3 - 27 * q))
    assert beta_exact_cyclic(3, 9) > 1
    with pytest.raises(ValueError):
        beta_exact_cyclic(2, 5)


def test_f_spot_values_and_identity():
    assert f_poly(2, 6) == 4
    for n in range(2, 7):
        for q in range(3 * n, 8 * n):
            beta = beta_exact_cyclic(n, q)
            assert f_poly(n, q) == (beta - 1) * (n + 1) * (q ** n - n ** n * q)


def test_f_at_three_n_closed_form():
    # proof-level anchor: f(3n) = n^n ((2n-1) 3^n - n 2^(n+1) - (2n^2-3) n)
    for n in range(2, 9):
        expect = n ** n * ((2 * n - 1) * 3 ** n - n * 2 ** (n + 1) - (2 * n * n - 3) * n)
        assert f_poly(n, 3 * n) == expect


def test_positivity_scan():
    rows = scan_cyclic(8, 12)
    assert all(r["ok"] for r in rows)
    assert len(rows) == sum(12 * n - 3 * n + 1 for n in range(2, 9))


def test_f_monotone_scan():
    assert all(r["ok"] for r in scan_f_monotone(8, 12))


def _fraction_f(n, q):
    """f in the Fraction form the scans used before they ran in ints."""
    return Fraction(q ** (n + 1) - (q - n) ** (n + 1) - (n + 1) * q ** n
                    - (n * n - 1) * n ** n * (q - n) + n ** (n + 1))


def _fraction_scan_row(n, q):
    """A cyclic scan row in Fractions: beta from its closed form, the
    identity as the product (beta-1)(n+1)(q^n - n^n q)."""
    beta = Fraction(q ** (n + 1) - (q - n) ** (n + 1) - n ** (n + 2)
                    - n ** (n + 1) * (n + 1) * (q - n), (n + 1) * (q ** n - n ** n * q))
    f = _fraction_f(n, q)
    identity = (beta - 1) * (n + 1) * (q ** n - n ** n * q) == f
    return {"n": n, "q": q, "beta": beta, "f": f, "beta_gt_1": beta > 1,
            "f_gt_0": f > 0, "identity": identity,
            "ok": beta > 1 and f > 0 and identity}


def test_int_scans_match_their_fraction_forms():
    rows = scan_cyclic(12, 20)
    assert [(r["n"], r["q"]) for r in rows] == [
        (n, q) for n in range(2, 13) for q in range(3 * n, 20 * n + 1)]
    for row in rows:
        assert row == _fraction_scan_row(row["n"], row["q"])
        assert type(row["f"]) is int and type(row["beta"]) is Fraction
        assert row["identity"] is True and row["ok"] is True
    assert scan_f_monotone(12, 20) == [
        {"n": n, "q": q, "difference": d, "ok": d > 0}
        for n in range(2, 13) for q in range(3 * n, 20 * n)
        for d in [_fraction_f(n, q + 1) - _fraction_f(n, q)]]


def test_int_scan_catches_a_wrong_f(monkeypatch):
    real = betachow.beta.f_poly
    monkeypatch.setattr(betachow.beta, "f_poly", lambda n, q: real(n, q) + 1)
    rows = scan_cyclic(3, 4)
    assert not any(r["identity"] or r["ok"] for r in rows)
    assert all(r["beta_gt_1"] and r["f_gt_0"] for r in rows)


def test_numeric_summands_nonnegative():
    # for q >= 3n every summand is already nonnegative (max(0, .) inactive)
    for n, q in ((2, 6), (3, 9), (4, 12)):
        big_n = 11
        shift = n ** n * (q - n) * big_n ** n
        for m in range(1, n * big_n + 1):
            assert (q * big_n - m) ** n - n * (n * big_n - m) ** n - shift >= 0


def test_numeric_converges_to_exact():
    for n, q in ((2, 6), (3, 9)):
        exact = beta_exact_cyclic(n, q)
        gaps = [exact - beta_numeric_cyclic(n, q, big_n) for big_n in (25, 50, 100)]
        assert all(g > 0 for g in gaps)  # truncation approaches from below
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1]


def test_numeric_gap_shrinks_by_factor_four():
    for n, q in ((2, 6), (2, 8), (3, 9)):
        exact = beta_exact_cyclic(n, q)
        gap_50 = abs(beta_numeric_cyclic(n, q, 50) - exact)
        gap_400 = abs(beta_numeric_cyclic(n, q, 400) - exact)
        assert gap_400 <= gap_50 / 4


def test_marked_intersection_data_constant_within_index_group():
    for index_a, index_b in ((1, 3), (5, 6)):  # n = 3: points 1..4, pullbacks 5, 6
        a = autissier_input_marked(3, 10, index_a)
        b = autissier_input_marked(3, 10, index_b)
        assert (a.a_top, a.a_b, a.a_b2) == (b.a_top, b.a_b, b.a_b2)


def test_autissier_marked_inputs():
    inp = autissier_input_marked(2, 10, 1)
    assert (inp.a_top, inp.a_b, inp.a_b2) == (661, 21, 0)
    inp4 = autissier_input_marked(2, 10, 4)
    assert (inp4.a_top, inp4.a_b, inp4.a_b2) == (661, 31, 1)


def test_autissier_bound_spot_values():
    assert beta_autissier_lower(autissier_input_marked(2, 10, 1)) == Fraction(661, 84)
    expect = Fraction(661, 124) + Fraction(1, 661) * (Fraction(661, 62) - Fraction(2, 3))
    assert beta_autissier_lower(autissier_input_marked(2, 10, 4)) == expect


def test_autissier_degenerate_reduction():
    # B^2 = 0 and b <= 1: the weight term vanishes, bound = b/2
    inp = AutissierInput(2, Fraction(1), Fraction(1), Fraction(0))
    assert inp.a_top / (2 * inp.a_b) == Fraction(1, 2)
    assert beta_autissier_lower(inp) == Fraction(1, 4)


def test_autissier_input_validation():
    with pytest.raises(ValueError, match="zero"):
        AutissierInput(2, Fraction(1), Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        AutissierInput(2, Fraction(-1), Fraction(1), Fraction(0))


def test_marked_targets_scan():
    rows = scan_marked()
    assert all(r["ok"] for r in rows)
    assert marked_target(2, 10, 1) == Fraction(15, 2)
    assert marked_target(2, 10, 4) == Fraction(5)


def test_sqrt_enclosure():
    assert sqrt_enclosure(Fraction(4)).width() == 0
    iv = sqrt_enclosure(Fraction(2), Fraction(1, 10 ** 9))
    assert iv.lo ** 2 <= 2 <= iv.hi ** 2
    assert iv.width() <= Fraction(1, 10 ** 9)


def test_countinglambda_examples():
    assert countinglambda_rhs(1).lo == countinglambda_rhs(1).hi == 2
    iv4 = countinglambda_rhs(4)
    assert iv4.lo == iv4.hi == Fraction(9, 32)
    iv10 = countinglambda_rhs(10, Fraction(1, 10 ** 6))
    assert iv10.width() <= Fraction(1, 10 ** 6)
    # independent fine enclosure of the true value via integer sqrt
    s_lo = Fraction(isqrt(10 * 10 ** 60), 10 ** 30)
    s_hi = s_lo + Fraction(1, 10 ** 30)
    t_lo = Fraction(1, 10) * (1 + Fraction(1, 10) / s_hi)
    t_hi = Fraction(1, 10) * (1 + Fraction(1, 10) / s_lo)
    assert iv10.lo <= t_lo and t_hi <= iv10.hi
