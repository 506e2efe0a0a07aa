"""Desk-scale searches for S-integer divisibility and ideal-equality
predicates, with degeneracy analysis of the solution sets.

The ring of S-integers is infinite, so every search runs over an explicit
truncation: numerators bounded by B, denominators limited to products of
S-primes with a per-prime exponent cap.  The truncation parameters travel
with every solution set, outputs are deterministically ordered by
(max |numerator|, coordinates), and saved sets re-verify their predicate
witness-by-witness on load.

Degeneracy is reported, never asserted: kernel dimensions of the
monomial-evaluation matrix bound the geometry of the solutions up to a
degree cutoff, and nothing more is claimed.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import partial
from itertools import chain, product
from math import gcd, lcm, prod
from operator import getitem, mul
from typing import Callable, Iterable, Iterator, Sequence

from ._records import Frozen, Record
from .heights import ProjPoint, SRing, support_primes
from .linalg import kernel_basis
from .poly import (
    MultiPoly,
    _int_evaluator,
    hyperplanes_general_position,
    monomial_exponents,
    parse_poly,
)
from .primes import FACTOR_BOUND_DEFAULT, FactorizationBoundError, _vp, factor, is_prime
from .reporting import header_json
from .sharding import sharded


def _divisors(n: int, bound: int = FACTOR_BOUND_DEFAULT) -> list[int]:
    """The positive divisors of n != 0, ascending; factor's bound applies."""
    divs = [1]
    for p, e in factor(n, bound).items():
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


class SearchBox(Frozen):
    """Truncation of O_S^n: numerators in [-B, B], denominators products
    of S-primes with exponent at most denom_cap each."""

    __slots__ = ("dim", "bound", "denom_cap")

    def __init__(self, dim: int, bound: int, denom_cap: int = 0):
        if any(type(v) is bool or not isinstance(v, int) for v in (dim, bound, denom_cap)):
            raise ValueError("search box dim, bound and denom_cap must be ints")
        if dim < 1 or bound < 0 or denom_cap < 0:
            raise ValueError("invalid search box")
        self._assign(dim, bound, denom_cap)

    def coordinate_values(self, s: SRing) -> list:
        """Sorted coordinate values, the integral ones as ints."""
        if not s.primes or self.denom_cap == 0:
            return list(range(-self.bound, self.bound + 1))
        dens = [1]
        for p in s.primes:
            dens = [d * p ** e for d in dens for e in range(self.denom_cap + 1)]
        # each value once, in lowest terms, keyed by its numerator over the
        # common denominator dens[-1]: an exact int sort key
        keyed = [(num * (dens[-1] // den), Fraction(num, den) if den > 1 else num)
                 for den in dens for num in range(-self.bound, self.bound + 1)
                 if gcd(num, den) == 1]
        return [v for _, v in sorted(keyed)]


def _grade_key(point: tuple) -> tuple:
    return (max(abs(c.numerator) for c in point), point)


# ---------------------------------------------------------------------------
# solution sets and persistence
# ---------------------------------------------------------------------------

class SolutionSet(Record):
    """Deterministically ordered solutions of one predicate over one box;
    a point's coordinates are ints when integral, else Fractions.  points
    and witnesses default to a fresh list."""

    __slots__ = ("descriptor", "points", "witnesses")

    def __init__(self, descriptor: dict, points: list[tuple] | None = None,
                 witnesses: list[dict] | None = None):
        self.descriptor = descriptor
        self.points = [] if points is None else points
        self.witnesses = [] if witnesses is None else witnesses

    @property
    def count(self) -> int:
        return len(self.points)

    def extend(self, other: "SolutionSet"):
        self.points.extend(other.points)
        self.witnesses.extend(other.witnesses)

    def sort(self):
        order = sorted(range(len(self.points)), key=lambda i: _grade_key(self.points[i]))
        self.points = [self.points[i] for i in order]
        self.witnesses = [self.witnesses[i] for i in order]

    def records(self) -> list[dict]:
        """The stored form of each solution: {"point", "witnesses"}."""
        return [{"point": [str(c) for c in pt], "witnesses": wit}
                for pt, wit in zip(self.points, self.witnesses)]


def _witness_map(values: Sequence[Fraction | int], s: SRing) -> dict:
    """Per-prime valuations of the checked values (null for a zero value),
    over the primes outside S dividing one; each numerator and denominator
    is stripped of its S part before it is factored."""
    parts = [s.strip_s_part(k) for v in values if v != 0 for k in (v.numerator, v.denominator)]
    return {str(p): [_vp(v, p) if v != 0 else None for v in values]
            for p in support_primes(parts)}


# ---------------------------------------------------------------------------
# predicates: hypotheses validated once, then one check per point
# ---------------------------------------------------------------------------
#
# Each spec factory validates its search's arguments and its theorem's
# hypotheses, and returns one Search.  Its check is a partial of a
# module-level point function giving the values whose valuations witness a
# solution, or None, so a Search pickles (tests/test_records.py checks it);
# shard workers get the search when forked, and pickle only parts and
# results.  search_spec is the one decoder
# from a descriptor to a factory.  A check's values are exact up to S-units,
# which no witness sees: cor12 runs in ints over one S-unit denominator per
# point, thm11 in ints over forms scaled by S-units, and thm16 evaluates its
# forms by _int_evaluator, unscaled: its right side sums n window minima, so
# a constant factor off S would change the verdict.  No check factors: each
# is gcds and S-unit tests, and only a solution's witness map factors.

Check = Callable[[tuple], "list | None"]


class Search(Frozen):
    """One validated search, decoded once: the canonical descriptor, its box
    and ring, the per-point check, and its candidate rows, built once from
    the box: the first coordinate runs over firsts, the others but the last
    over values, and the last one over lasts(prefix), a rule for the values
    after the prefix that can pass the check.  Runs, shard workers,
    checkpoints and reverify all take it.  Its check and rule are partials
    of module-level functions, so it pickles (see the Check comment)."""

    __slots__ = ("descriptor", "box", "s", "check", "values", "lasts")

    def __init__(self, descriptor: dict, box: SearchBox, s: SRing, check: Check,
                 values: Sequence, lasts: Callable[[tuple], Iterable]):
        self._assign(descriptor, box, s, check, values, lasts)

    @property
    def firsts(self) -> Sequence:
        """The first coordinates: 0..B when projective, else values."""
        return range(self.box.bound + 1) if self.descriptor["projective"] else self.values


def _scaled(f: MultiPoly) -> MultiPoly:
    """f times the lcm of its coefficient denominators, which has integer
    coefficients; the lcm is an S-unit when f has S-integer coefficients,
    so divisibility in O_S and every witness are unchanged."""
    return f * lcm(*(c.denominator for c in f.terms.values()))


def _cor12_point(s: SRing, const: int, linear: list[int], xs: tuple) -> list | None:
    """The cor12 check in ints.  Over the common denominator D of the point,
    X_i = D x_i, rest = D - sum X_i = D (1 - sum x_i), A = prod X_i * rest =
    D^(n+1) a and B = c D g(x) with const, linear the coefficients of c*g.
    D and c are S-units, so a | g(x) in O_S iff A / gcd(A, B) is an S-unit."""
    d = lcm(*[x.denominator for x in xs])
    if d == 1:
        big = [x.numerator for x in xs]
    elif not s.is_unit(d):
        raise ValueError("inputs outside the ring of S-integers")
    else:
        big = [x.numerator * (d // x.denominator) for x in xs]
    rest = d - sum(big)
    a = prod(big) * rest
    b = const * d + sum(map(mul, linear, big))
    ok = b == 0 if a == 0 else s.is_unit(a // gcd(a, b))
    return [*big, rest, a, b] if ok else None


def _cor12_spec(g: MultiPoly, box: SearchBox, s: SRing) -> Search:
    """(1 - sum x_i) * prod x_i | g(x).  g must have degree <= 1, S-integer
    coefficients, and be nonzero at the origin and at each unit vector."""
    n = g.nvars
    if n != box.dim:
        raise ValueError("g must live in the box's variables")
    if g.total_degree() > 1 or g.is_zero():
        raise ValueError("degenerate g: degree must be <= 1 and g nonzero")
    if any(not s.contains(c) for c in g.terms.values()):
        raise ValueError("g must have S-integer coefficients")
    if g.evaluate((0,) * n) == 0:
        raise ValueError("degenerate g: vanishes at the origin")
    for i in range(n):
        unit = tuple(1 if j == i else 0 for j in range(n))
        if g.evaluate(unit) == 0:
            raise ValueError("degenerate g: vanishes at a unit vector")
    # the coefficients of c*g: the constant term first, then those of x0..
    exps = [(0,) * n, *(tuple(int(i == j) for j in range(n)) for i in range(n))]
    scaled = _scaled(g).terms
    const, *linear = [int(scaled.get(e, 0)) for e in exps]
    values = box.coordinate_values(s)
    parts = {v: s.strip_s_part(abs(v.numerator)) for v in values if v != 0}
    by_part: dict[int, list] = {}
    for v, part in parts.items():
        by_part.setdefault(part, []).append(v)
    lasts = partial(_cor12_lasts, const, linear, parts, by_part, values, s)
    if n == 1:          # the prefix is always empty: the one row, once, as a set
        lasts = partial(_whole_row, frozenset(lasts(())))
    return Search(_descriptor("cor12", box, s, False, g=str(g)), box, s,
                  partial(_cor12_point, s, const, linear), values, lasts)


def _thm11_point(s: SRing, mode: str, evaluators: list, g_eval, xs: tuple) -> list | None:
    """The thm11 check in ints, on integer points and the forms scaled by
    S-units: F | G in O_S iff F / gcd(F, G) is an S-unit.  It stops at the
    first F_i that vanishes or, in mode i, does not divide G."""
    gval = g_eval(xs)
    if gval == 0:
        return None
    fvals = []
    for ev in evaluators:
        f = ev(xs)
        if f == 0 or mode == "i" and not s.is_unit(f // gcd(f, gval)):
            return None
        fvals.append(f)
    if mode == "ii":
        f = prod(fvals)
        if not s.is_unit(f // gcd(f, gval)):
            return None
    return [*fvals, gval]


def _thm11_spec(forms: Sequence[MultiPoly], g_form: MultiPoly, mode: str, box: SearchBox,
                s: SRing, assert_general_position: bool) -> Search:
    """Mode 'i': F_i(x) | G(x) for every i; mode 'ii': prod F_i(x) | G(x);
    points where any F_i or G vanishes fail."""
    forms = list(forms)
    if mode not in ("i", "ii"):
        raise ValueError("mode must be 'i' or 'ii'")
    if not forms:
        raise ValueError("need at least one divisor form")
    degs = {f.total_degree() for f in forms}
    if len(degs) != 1 or not all(f.is_homogeneous() for f in forms):
        raise ValueError("degree hypothesis violated: the F_i must be "
                         "homogeneous of one common degree")
    d = degs.pop()
    if g_form.nvars != forms[0].nvars or not g_form.is_homogeneous() \
            or g_form.is_zero() or g_form.total_degree() > d:
        raise ValueError("degree hypothesis violated: G must be homogeneous "
                         "of degree <= deg(F_i)")
    for f in [*forms, g_form]:
        if any(not s.contains(c) for c in f.terms.values()):
            raise ValueError("forms must have S-integer coefficients")
    if d == 1:
        arrangement = forms + ([g_form] if g_form.total_degree() == 1 else [])
        if not hyperplanes_general_position(arrangement):
            raise ValueError("hyperplanes not in general position")
    elif not assert_general_position:
        raise ValueError("general position must be asserted for "
                         "non-hyperplane hypersurfaces")
    n = forms[0].nvars - 1
    if box.dim != n:
        raise ValueError("box dimension must match the projective dimension")
    descriptor = _descriptor(
        "thm11", box, s, True, forms=[str(f) for f in forms], g=str(g_form), mode=mode,
        threshold_ok=len(forms) >= (2 * n + 1 if mode == "i" else n + 2),
        assert_general_position=assert_general_position)
    scaled, g_scaled = [_scaled(f) for f in forms], _scaled(g_form)
    check = partial(_thm11_point, s, mode, [_int_evaluator(f) for f in scaled],
                    _int_evaluator(g_scaled))
    values = range(-box.bound, box.bound + 1)
    return Search(descriptor, box, s, check, values,
                  _thm11_rows_rule(scaled, g_scaled, s, values))


def _thm16_verdicts(values: Sequence, n: int, s: SRing) -> Iterator[bool]:
    """Per-index verdicts of the window ideal equality at every prime outside
    S, for the nonzero values F_i(x) (ints or Fractions) of a primitive point
    x, so min_j v_p(x_j) = 0.  A min of valuations is the valuation of a gcd
    and a sum that of a product: the values are in lowest terms, so window
    j's min is v_p(g_j), g_j = gcd(its numerators) / lcm(its denominators),
    and index i holds iff F_i / prod_{j=i-n+1..i} g_j is an S-unit."""
    q = len(values)
    nums = [v.numerator for v in values]
    dens = [v.denominator for v in values]
    win_nums = [gcd(*(nums[(j + t) % q] for t in range(n))) for j in range(q)]
    win_dens = [lcm(*(dens[(j + t) % q] for t in range(n))) for j in range(q)]
    for i in range(q):
        windows = range(i - n + 1, i + 1)       # negative j wrap around
        a = nums[i] * prod(win_dens[j] for j in windows)
        b = dens[i] * prod(win_nums[j] for j in windows)
        h = gcd(a, b)
        yield s.is_unit(a // h) and s.is_unit(b // h)


def _thm16_point(s: SRing, n: int, evaluators: list, xs: tuple) -> list | None:
    values = [ev(xs) for ev in evaluators]
    if any(v == 0 for v in values):
        return None
    return values if all(_thm16_verdicts(values, n, s)) else None


def _thm16_spec(forms: Sequence[MultiPoly], box: SearchBox, s: SRing) -> Search:
    """The window ideal equality at every index; points on a hyperplane of
    the family fail."""
    forms = list(forms)
    if not forms or len(forms) < 3 * (forms[0].nvars - 1):
        raise ValueError("need q >= 3n linear forms")
    if not hyperplanes_general_position(forms):
        raise ValueError("forms must be hyperplanes in general position")
    if box.dim != forms[0].nvars - 1:
        raise ValueError("box dimension must match the projective dimension")
    values = range(-box.bound, box.bound + 1)
    return Search(_descriptor("thm16", box, s, True, forms=[str(f) for f in forms]), box, s,
                  partial(_thm16_point, s, box.dim, [_int_evaluator(f) for f in forms]),
                  values, partial(_whole_row, values))


def _descriptor(kind: str, box: SearchBox, s: SRing, projective: bool, **params) -> dict:
    """What a solution set was searched for: its predicate and its box."""
    return {"kind": kind, **params, "dim": box.dim, "bound": box.bound,
            "denom_cap": box.denom_cap, "s_primes": list(s.primes),
            "projective": projective}


def _required(descriptor: dict, key: str):
    """descriptor[key]; a descriptor without the key is refused by name."""
    if key not in descriptor:
        raise ValueError(f"search descriptor lacks {key!r}")
    return descriptor[key]


def _poly_texts(texts) -> list:
    """texts, a descriptor's list of polynomial texts; anything but a list
    of strings is refused."""
    if type(texts) is not list or not all(type(t) is str for t in texts):
        raise ValueError(f"search descriptor polynomial texts {texts!r} are not strings")
    return texts


def search_spec(descriptor: dict) -> Search:
    """The search a descriptor names, its hypotheses validated once and its
    polynomial texts parsed once.  The input names the kind, the box (dim,
    bound, denom_cap), s_primes, the polynomial texts "forms" and "g", and
    for thm11 "mode" and "assert_general_position"; a run's cor12 g may come
    as the one entry of "forms".  A canonical descriptor decodes to a Search
    holding itself.  s_primes must be a list of int primes, every
    polynomial text a string, and denom_cap 0 where the box holds integer
    points only: a projective box, or cor12's with no S-primes.  cor12 and
    thm16 refuse a G beside their forms, a mode other than "i" and an
    asserted general position, which they would not read."""
    need = partial(_required, descriptor)
    s_primes = need("s_primes")
    if type(s_primes) is not list:
        raise ValueError(f"search descriptor s_primes {s_primes!r} is not a list")
    s = SRing(tuple(s_primes))
    box = SearchBox(need("dim"), need("bound"), need("denom_cap"))
    kind = need("kind")
    if kind not in ("cor12", "thm11", "thm16"):
        raise ValueError(f"unknown predicate kind {kind!r}")
    if kind != "thm11":
        # G, the mode and the general-position assertion are thm11's alone
        if "forms" in descriptor and descriptor.get("g") is not None:
            raise ValueError(f"{kind} reads no G: a 'G:' line marks thm11's reference form")
        if descriptor.get("mode", "i") != "i":
            raise ValueError(f"{kind} has no mode {descriptor['mode']!r}: --mode ii is thm11's")
        if descriptor.get("assert_general_position"):
            raise ValueError(f"{kind} takes no general-position assertion: "
                             "--assert-general-position is thm11's")
    if box.denom_cap and (kind != "cor12" or not s.primes):
        raise ValueError(f"{kind} searches integer points only (a projective box, or "
                         "no S-primes): denom_cap must be 0")
    if kind == "cor12":
        texts = _poly_texts(descriptor["forms"] if "forms" in descriptor else [need("g")])
        if len(texts) != 1:
            raise ValueError("cor12 needs exactly one polynomial line (g)")
        return _cor12_spec(parse_poly(texts[0], box.dim), box, s)
    forms = [parse_poly(t, box.dim + 1) for t in _poly_texts(need("forms"))]
    if kind == "thm16":
        return _thm16_spec(forms, box, s)
    if descriptor.get("g") is None:
        raise ValueError("thm11 needs a 'G:' line in the forms file")
    g_form = parse_poly(_poly_texts([descriptor["g"]])[0], box.dim + 1)
    return _thm11_spec(forms, g_form, need("mode"),
                       box, s, need("assert_general_position"))


# ---------------------------------------------------------------------------
# the search driver
# ---------------------------------------------------------------------------

# A prefix whose g(x', 0) (cor12) or H(x') (thm11) has a larger non-S part
# gets its full row: past this size factoring can cost more than checking it.
_ROW_FACTOR_BOUND = 1 << 64


def _row_divisors(h: Fraction | int, s: SRing) -> list[int] | None:
    """The divisors of the non-S part of h's numerator, or None (take the
    whole row) when h = 0 or that part is too large to factor."""
    if h == 0:
        return None
    try:
        return _divisors(s.strip_s_part(abs(h.numerator)), _ROW_FACTOR_BOUND)
    except FactorizationBoundError:
        return None


def _whole_row(values: Sequence, prefix: tuple) -> Sequence:
    return values


def _cor12_lasts(const: int, linear: list[int], parts: dict, by_part: dict, values: list,
                 s: SRing, prefix: tuple) -> list:
    """The last coordinates t after the prefix x' that can pass the cor12
    check.  A passing point has a = prod x_i * u | g(x) with u = 1 - sum x_i,
    so each of t, u and the x_i of x' divides g(x) in O_S (if a = 0, then
    g(x) = 0, which they all divide).  Write c = g(x', 0) and r = 1 - sum x',
    so g(x) = c + g_t t (g has degree <= 1), u = r - t, and g(x) = K - g_t u
    with K = c + g_t r free of t.  Then:
    - t | c, or c = 0: t runs over the values whose numerator's non-S part
      (by_part's key) divides c's numerator, or over the whole row;
    - the lcm m of the non-S parts (parts' values) of the nonzero x_i of x'
      divides g(x)'s numerator;
    - u | K in O_S, and K = 0 when u = 0.
    All three run in ints over the prefix's common denominator d, an S-unit,
    with c times an S-unit, from g's integer-scaled coefficients const, linear."""
    d = lcm(*[x.denominator for x in prefix])
    big = [x.numerator * (d // x.denominator) for x in prefix]
    g_t = linear[-1]
    c = const * d + sum(map(mul, linear, big))      # d g(x', 0): map stops at the prefix
    r = d - sum(big)                                # d (1 - sum x')
    k = c + g_t * r                                 # d K
    m = lcm(*[parts[x] for x in prefix if x])
    if g_t == 0 and c % m:                          # g(x) = c on the whole row
        return []
    divs = _row_divisors(c, s)
    lasts = []
    for t in values if divs is None else [v for dv in divs for v in by_part.get(dv, ())]:
        num, den = t.numerator, t.denominator
        u = r * den - num * d                       # d den u
        if (c * den + g_t * num * d) % m == 0 \
                and (s.is_unit(u // gcd(u, k)) if u else k == 0):
            lasts.append(t)
    return lasts


def _s_units(s: SRing, bound: int) -> list[int]:
    """The positive S-units (products of S-primes) up to bound, ascending."""
    units = [1] if bound >= 1 else []
    for p in s.primes:
        grown = []
        for u in units:
            while u <= bound:
                grown.append(u)
                u *= p
        units = grown
    return sorted(units)


def _thm11_lasts(f: list, g: list, g_const: int, units: list, top: int, values: range,
                 s: SRing, prefix: tuple) -> Iterable[int]:
    """The last coordinates t after the prefix x' that can pass the thm11
    check, for F = f.x with a_t = f[-1] != 0, G = g_const + g.x, and units
    the S-units up to top = max |F| on the box, ascending.  Both modes need
    F(x) | G(x), hence F(x) | H(x') = a_t G(x', 0) - b_t F(x', 0); when
    H(x') != 0, F(x) = +-d*u for d | H's non-S part and u in units."""
    a_t, bound = f[-1], values[-1]
    f0 = sum(map(mul, f, prefix))           # F(x', 0): map stops at the prefix
    divs = _row_divisors(a_t * (g_const + sum(map(mul, g, prefix))) - g[-1] * f0, s)
    if divs is None:
        return values
    lasts = []
    for d in divs:
        for u in units:
            if d * u > top:
                break
            for v in (d * u, -d * u):
                t, r = divmod(v - f0, a_t)
                if r == 0 and -bound <= t <= bound:
                    lasts.append(t)
    return lasts


def _thm11_rows_rule(forms: Sequence[MultiPoly], g: MultiPoly, s: SRing, values: range):
    """thm11's last coordinates over values from the first linear F with
    a_t != 0, for F and G with integer coefficients; every row whole for
    forms of degree >= 2 or linear forms that all miss the last coordinate."""
    ncoords = g.nvars
    linear = [f.linear_coefficients() for f in forms if f.total_degree() == 1]
    fs = next((c for c in linear if c[-1] != 0), None)
    if fs is None:
        return partial(_whole_row, values)
    f = [int(c) for c in fs]
    top = sum(map(abs, f)) * values[-1]
    # G is homogeneous of degree <= 1: a linear form or a nonzero constant
    gs = g.linear_coefficients() if g.total_degree() == 1 else (0,) * ncoords
    return partial(_thm11_lasts, f, [int(c) for c in gs], int(g.terms.get((0,) * ncoords, 0)),
                   _s_units(s, top), top, values, s)


def _walk(search: Search, firsts: Iterable) -> Iterator[tuple]:
    """The candidate points whose first coordinate is in firsts; projective
    points only when coprime with first nonzero coordinate positive."""
    projective = search.descriptor["projective"]
    ncoords = search.box.dim + projective
    if ncoords == 1:
        row = search.lasts(())
        yield from ((t,) for t in firsts if t in row)
        return
    for prefix in product(firsts, *[search.values] * (ncoords - 2)):
        for t in search.lasts(prefix):
            xs = (*prefix, t)
            if not projective or (gcd(*xs) == 1 and (xs[0] or next(c for c in xs if c)) > 0):
                yield xs


def _search_part(search: Search, firsts: list) -> list[SolutionSet]:
    """The solutions with each first coordinate of firsts, in order."""
    parts = []
    for v in firsts:
        out = SolutionSet(search.descriptor)
        for xs in _walk(search, (v,)):
            values = search.check(xs)
            if values is not None:
                out.points.append(xs)
                out.witnesses.append(_witness_map(values, search.s))
        parts.append(out)
    return parts


# A part of a search holds the first coordinates of about this many rows of
# len(values) candidates: 32 for points of two coordinates, one for three or
# more once there are 32 values, and all of them for one.  Each part costs
# a pool task, ~0.1 ms of the parent's time.
_PART_ROWS = 32


def _by_first(search: Search, firsts: Sequence, workers: int) -> Iterator:
    """(v, solutions with first coordinate v) for each v of firsts,
    in order, from parts of about _PART_ROWS rows sharded over one pool."""
    n = len(search.values)
    ncoords = search.box.dim + search.descriptor["projective"]
    parts = sharded(partial(_search_part, search), firsts, workers,
                    max(1, _PART_ROWS * n // n ** (ncoords - 1)))
    return zip(firsts, chain.from_iterable(parts))


def run_search(search: Search, workers: int = 1) -> SolutionSet:
    """The points of the search's box that pass its check, with their
    witnesses, in graded order.  The first coordinates are sharded over
    workers, and the parts are merged and sorted once."""
    out = SolutionSet(search.descriptor)
    for _, part in _by_first(search, search.firsts, workers):
        out.extend(part)
    out.sort()
    return out


# ---------------------------------------------------------------------------
# persistence with re-verification
# ---------------------------------------------------------------------------

def solution_set_text(sols: SolutionSet) -> str:
    """A solution file: the header line, then one line per solution."""
    predicate = sols.descriptor["kind"]
    records = (json.dumps({**rec, "predicate": predicate}, sort_keys=True) for rec in sols.records())
    header = header_json(kind="solution-set", descriptor=sols.descriptor)
    return "\n".join([header, *records]) + "\n"


def _witnesses_match(stored, values: list, s: SRing, keys: dict) -> bool:
    """Whether stored is the witness map of the checked values, without
    factoring them: every key names a prime outside S (keys caches that
    verdict per key), its list holds each value's valuation there, None at
    exactly the zero values, and no nonzero value keeps a prime outside S
    once the listed ones are divided out."""
    if not isinstance(stored, dict):
        return False
    nums = [abs(v.numerator) or 1 for v in values]      # a zero value leaves 1
    dens = [v.denominator for v in values]
    for key, vps in stored.items():
        if key not in keys:
            p = int(key) if key.isdecimal() else 0
            keys[key] = p if str(p) == key and p not in s.primes and is_prime(p) else None
        p = keys[key]
        if p is None or not isinstance(vps, list) or len(vps) != len(values) \
                or all(e is None or e == 0 for e in vps):
            return False
        for i, (v, e) in enumerate(zip(values, vps)):
            if v == 0 or e is None:
                if v != 0 or e is not None:
                    return False
                continue
            k = _vp(v, p)
            if type(e) is not int or e != k:
                return False
            if k > 0:
                nums[i] //= p ** k
            elif k < 0:
                dens[i] //= p ** -k
    return s.is_unit(prod(nums) * prod(dens))


def _stored_point(texts) -> tuple:
    """A stored point, a JSON list of its coordinates' texts, read back: each
    text must be str of its value, an int or a Fraction in lowest terms."""
    if not isinstance(texts, list):
        raise ValueError(f"stored point {texts!r} is not a list of coordinates")
    point = []
    for text in texts:
        try:
            num, _, den = text.partition("/")
            c = Fraction(int(num), int(den)) if den else int(num)
        except (AttributeError, ValueError, ZeroDivisionError):
            c = None
        if c is None or str(c) != text:
            raise ValueError(f"stored coordinate {text!r} is not canonical")
        point.append(c)
    return tuple(point)


def _records_solution_set(descriptor: dict, records: Iterable[dict],
                          search: Search | None) -> SolutionSet:
    """Stored records ({"point", "witnesses"}) as a solution set.  Given the
    search of the descriptor, every point is re-checked; a point outside the
    search's box, a projective point not in normalized form, a failing
    point, or stored witnesses that are not the witness map of the check's
    values raise.  None skips the re-check; a coordinate that is not
    canonical text raises either way."""
    keys: dict = {}
    projective = _required(descriptor, "projective")
    if search is not None:
        box, s = search.box, search.s
        # coordinates of the box: |numerator| <= B and a denominator dividing
        # prod_{p in S} p^denom_cap (projective boxes hold integers only)
        denoms = 1 if projective else prod(p ** box.denom_cap for p in s.primes)
    out = SolutionSet(descriptor)
    for rec in records:
        if not isinstance(rec, dict) or not {"point", "witnesses"} <= rec.keys():
            raise ValueError(f"malformed solution record {rec!r}")
        point = _stored_point(rec["point"])
        if search is not None:
            if len(point) != box.dim + projective or any(
                    abs(c.numerator) > box.bound or denoms % c.denominator for c in point):
                raise ValueError(f"stored point {rec['point']} is not a point of the search box")
            if projective and ProjPoint.normalize(point).coords != point:
                raise ValueError(f"stored point {rec['point']} is not normalized")
            values = search.check(point)
            if values is None:
                raise ValueError(f"stored point {rec['point']} fails its predicate")
            if not _witnesses_match(rec["witnesses"], values, s, keys):
                raise ValueError(f"stored point {rec['point']} has witnesses that differ "
                                 "from its predicate")
        out.points.append(point)
        out.witnesses.append(rec["witnesses"])
    return out


def load_solution_set(path: str, reverify: bool = True) -> SolutionSet:
    """Load a saved solution set; each record must name the descriptor's
    kind as its predicate.  By default the stored descriptor must also be
    canonical and every stored point re-verifies its predicate (a mismatch
    raises)."""
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty solution file")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("kind") != "solution-set":
        raise ValueError("not a solution-set file")
    if "descriptor" not in header:
        raise ValueError("solution file header lacks 'descriptor'")
    descriptor, search = header["descriptor"], None
    if not isinstance(descriptor, dict):
        raise ValueError("solution file descriptor is not a JSON object")
    if reverify:
        search = search_spec(descriptor)
        if search.descriptor != descriptor:
            raise ValueError("stored descriptor differs from its canonical form")
    kind = _required(descriptor, "kind")
    records = [json.loads(line) for line in lines[1:]]
    for rec in records:
        if isinstance(rec, dict) and rec.get("predicate") != kind:
            raise ValueError(f"stored point {rec.get('point')} is a solution of predicate "
                             f"{rec.get('predicate')!r}, not {kind!r}")
    return _records_solution_set(descriptor, records, search)


def _open_checkpoint(path: str, search: Search) -> tuple[SolutionSet, set[str]]:
    """The re-verified solutions and the completed first-coordinate ranges
    of the checkpoint at path.

    A torn final line (no trailing newline, or not JSON) is cut off in
    place, by truncating the file after its last complete line; an absent
    or empty file is started with the header line.  A checkpoint whose
    header differs (another search, or another version), a malformed or
    failing record, a point stored under another first coordinate, or a
    point stored twice raises, and leaves the file as it was.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = b""
    header = header_json(kind="checkpoint", descriptor=search.descriptor)
    body = data[:data.rfind(b"\n") + 1].rstrip()      # complete lines, trailing blanks cut
    last = body.rpartition(b"\n")[2]
    try:
        json.loads(last)
    except ValueError:                                 # a torn last line: not JSON
        body = body[:len(body) - len(last)].rstrip()
    lines = [line for line in body.split(b"\n") if line.strip()]
    if lines and json.loads(lines[0]) != json.loads(header):
        raise ValueError(f"checkpoint {path} was written for another search or version")
    ranges = [json.loads(line) for line in lines[1:]]
    if not all(isinstance(r, dict) and {"first", "records"} <= r.keys() for r in ranges):
        raise ValueError(f"checkpoint {path} holds a malformed record")
    firsts = [r["first"] for r in ranges for _ in r["records"]]
    merged = _records_solution_set(search.descriptor,
                                   (rec for r in ranges for rec in r["records"]), search)
    seen: set[tuple] = set()
    for first, point in zip(firsts, merged.points):
        if str(point[0]) != first or point in seen:
            where = "twice" if str(point[0]) == first else f"under first coordinate {first}"
            raise ValueError(f"checkpoint {path} stores point {[str(c) for c in point]} {where}")
        seen.add(point)
    kept = data.index(b"\n", len(body)) + 1 if body else 0
    if kept < len(data):
        os.truncate(path, kept)
    if not kept:
        with open(path, "a") as fh:
            fh.write(header + "\n")
    return merged, {r["first"] for r in ranges}


def search_with_checkpoint(path: str, search: Search, workers: int = 1) -> SolutionSet:
    """run_search, resumable: the checkpoint at path holds a header line
    (version and descriptor) and one line per completed first coordinate.
    Resumed records re-verify through the search's check.  The missing
    first coordinates go through _by_first's one pool, and each one's line
    is appended and flushed, in order, as its part arrives, so a crash
    loses only the coordinates not yet appended."""
    merged, done = _open_checkpoint(path, search)
    pending = [v for v in search.firsts if str(v) not in done]
    with open(path, "a") as ck:
        for v, part in _by_first(search, pending, workers):
            part.sort()
            ck.write(json.dumps({"first": str(v), "records": part.records()}) + "\n")
            ck.flush()
            merged.extend(part)
    merged.sort()
    return merged


# ---------------------------------------------------------------------------
# degeneracy analysis
# ---------------------------------------------------------------------------

def vanishing_forms(points: Sequence[tuple], degree: int,
                    projective: bool = False) -> list[MultiPoly]:
    """Basis of forms of degree <= degree (affine) or exactly degree
    (projective) vanishing on all the points: the exact kernel of the
    monomial-evaluation matrix.  An empty basis means the points lie on no
    such hypersurface."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if not points:
        raise ValueError("no points given")
    nvars = len(points[0])
    exps = monomial_exponents(nvars, degree, homogeneous=projective)
    # lazy rows (none past full rank is built), each scaled by prod_i
    # den(x_i)^degree to integers; tables[i][k] = num(x_i)^k den(x_i)^(degree - k)
    tables = ([[x.numerator ** k * x.denominator ** (degree - k) for k in range(degree + 1)]
               for x in pt] for pt in points)
    basis = kernel_basis([prod(map(getitem, t, e)) for e in exps] for t in tables)
    return [MultiPoly(nvars, dict(zip(exps, vec))) for vec in basis]


def _rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """Exact rational roots of sum_k coeffs[k] t^k (nonzero polynomial)."""
    denom = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        raise ValueError("zero polynomial has every root")
    roots: set[Fraction] = set()
    low = next(i for i, c in enumerate(ints) if c != 0)
    if low > 0:
        roots.add(Fraction(0))
        ints = ints[low:]
    if len(ints) == 1:
        return sorted(roots)
    deg = len(ints) - 1
    for p in _divisors(abs(ints[0])):
        for q in _divisors(abs(ints[-1])):
            if gcd(p, q) != 1:
                continue
            for r in (p, -p):
                # q^deg times the polynomial at r/q
                if sum(c * r ** k * q ** (deg - k) for k, c in enumerate(ints)) == 0:
                    roots.add(Fraction(r, q))
    return sorted(roots)


def _restrict(f: MultiPoly, value: Fraction) -> list[Fraction]:
    """Coefficient list of f with x0 := value, in x1."""
    deg = max(e[1] for e in f.terms)
    out = [Fraction(0)] * (deg + 1)
    for e, c in f.terms.items():
        out[e[1]] += c * value ** e[0]
    return out


def linear_factors_2var(f: MultiPoly) -> list[MultiPoly]:
    """Linear factors (with multiplicity) of a 2-variable polynomial over Q,
    found by exact rational root extraction on 1-variable restrictions.
    Each factor is primitive (see _primitive_form), so its str names its
    line.  The candidates are taken once, from f: every linear factor of a
    quotient divides f, so it is one of them."""
    if f.nvars != 2:
        raise ValueError("linear factor extraction works in 2 variables")
    factors: list[MultiPoly] = []
    rem = f
    for cand in _linear_factor_candidates(f) if f.total_degree() >= 1 else ():
        while (quot := rem.divide_by_linear(cand)) is not None:
            factors.append(cand)
            rem = quot
    return factors


def _primitive_form(terms: dict, nvars: int) -> MultiPoly:
    """The form with these terms (zeros dropped) scaled to coprime integer
    coefficients, the leading one (highest degree, then largest exponents
    first) positive: one form for each line."""
    denom = lcm(*(c.denominator for c in terms.values()))
    ints = {e: int(c * denom) for e, c in terms.items() if c != 0}
    g = gcd(*ints.values())
    lead = min(ints, key=lambda e: (-sum(e), tuple(-x for x in e)))
    sign = 1 if ints[lead] > 0 else -1
    return MultiPoly(nvars, {e: Fraction(sign * c, g) for e, c in ints.items()})


def _linear_factor_candidates(f: MultiPoly) -> list[MultiPoly]:
    cands: list[MultiPoly] = []
    deg_y = max(e[1] for e in f.terms)
    # vertical factors x0 - c force the top x1-coefficient to vanish at c;
    # when f is free of x1 that coefficient is f, and each test line below
    # restricts f to a nonzero constant, which adds no candidate
    lead = [Fraction(0)] * (max(e[0] for e in f.terms) + 1)
    for e, c in f.terms.items():
        if e[1] == deg_y:
            lead[e[0]] += c
    for root in _rational_roots(lead):
        cands.append(_primitive_form({(1, 0): Fraction(1), (0, 0): -root}, 2))
    # non-vertical factors hit rational points on two test lines x0 = t
    tests: list[tuple[Fraction, list[Fraction]]] = []
    t = Fraction(0)
    while len(tests) < 2:
        coeffs = _restrict(f, t)
        if any(c != 0 for c in coeffs):
            tests.append((t, _rational_roots(coeffs)))
        t += 1
    (t1, roots1), (t2, roots2) = tests
    for r1 in roots1:
        for r2 in roots2:
            # line through (t1, r1) and (t2, r2); t1 != t2 so not vertical
            slope = (r2 - r1) / (t2 - t1)
            terms = {(1, 0): -slope, (0, 1): Fraction(1),
                     (0, 0): slope * t1 - r1}
            cands.append(_primitive_form(terms, 2))
    return cands


def plane_linear_factors(f: MultiPoly) -> list[MultiPoly]:
    """Primitive linear factors of a plane form: affine in 2 variables, or
    projective (homogeneous in 3), which is dehomogenized at x2 = 1 (powers
    of x2 split off first) and its factors rehomogenized.  Only the plane
    splits into lines; other forms are refused."""
    if f.nvars == 2:
        return linear_factors_2var(f)
    if f.nvars != 3 or not f.is_homogeneous():
        raise ValueError("projective factor extraction works on homogeneous P^2 forms")
    factors: list[MultiPoly] = []
    x2 = MultiPoly.variable(2, 3)
    rem = f
    while (quot := rem.divide_by_linear(x2)) is not None:
        factors.append(x2)
        rem = quot
    affine = MultiPoly(2, {(e[0], e[1]): c for e, c in rem.terms.items()})
    return factors + [MultiPoly(3, {(a, b, 1 - a - b): c for (a, b), c in lf.terms.items()})
                      for lf in linear_factors_2var(affine)]


def degeneracy_report(points: Sequence[tuple], max_degree: int,
                      projective: bool = False) -> dict:
    """The degeneracy report as a JSON-ready dict: per degree d in
    1..max_degree (text keys), the dimension and a basis of the forms
    vanishing on the points, and whether each form splits into lines; and
    the lines found, each {"line": its primitive form, "count": the points on
    it}, most points first.  Lines are split off only in the plane (affine
    in 2 variables, or projective in 3); elsewhere no form splits."""
    plane = bool(points) and len(points[0]) == (3 if projective else 2)
    kernel_dims, kernel_forms, splits = {}, {}, {}
    lines: dict[str, MultiPoly] = {}
    for d in range(1, max_degree + 1) if points else ():
        forms = vanishing_forms(points, d, projective)
        factored = [plane_linear_factors(f) if plane else [] for f in forms]
        kernel_dims[str(d)] = len(forms)
        kernel_forms[str(d)] = [str(f) for f in forms]
        splits[str(d)] = [plane and sum(lf.total_degree() for lf in lfs) == f.total_degree()
                          for f, lfs in zip(forms, factored)]
        lines.update((str(lf), lf) for lfs in factored for lf in lfs)
    components = [{"line": key, "count": sum(1 for p in points if lf.evaluate(p) == 0)}
                  for key, lf in lines.items()]
    components.sort(key=lambda rec: (-rec["count"], rec["line"]))
    return {"n_points": len(points), "kernel_dims": kernel_dims,
            "kernel_forms": kernel_forms, "splits_linearly": splits,
            "line_components": components}
