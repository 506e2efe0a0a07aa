"""Divisor classes and intersection numbers on blow-ups of P^n at points.

The Chow ring used here is hard-coded to the blow-up of projective n-space
at r distinct points: H^n = 1, E_i^n = (-1)^(n-1), and every mixed product
of H with an E_i, or of two distinct E_i, vanishes.

A class is stored in one canonical exact form: integers a and b_i over one
positive common denominator d, in lowest terms (gcd(d, a, b_1..b_r) = 1),
with b held sparse as {i: b_i} over its nonzero entries.  It stands for
(a*H - sum_i b_i*E_i)/d, and ``a``/``b`` read it back as Fractions.  The
top product of n classes (a_j*H - sum_i b_{j,i}*E_i)/d_j is

    (prod_j a_j  -  sum_{i in S} prod_j b_{j,i}) / prod_j d_j,

where S is the support of the sparsest class: at every other index one
factor is 0.  A run of one class object among the factors, as in
D^k*Ht^(n-k), enters as a power (a_D**k, b_{D,i}**k), so a product is one
integer pass and one Fraction.

Two point/hyperplane configurations are built in: the cyclic one (q >= 3n
hyperplanes, each consecutive window of n of them meeting in a blown-up
point) and the marked one (2n hyperplanes, n+1 points with P_i on H_i
only).  Incidence is combinatorial, fixed by the kind; intersection numbers
depend on nothing else.

Sign convention: the named basis class E_i carries a unit b-vector, and a
class meets the fiber line inside the i-th exceptional locus in exactly
b_i.  Strict transforms d*H - sum m_i*E_i therefore store b = m >= 0.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

from ._records import Frozen
from .poly import _signed_terms


def _rational(x):
    """x itself when it is an int or a Fraction, else Fraction(x)."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


class DivisorClass(Frozen):
    """Class a*H - sum_i b_i*E_i on the blow-up of P^n at r = len(b) points.

    Immutable.  Built from numbers (ints, Fractions, or anything Fraction
    accepts); held as integer numerators ``_a`` and ``_b`` (index ->
    nonzero numerator, in index order) over the positive denominator
    ``_den``, in lowest terms, so equal classes have equal fields.
    """

    __slots__ = ("n", "r", "_a", "_b", "_den")

    def __init__(self, n: int, a, b: Sequence):
        a, b = _rational(a), tuple(_rational(x) for x in b)
        den = lcm(a.denominator, *(x.denominator for x in b))
        self._set(n, len(b), a.numerator * (den // a.denominator),
                  {i: x.numerator * (den // x.denominator) for i, x in enumerate(b)},
                  den)

    @classmethod
    def _exact(cls, n: int, r: int, a: int, b: dict[int, int], den: int = 1) -> "DivisorClass":
        """The class (a*H - sum_i b[i]*E_i)/den, from integers with den > 0
        and the keys of b in increasing order (zero values allowed)."""
        self = object.__new__(cls)
        self._set(n, r, a, b, den)
        return self

    def _set(self, n, r, a, b, den):
        if n < 1 or r < 0:
            raise ValueError("invalid (n, r)")
        g = gcd(den, a, *b.values())
        self._assign(n, r, a // g, {i: v // g for i, v in b.items() if v}, den // g)

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._den)

    @property
    def b(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(self._b.get(i, 0), self._den) for i in range(self.r))

    def _key(self) -> tuple:
        return (self.n, self.r, self._a, self._den, tuple(self._b.items()))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"DivisorClass(n={self.n!r}, a={self.a!r}, b={self.b!r})"

    def __reduce__(self):
        return DivisorClass, (self.n, self.a, self.b)

    def _combine(self, other: "DivisorClass", sign: int) -> "DivisorClass":
        if (self.n, self.r) != (other.n, other.r):
            raise ValueError("mismatched (n, r)")
        den = lcm(self._den, other._den)
        m1, m2 = den // self._den, sign * (den // other._den)
        b1, b2 = self._b, other._b
        b = {i: b1.get(i, 0) * m1 + b2.get(i, 0) * m2 for i in sorted(b1.keys() | b2.keys())}
        return DivisorClass._exact(self.n, self.r, self._a * m1 + other._a * m2, b, den)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, 1)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, -1)

    def __mul__(self, c) -> "DivisorClass":
        c = _rational(c)
        p = c.numerator
        return DivisorClass._exact(self.n, self.r, p * self._a,
                                   {i: p * v for i, v in self._b.items()},
                                   c.denominator * self._den)

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {"n": self.n, "r": self.r, "a": str(self.a),
                "b": [str(x) for x in self.b]}


def pullback_hyperplane(n: int, r: int) -> DivisorClass:
    return DivisorClass._exact(n, r, 1, {})


def e_class(n: int, r: int, i: int) -> DivisorClass:
    """Named basis class E_i: zero H-part, unit b-vector at i (0-based)."""
    # range(r)[i] indexes as a list would: negative i from the end, IndexError past r
    return DivisorClass._exact(n, r, 0, {range(r)[i]: 1})


def top_intersection(classes: Sequence[DivisorClass]) -> Fraction:
    """Top Chow product of n divisor classes on the same blow-up.

    A run of one class object (D, D, ..., D) enters as one factor raised to
    the run's length; equal classes held by different objects stay separate
    factors, which gives the same value.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("empty product")
    prev = classes[0]
    n, r = prev.n, prev.r
    if len(classes) != n:
        raise ValueError(f"top product needs exactly n = {n} classes")
    runs = []
    e = 0
    for c in classes:
        if c is prev:
            e += 1
            continue
        if c.n != n or c.r != r:
            raise ValueError("mismatched (n, r)")
        runs.append((prev, e))
        prev, e = c, 1
    runs.append((prev, e))
    total = den = 1
    sparsest = prev._b
    for c, e in runs:
        total *= c._a ** e
        den *= c._den ** e
        if len(c._b) < len(sparsest):
            sparsest = c._b
    for i in sparsest:
        term = 1
        for c, e in runs:
            term *= c._b.get(i, 0) ** e
        total -= term
    return Fraction(total, den)


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

class BlowupConfig(Frozen):
    """Combinatorial incidence of blown-up points on a hyperplane family.

    kind is "cyclic" (q >= 3n hyperplanes and r = q points, P_i the
    intersection of the window H_{i-n+1..i}) or "marked" (q = 2n
    hyperplanes and r = n+1 points, P_i on H_i only), with n >= 2; r and
    incidence are derived.  incidence[i] is the (0-based) frozenset of
    point indices on hyperplane i.
    """

    __slots__ = ("n", "kind", "q", "r", "incidence")

    def __init__(self, n: int, kind: str, q: int):
        if kind not in ("cyclic", "marked"):
            raise ValueError(f"unknown configuration kind {kind!r}")
        if n < 2:
            raise ValueError("n must be >= 2")
        if kind == "cyclic":
            if q < 3 * n:
                raise ValueError("cyclic configuration needs q >= 3n")
            r = q
            incidence = tuple(frozenset((i - j) % q for j in range(n)) for i in range(q))
        else:
            if q != 2 * n:
                raise ValueError("marked configuration needs q = 2n")
            r = n + 1
            incidence = tuple(frozenset({i}) if i < r else frozenset() for i in range(q))
        self._assign(n, kind, q, r, incidence)


def cyclic_config(n: int, q: int) -> BlowupConfig:
    """q >= 3n hyperplanes, point P_i = intersection of window H_{i-n+1..i}."""
    return BlowupConfig(n, "cyclic", q)


def marked_config(n: int) -> BlowupConfig:
    """2n hyperplanes, n+1 points with P_i on H_i only."""
    return BlowupConfig(n, "marked", 2 * n)


def config_classes(cfg: BlowupConfig, ell: int | None = None) -> dict[str, DivisorClass]:
    """Named classes of a configuration.

    Cyclic: takes no ell and yields D = q*H - n*sum(E) plus the strict
    transforms Ht1..Htq.
    Marked: needs ell >= 1 and yields A = (ell(n+1)+1)*H - ell*sum(E)
    plus Ht1..Ht2n.
    """
    n, q, r = cfg.n, cfg.q, cfg.r
    if cfg.kind == "cyclic" and ell is not None:
        raise ValueError("cyclic configuration takes no ell")
    out: dict[str, DivisorClass] = {}
    for i, points in enumerate(cfg.incidence):
        out[f"Ht{i + 1}"] = DivisorClass._exact(n, r, 1, dict.fromkeys(sorted(points), 1))
    if cfg.kind == "cyclic":
        out["D"] = DivisorClass._exact(n, r, q, dict.fromkeys(range(r), n))
    else:
        if ell is None or ell < 1:
            raise ValueError("marked configuration needs a positive integer ell")
        out["A"] = DivisorClass._exact(n, r, ell * (n + 1) + 1, dict.fromkeys(range(r), ell))
    out["H"] = pullback_hyperplane(n, r)
    return out


# ---------------------------------------------------------------------------
# curves and nef testing
# ---------------------------------------------------------------------------

class CurveClass(Frozen):
    """Test curve: a line in one E_i, or the strict transform of a line
    through a set of blown-up points (multiplicity 1 at each)."""

    __slots__ = ("kind", "points")

    def __init__(self, kind: str, points: tuple[int, ...]):
        # kind is "exceptional-line" or "line-through-point-set"; points are
        # 0-based point indices
        self._assign(kind, points)

    @property
    def image_degree(self) -> int:
        """Degree of the curve's image in P^n: 0 for an exceptional line."""
        return 0 if self.kind == "exceptional-line" else 1

    def describe(self) -> str:
        if self.kind == "exceptional-line":
            return f"line inside E{self.points[0] + 1}"
        if not self.points:
            return "general line"
        names = ",".join(f"P{i + 1}" for i in self.points)
        return f"line through {names}"


def curve_value(cls: DivisorClass, curve: CurveClass) -> Fraction:
    """Intersection number of a divisor class with a test curve."""
    if curve.kind == "exceptional-line":
        return Fraction(cls._b.get(curve.points[0], 0), cls._den)
    return Fraction(cls._a * curve.image_degree
                    - sum(cls._b.get(i, 0) for i in curve.points), cls._den)


def curve_family(cfg: BlowupConfig) -> tuple[CurveClass, ...]:
    """The finite witness family: exceptional lines, the general line, and
    strict transforms of lines through every 1- and 2-point subset (lines
    inside an H_i through its point set have the same classes)."""
    r = cfg.r
    fam = [CurveClass("exceptional-line", (i,)) for i in range(r)]
    fam.append(CurveClass("line-through-point-set", ()))
    fam.extend(CurveClass("line-through-point-set", (i,)) for i in range(r))
    fam.extend(CurveClass("line-through-point-set", pair)
               for pair in combinations(range(r), 2))
    return tuple(fam)


class NefResult(Frozen):
    __slots__ = ("status", "witness", "certificate", "min_value")

    def __init__(self, status: str, witness: CurveClass | None, certificate: str | None,
                 min_value: Fraction):
        # status is "certified-nef", "fails-witness" or "inconclusive"
        self._assign(status, witness, certificate, min_value)

    def describe(self) -> str:
        if self.status == "fails-witness":
            assert self.witness is not None
            return (f"fails-witness: {self.witness.describe()} meets the class "
                    f"in {self.min_value}")
        if self.status == "certified-nef":
            return f"certified-nef: {self.certificate}"
        return ("inconclusive: witness family nonnegative but the class matches "
                "no certified family")


def _match_cyclic(cls: DivisorClass, cfg: BlowupConfig) -> str | None:
    """Match cls = t*(D - m*Ht_i), t > 0, 0 <= m <= n (m = 0 is t*D)."""
    n, q = cfg.n, cfg.q
    a, b = cls.a, cls.b
    for i in range(q):
        window = cfg.incidence[i]
        out_idx = next(j for j in range(q) if j not in window)
        t = b[out_idx] / n
        if t <= 0:
            continue
        if any(b[j] != t * n for j in range(q) if j not in window):
            continue
        inside = {b[j] for j in window}
        if len(inside) != 1:
            continue
        m = n - inside.pop() / t
        if not (0 <= m <= n):
            continue
        if a != t * (q - m):
            continue
        scale = "" if t == 1 else f"{t} * "
        mtxt = f" - {m}*Ht{i + 1}" if m else ""
        return (f"nef family for the cyclic configuration (q >= 3n, 0 <= m <= n): "
                f"{scale}(D{mtxt})")
    return None


def _match_marked(cls: DivisorClass, cfg: BlowupConfig) -> str | None:
    """Nonnegative combination of the certified-nef strict transforms.

    Every Ht_i is nef in the marked configuration, and Ht_{n+2} is the
    pullback hyperplane, so any class with b_i >= 0 and a >= sum(b) is a
    nonnegative combination sum b_i*(H - E_i) + (a - sum b)*H of certified
    classes.  This covers Ht_i and the ample-side class A itself.
    """
    n = cfg.n
    a, b = cls.a, cls.b
    if any(x < 0 for x in b):
        return None
    slack = a - sum(b, Fraction(0))
    if slack < 0:
        return None
    if a == 1 and sum(b) == 1 and set(b) <= {Fraction(0), Fraction(1)}:
        i = b.index(Fraction(1))
        return f"marked strict transform Ht{i + 1} (nef for every index)"
    ells = set(b)
    if len(ells) == 1:
        ell = ells.pop()
        if ell > 0 and a == ell * (n + 1) + 1:
            return f"marked class A with ell = {ell} (combination of nef strict transforms)"
    parts = [f"{b[i]}*Ht{i + 1}" for i in range(n + 1) if b[i]]
    if slack:
        parts.append(f"{slack}*Ht{n + 2}")
    return ("nonnegative combination of marked nef strict transforms: "
            + (" + ".join(parts) if parts else "0"))


def nef_test(cls: DivisorClass, cfg: BlowupConfig) -> NefResult:
    """Two-tier nef test.

    Tier 1 (necessary): intersect with the finite witness family; any
    negative value is a failure witness.  Tier 2 (sufficient): if all
    witnesses are nonnegative and the class matches a certified family of
    the configuration, it is certified nef; otherwise the verdict is
    inconclusive.  The result always states which tier fired.
    """
    if (cls.n, cls.r) != (cfg.n, cfg.r):
        raise ValueError("class does not live on the configuration's blow-up")
    min_val: Fraction | None = None
    for curve in curve_family(cfg):
        v = curve_value(cls, curve)
        if v < 0:
            return NefResult("fails-witness", curve, None, v)
        min_val = v if min_val is None or v < min_val else min_val
    assert min_val is not None
    cert = _match_cyclic(cls, cfg) if cfg.kind == "cyclic" else _match_marked(cls, cfg)
    if cert is not None:
        return NefResult("certified-nef", None, cert, min_val)
    return NefResult("inconclusive", None, None, min_val)


# ---------------------------------------------------------------------------
# small class-expression calculator for the CLI and tests
# ---------------------------------------------------------------------------

_CLASS_TERM = re.compile(
    r"^(?:(?P<coeff>\d+(?:/\d+)?)\s*\*?\s*)?(?P<name>D|A|H|Ht\d+|E\d+)$")


def parse_class_expr(expr: str, cfg: BlowupConfig, ell: int | None = None) -> DivisorClass:
    """Evaluate expressions like 'D - 2*Ht1', '-E1', '3*H' over a config."""
    classes = config_classes(cfg, ell)
    total: DivisorClass | None = None
    chunks = [(sign, body.strip()) for sign, body in _signed_terms(expr)]
    if expr.rstrip().endswith(("+", "-")):
        raise ValueError(f"class expression {expr!r} ends with an operator")
    if not chunks[-1][1]:                           # not ending with a sign: blank
        raise ValueError(f"empty class expression {expr!r}")
    for sign, chunk in chunks:
        m = _CLASS_TERM.match(chunk)
        if not m:
            raise ValueError(f"malformed class term {chunk!r}")
        try:
            coeff = Fraction(m.group("coeff") or 1) * sign
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in class term {chunk!r}") from None
        name = m.group("name")
        if name.startswith("E"):
            idx = int(name[1:]) - 1
            if not 0 <= idx < cfg.r:
                raise ValueError(f"no exceptional divisor {name}")
            term = e_class(cfg.n, cfg.r, idx)
        else:
            if name not in classes:
                raise ValueError(f"unknown class {name!r} for this configuration")
            term = classes[name]
        term = coeff * term
        total = term if total is None else total + term
    assert total is not None
    return total
