"""Divisor classes and intersection numbers on blow-ups of P^n at points.

The Chow ring used here is hard-coded to the blow-up of projective n-space
at r distinct points: H^n = 1, E_i^n = (-1)^(n-1), and every mixed product
of H with an E_i, or of two distinct E_i, vanishes.  Consequently the top
product of classes a_j*H - sum_i b_{j,i}*E_i is

    prod_j a_j  -  sum_i prod_j b_{j,i}.

Two point/hyperplane configurations are built in: the cyclic one (q >= 3n
hyperplanes, each consecutive window of n of them meeting in a blown-up
point) and the marked one (2n hyperplanes, n+1 points with P_i on H_i
only).  Incidence is declared combinatorially; intersection numbers depend
on nothing else.

Sign convention: the named basis class E_i carries a unit b-vector, and a
class meets the fiber line inside the i-th exceptional locus in exactly
b_i.  Strict transforms d*H - sum m_i*E_i therefore store b = m >= 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence


@dataclass(frozen=True)
class DivisorClass:
    """Class a*H - sum_i b_i*E_i on the blow-up of P^n at r points."""

    n: int
    r: int
    a: Fraction
    b: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", tuple(Fraction(x) for x in self.b))
        if len(self.b) != self.r:
            raise ValueError("b must have length r")
        if self.n < 1 or self.r < 0:
            raise ValueError("invalid (n, r)")

    def _check(self, other: "DivisorClass"):
        if (self.n, self.r) != (other.n, other.r):
            raise ValueError("mismatched (n, r)")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(self.n, self.r, self.a + other.a,
                            tuple(x + y for x, y in zip(self.b, other.b)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(self.n, self.r, self.a - other.a,
                            tuple(x - y for x, y in zip(self.b, other.b)))

    def __mul__(self, c) -> "DivisorClass":
        c = Fraction(c)
        return DivisorClass(self.n, self.r, c * self.a, tuple(c * x for x in self.b))

    __rmul__ = __mul__

    def __neg__(self) -> "DivisorClass":
        return self * -1

    def to_json(self) -> dict:
        return {"n": self.n, "r": self.r, "a": str(self.a),
                "b": [str(x) for x in self.b]}

    @classmethod
    def from_json(cls, d: dict) -> "DivisorClass":
        return cls(d["n"], d["r"], Fraction(d["a"]),
                   tuple(Fraction(x) for x in d["b"]))


def pullback_hyperplane(n: int, r: int) -> DivisorClass:
    return DivisorClass(n, r, Fraction(1), (Fraction(0),) * r)


def e_class(n: int, r: int, i: int) -> DivisorClass:
    """Named basis class E_i: zero H-part, unit b-vector at i (0-based)."""
    b = [Fraction(0)] * r
    b[i] = Fraction(1)
    return DivisorClass(n, r, Fraction(0), tuple(b))


def strict_transform(n: int, degree: int, mults: Sequence[Fraction | int]) -> DivisorClass:
    """Class d*H - sum_i m_i*E_i of a degree-d divisor through the points."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    mults = tuple(Fraction(m) for m in mults)
    if any(m < 0 for m in mults):
        raise ValueError("multiplicities must be >= 0")
    return DivisorClass(n, len(mults), Fraction(degree), mults)


def top_intersection(classes: Sequence[DivisorClass]) -> Fraction:
    """Top Chow product of n divisor classes on the same blow-up."""
    classes = list(classes)
    if not classes:
        raise ValueError("empty product")
    n, r = classes[0].n, classes[0].r
    if len(classes) != n:
        raise ValueError(f"top product needs exactly n = {n} classes")
    for c in classes:
        if (c.n, c.r) != (n, r):
            raise ValueError("mismatched (n, r)")
    total = Fraction(1)
    for c in classes:
        total *= c.a
    for i in range(r):
        prod = Fraction(1)
        for c in classes:
            prod *= c.b[i]
        total -= prod
    return total


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlowupConfig:
    """Combinatorial incidence of blown-up points on a hyperplane family.

    incidence[i] is the (0-based) set of point indices on hyperplane i.
    """

    n: int
    kind: str  # "cyclic" | "marked"
    q: int
    r: int
    incidence: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.kind not in ("cyclic", "marked"):
            raise ValueError(f"unknown configuration kind {self.kind!r}")
        if len(self.incidence) != self.q:
            raise ValueError("incidence must list every hyperplane")
        if self.kind == "cyclic":
            if self.q < 3 * self.n or self.r != self.q:
                raise ValueError("cyclic configuration needs q >= 3n and r = q")
            for i, pts in enumerate(self.incidence):
                expect = frozenset((i - j) % self.q for j in range(self.n))
                if pts != expect:
                    raise ValueError("cyclic incidence must be the window of n points")
        else:
            if self.q != 2 * self.n or self.r != self.n + 1:
                raise ValueError("marked configuration needs q = 2n and r = n+1")
            for i, pts in enumerate(self.incidence):
                expect = frozenset({i}) if i < self.n + 1 else frozenset()
                if pts != expect:
                    raise ValueError("marked incidence must be P_i on H_i only")


def cyclic_config(n: int, q: int) -> BlowupConfig:
    """q >= 3n hyperplanes, point P_i = intersection of window H_{i-n+1..i}."""
    if n < 2:
        raise ValueError("n must be >= 2")
    incidence = tuple(frozenset((i - j) % q for j in range(n)) for i in range(q))
    return BlowupConfig(n, "cyclic", q, q, incidence)


def marked_config(n: int) -> BlowupConfig:
    """2n hyperplanes, n+1 points with P_i on H_i only."""
    if n < 2:
        raise ValueError("n must be >= 2")
    incidence = tuple(frozenset({i}) if i < n + 1 else frozenset()
                      for i in range(2 * n))
    return BlowupConfig(n, "marked", 2 * n, n + 1, incidence)


def config_classes(cfg: BlowupConfig, ell: int | None = None) -> dict[str, DivisorClass]:
    """Named classes of a configuration.

    Cyclic: D = q*H - n*sum(E) plus the strict transforms Ht1..Htq.
    Marked: needs ell >= 1 and yields A = (ell(n+1)+1)*H - ell*sum(E)
    plus Ht1..Ht2n.
    """
    n, q, r = cfg.n, cfg.q, cfg.r
    out: dict[str, DivisorClass] = {}
    for i in range(q):
        mults = tuple(Fraction(1 if j in cfg.incidence[i] else 0) for j in range(r))
        out[f"Ht{i + 1}"] = DivisorClass(n, r, Fraction(1), mults)
    if cfg.kind == "cyclic":
        out["D"] = DivisorClass(n, r, Fraction(q), (Fraction(n),) * r)
    else:
        if ell is None or ell < 1:
            raise ValueError("marked configuration needs a positive integer ell")
        out["A"] = DivisorClass(n, r, Fraction(ell * (n + 1) + 1), (Fraction(ell),) * r)
    out["H"] = pullback_hyperplane(n, r)
    return out


# ---------------------------------------------------------------------------
# curves and nef testing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveClass:
    """Test curve: a line in one E_i, or the strict transform of a line
    through a set of blown-up points (multiplicity 1 at each)."""

    kind: str  # "exceptional-line" | "line-through-point-set"
    points: tuple[int, ...]  # 0-based point indices
    image_degree: int

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
        return cls.b[curve.points[0]]
    return cls.a * curve.image_degree - sum(
        (cls.b[i] for i in curve.points), Fraction(0))


def curve_family(cfg: BlowupConfig) -> tuple[CurveClass, ...]:
    """The finite witness family: exceptional lines, the general line, and
    strict transforms of lines through every 1- and 2-point subset (lines
    inside an H_i through its point set have the same classes)."""
    r = cfg.r
    fam = [CurveClass("exceptional-line", (i,), 0) for i in range(r)]
    fam.append(CurveClass("line-through-point-set", (), 1))
    fam.extend(CurveClass("line-through-point-set", (i,), 1) for i in range(r))
    fam.extend(CurveClass("line-through-point-set", pair, 1)
               for pair in combinations(range(r), 2))
    return tuple(fam)


@dataclass(frozen=True)
class NefResult:
    status: str  # "certified-nef" | "fails-witness" | "inconclusive"
    witness: CurveClass | None
    certificate: str | None
    min_value: Fraction

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
    for i in range(q):
        window = cfg.incidence[i]
        out_idx = next(j for j in range(q) if j not in window)
        t = cls.b[out_idx] / n
        if t <= 0:
            continue
        if any(cls.b[j] != t * n for j in range(q) if j not in window):
            continue
        inside = {cls.b[j] for j in window}
        if len(inside) != 1:
            continue
        m = n - inside.pop() / t
        if not (0 <= m <= n):
            continue
        if cls.a != t * (q - m):
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
    if any(x < 0 for x in cls.b):
        return None
    slack = cls.a - sum(cls.b, Fraction(0))
    if slack < 0:
        return None
    if cls.a == 1 and sum(cls.b) == 1 and set(cls.b) <= {Fraction(0), Fraction(1)}:
        i = cls.b.index(Fraction(1))
        return f"marked strict transform Ht{i + 1} (nef for every index)"
    ells = set(cls.b)
    if len(ells) == 1:
        ell = ells.pop()
        if ell > 0 and cls.a == ell * (n + 1) + 1:
            return f"marked class A with ell = {ell} (combination of nef strict transforms)"
    parts = [f"{cls.b[i]}*Ht{i + 1}" for i in range(n + 1) if cls.b[i]]
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
    r"^(?P<coeff>\d+(?:/\d+)?)?\s*\*?\s*(?P<name>D|A|H|Ht\d+|E\d+)$")


def parse_class_expr(expr: str, cfg: BlowupConfig, ell: int | None = None) -> DivisorClass:
    """Evaluate expressions like 'D - 2*Ht1', '-E1', '3*H' over a config."""
    classes = config_classes(cfg, ell)
    total: DivisorClass | None = None
    sign, buf = 1, []
    chunks: list[tuple[int, str]] = []
    for ch in expr:
        if ch in "+-":
            if buf and "".join(buf).strip():
                chunks.append((sign, "".join(buf).strip()))
                sign, buf = 1, []
            sign *= -1 if ch == "-" else 1
        else:
            buf.append(ch)
    if buf and "".join(buf).strip():
        chunks.append((sign, "".join(buf).strip()))
    if not chunks:
        raise ValueError(f"empty class expression {expr!r}")
    for sign, chunk in chunks:
        m = _CLASS_TERM.match(chunk)
        if not m:
            raise ValueError(f"malformed class term {chunk!r}")
        coeff = Fraction(m.group("coeff") or 1) * sign
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
