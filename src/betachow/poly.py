"""Multivariate polynomials over Q with exact rational coefficients.

Variables are x0, x1, ... and a polynomial knows how many it lives in.
Terms map exponent tuples to nonzero coefficients; instances are treated
as immutable (all arithmetic returns new objects), so they are safe to
share across workers.

The plain-text grammar accepted by :func:`parse_poly` is a sum of terms
``c*x0^a*x1^b`` joined by ``+`` / ``-``, with exact rational coefficients
written ``p/q``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import lcm
from operator import mul
from typing import Callable, Iterable, Sequence

from .linalg import rank

Exponents = tuple[int, ...]


class MultiPoly:
    """Polynomial in x0..x_{nvars-1} with Fraction coefficients."""

    def __init__(self, nvars: int, terms: dict[Exponents, Fraction] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        clean: dict[Exponents, Fraction] = {}
        for exps, c in (terms or {}).items():
            if len(exps) != nvars:
                raise ValueError("exponent vector length != number of variables")
            c = Fraction(c)
            if c != 0:
                clean[tuple(int(e) for e in exps)] = c
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, c, nvars: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "MultiPoly":
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    # -- ring operations -------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        return MultiPoly.constant(other, self.nvars)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return MultiPoly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = Fraction(other)
            return MultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()})
        other = self._coerce(other)
        terms: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.nvars, terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly) and other.nvars == self.nvars
                and other.terms == self.terms)

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def has_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def linear_coefficients(self) -> tuple[Fraction, ...]:
        """Coefficient vector of a homogeneous degree-1 form."""
        if not (self.is_homogeneous() and self.total_degree() == 1):
            raise ValueError("not a linear form")
        out = [Fraction(0)] * self.nvars
        for e, c in self.terms.items():
            out[e.index(1)] = c
        return tuple(out)

    def evaluate(self, xs: Sequence[Fraction | int]) -> Fraction:
        """Exact evaluation at a rational point."""
        if len(xs) != self.nvars:
            raise ValueError("dimension mismatch: point does not match variable count")
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(xs, exps):
                if e == 1:
                    v = v * x
                elif e:
                    v = v * x ** e
            total += v
        return Fraction(total)

    __call__ = evaluate

    def divide_by_linear(self, lin: "MultiPoly") -> "MultiPoly | None":
        """Exact quotient self / lin for a degree-1 divisor, else None."""
        lin = self._coerce(lin)
        if lin.total_degree() != 1:
            raise ValueError("divisor must have degree 1")
        pivot = None
        for e in lin.terms:
            if sum(e) == 1:
                pivot = e.index(1)
                break
        assert pivot is not None
        cpiv = lin.terms[tuple(1 if j == pivot else 0 for j in range(self.nvars))]
        rest = lin - MultiPoly.variable(pivot, self.nvars) * cpiv
        quotient = MultiPoly.zero(self.nvars)
        rem = self
        while True:
            d = max((e[pivot] for e in rem.terms), default=0)
            if d == 0:
                break
            top = {e: c for e, c in rem.terms.items() if e[pivot] == d}
            piece = MultiPoly(self.nvars, {
                tuple(x - 1 if j == pivot else x for j, x in enumerate(e)): c / cpiv
                for e, c in top.items()})
            quotient = quotient + piece
            rem = rem - piece * lin
        return quotient if rem.is_zero() else None

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        def key(e: Exponents):
            return (-sum(e), tuple(-x for x in e))
        parts = []
        for e in sorted(self.terms, key=key):
            c = self.terms[e]
            factors = [f"x{i}" + (f"^{k}" if k > 1 else "")
                       for i, k in enumerate(e) if k]
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    __repr__ = __str__


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>x\d+)(?:\^(?P<exp>\d+))?)\s*")


def _signed_terms(text: str) -> list[tuple[int, str]]:
    """The terms of a sum, split at its + and - signs: (sign, body) for each
    run of text between them, with the signs before it multiplied into one.
    The last body, the text after the last sign, is blank when the text is
    blank or ends with a sign; no other body is."""
    terms: list[tuple[int, str]] = []
    sign, buf = 1, []
    for ch in text:
        if ch in "+-":
            if "".join(buf).strip():
                terms.append((sign, "".join(buf)))
                sign, buf = 1, []
            sign *= -1 if ch == "-" else 1
        else:
            buf.append(ch)
    terms.append((sign, "".join(buf)))
    return terms


def parse_poly(text: str, nvars: int | None = None) -> MultiPoly:
    """Parse the plain-text polynomial grammar into a MultiPoly.

    When nvars is omitted it is inferred as 1 + the largest variable index
    present (0 for a constant).
    """
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial")
    terms = _signed_terms(text)
    if not terms[-1][1].strip():
        raise ValueError(f"malformed polynomial: {text!r}")

    parsed: list[tuple[Fraction, dict[int, int]]] = []
    maxvar = -1
    for sign, body in terms:
        coeff = Fraction(sign)
        exps: dict[int, int] = {}
        for factor_text in body.split("*"):
            factor_text = factor_text.strip()
            if not factor_text:
                raise ValueError(f"malformed term: {body!r}")
            m = _TOKEN.fullmatch(factor_text)
            if not m:
                raise ValueError(f"malformed factor: {factor_text!r}")
            if m.group("num"):
                try:
                    coeff *= Fraction(m.group("num"))
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in term {body!r}") from None
            else:
                i = int(m.group("var")[1:])
                e = int(m.group("exp") or 1)
                exps[i] = exps.get(i, 0) + e
                maxvar = max(maxvar, i)
        parsed.append((coeff, exps))

    if nvars is None:
        nvars = maxvar + 1
    elif maxvar >= nvars:
        raise ValueError(f"variable index {maxvar} out of range for {nvars} variables")
    out: dict[Exponents, Fraction] = {}
    for coeff, exps in parsed:
        e = tuple(exps.get(i, 0) for i in range(nvars))
        out[e] = out.get(e, Fraction(0)) + coeff
    return MultiPoly(nvars, out)


def _exact(c: Fraction) -> Fraction | int:
    """c as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _int_linear(row: list, xs: tuple) -> Fraction | int:
    return sum(map(mul, row, xs))


def _int_terms(items: list[tuple[Fraction | int, Exponents]], xs: tuple) -> Fraction | int:
    total = 0
    for c, e in items:
        v = c
        for x, k in zip(xs, e):
            if k == 1:
                v *= x
            elif k:
                v *= x ** k
        total += v
    return total


def _int_evaluator(f: MultiPoly) -> Callable[[tuple], Fraction | int]:
    """Fast exact evaluation: integral coefficients are kept as ints and the
    others as Fractions, so an integer-coefficient f gives an int at an
    integer point.  A partial of a module-level function, so that a Search
    holding one pickles; shard workers get it when they are forked."""
    if f.is_homogeneous() and f.total_degree() == 1:
        return partial(_int_linear, [_exact(c) for c in f.linear_coefficients()])
    return partial(_int_terms, [(_exact(c), e) for e, c in f.terms.items()])


def hyperplanes_general_position(forms: Sequence[MultiPoly]) -> bool:
    """Whether linear forms define hyperplanes in general position.

    True iff every subset of size min(#forms, nvars) is linearly
    independent (smaller subsets are then automatically independent).
    Raises for non-linear input: this exact check is restricted to
    hyperplane arrangements, higher-degree hypersurfaces must be
    asserted by the caller.
    """
    forms = list(forms)
    if not forms:
        return True
    nv = forms[0].nvars
    vectors = []
    for f in forms:
        if f.nvars != nv or f.is_zero() or not f.is_homogeneous() or f.total_degree() != 1:
            raise ValueError("general position check restricted to hyperplanes")
        # scaled to integers once: a nonzero multiple keeps every subset's rank
        den = lcm(*(c.denominator for c in f.terms.values()))
        coeffs = {e.index(1): c.numerator * (den // c.denominator) for e, c in f.terms.items()}
        vectors.append([coeffs.get(i, 0) for i in range(nv)])
    k = min(len(forms), nv)
    return all(rank(subset) == k for subset in combinations(vectors, k))


def monomial_exponents(nvars: int, degree: int, homogeneous: bool) -> list[Exponents]:
    """Exponent tuples of degree <= degree (or == degree), graded lex order."""
    out: list[Exponents] = []

    def rec(prefix: list[int], remaining: int, idx: int):
        if idx == nvars - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, idx + 1)

    degrees: Iterable[int] = [degree] if homogeneous else range(degree + 1)
    for d in degrees:
        if nvars == 0:
            if d == 0:
                out.append(())
            continue
        rec([], d, 0)
    return out
