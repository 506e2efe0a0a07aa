"""Empirical audits of the height inequalities on sampled rational points.

Both audits evaluate exact per-sample verdicts; claims that only hold "up
to a bounded function" are reported as boundedness data (the defect of the
max-term decomposition), never asserted as exact inequalities.

Sampling is seeded and deterministic.  An audit is a pipeline over
blocks of BLOCK samples: each block's points are drawn, its rows computed
(sharded over workers, one block per task) and handed on in sample-index
order before the next block is drawn, so the output does not depend on
the worker count and a caller that writes each block as it comes holds
a bounded number of rows whatever the sample count.

Each row is the report record that ``audit --format json`` prints: a
dict with index, point and on_support, and for a point off the support
lhs, lhs_log, rhs, verdict and per_place, plus defect and defect_by_place
in the subspace audit.  point stays a ProjPoint and lhs and defect exact
Fractions; the writer renders each as its str.

The forms are checked once per audit, before any row.  Each row evaluates
every form once in integers and builds at most its stored lhs and defect
as Fractions: the subspace audit takes its finite local values from the
integer kernel of :mod:`betachow.heights` place by place and the
Archimedean values h/|F_i(P)| as ratios of ints, and the Levin-Duke audit
takes each m_i from the S-split m_S = h^d / r in one step.

The subspace audit takes only hyperplanes in general position, so each
place's max over independent subsets and its defect are products of that
place's sorted local values, with no subset enumerated.

No row factors anything.  At a prime q outside S the defect of q forms
in P^n is q^(sum of the q-n smallest v_q(F_i(P))), which is not 1 only
when at least n+1 of the values are divisible by q.  Those n+1 forms are
independent (general position), so their coefficient matrix M has
M x = 0 (mod q) for the primitive coordinate vector x of P, which is not
0 mod q; hence q divides det M.  So the finite places off S that can
carry a defect are the primes of the maximal minors of the arrangement,
factored once per audit; at every other prime the defect is 1.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import lcm, prod
from typing import Iterable, Iterator, Sequence

from .linalg import det
from .poly import MultiPoly, _int_evaluator, hyperplanes_general_position
from .heights import (
    ProjPoint,
    SRing,
    _local_value,
    _log,
    _ratio_text,
    _s_split,
    check_weil_form,
    height,
)
from .primes import factor
from .sharding import sharded


# samples per block of the audit pipeline
BLOCK = 256


def iter_sample_points(dim: int, height_bound: int, count: int,
                       seed: int) -> Iterator[ProjPoint]:
    """A deterministic, lazily drawn sample of count normalized points with
    height <= height_bound; the arguments are checked on the call."""
    if dim < 0:
        raise ValueError("sample dimension must be >= 0")
    if height_bound < 1:
        raise ValueError("height bound must be >= 1")
    if count < 0:
        raise ValueError("sample count must be >= 0")
    return _draw(dim, height_bound, count, random.Random(seed))


def _draw(dim: int, height_bound: int, count: int, rng: random.Random) -> Iterator[ProjPoint]:
    while count:
        coords = [rng.randint(-height_bound, height_bound) for _ in range(dim + 1)]
        if all(c == 0 for c in coords):
            continue
        count -= 1
        yield ProjPoint.normalize(coords)


def subspace_rows(forms: Sequence[MultiPoly], s: SRing, eps: Fraction,
                  points: Iterable[ProjPoint], workers: int = 1) -> Iterator[list[dict]]:
    """Audit sum_{v in S} max_I sum_{i in I} lambda_i <= (n+1+eps) h(P),
    one block of rows at a time (module docstring).

    The max runs over linearly independent index subsets.  Each row also
    records the defect of the full sum against the best size-n term at
    every contributing place; per the decomposition lemma this defect
    should stay bounded as the height grows, which the caller checks
    empirically across height brackets.  The forms are checked and the
    minors factored on the call; each block is computed only when taken.
    """
    if not hyperplanes_general_position(forms):
        raise ValueError("non-general-position input")
    for f in forms:
        check_weil_form(f)
    eps = Fraction(eps)
    s_primes = s.primes
    n = forms[0].nvars - 1
    params = ((*s_primes, *_minor_primes(forms, n, s_primes)), len(s_primes), eps, n)
    return _blocks(_subspace_row, forms, params, points, workers)


def _minor_primes(forms: Sequence[MultiPoly], n: int, s_primes: Sequence[int]) -> list[int]:
    """Ascending primes outside S that divide a maximal minor of the
    forms' integer coefficient vectors: the only finite places off S where
    a row's defect can differ from 1 (module docstring).  Each minor is
    nonzero by general position and is factored once."""
    vectors = [[int(c) for c in f.linear_coefficients()] for f in forms]
    primes = {q for subset in combinations(vectors, n + 1) for q in factor(det(subset))}
    return sorted(primes.difference(s_primes))


def _subspace_row(evaluators, params, idx: int, p: ProjPoint) -> dict:
    primes, s_count, eps, n = params
    values = [ev(p.coords) for ev in evaluators]
    if any(v == 0 for v in values):
        return {"index": idx, "point": p, "on_support": True}
    h = height(p)
    # at infinity F_i has the value h/|F_i(P)|, so ascending |F_i(P)| lists
    # those values in descending order, and each term is a power of h over
    # a product of the |F_i(P)|
    mags = sorted(abs(v) for v in values)
    # every form is linear, so each finite value has degree 1; ascending
    local = {q: sorted(_local_value(val, p.coords, 1, q) for val in values) for q in primes}

    # any n+1 forms are independent, so the best subset at v takes the
    # n+1 largest values that exceed 1 (the empty subset's term is 1)
    near = [a for a in mags[:n + 1] if a < h]
    best = {q: prod(x for x in local[q][-(n + 1):] if x > 1) for q in primes[:s_count]}
    lhs_num, lhs_den = h ** len(near) * prod(best.values()), prod(near)
    per_place = {"inf": _ratio_text(h ** len(near), lhs_den)}
    per_place |= {str(q): str(b) for q, b in best.items()}

    # lhs <= h^(n+1+eps) cross-powered to integer exponents, h^k on the
    # side where k is not negative
    den, k = eps.denominator, (n + 1) * eps.denominator + eps.numerator
    verdict = lhs_num ** den * h ** max(-k, 0) <= lhs_den ** den * h ** max(k, 0)
    rhs = f"{h}^({n + 1}+{eps})"

    # the full product over the best size-n term (the n largest values)
    # leaves the q-n smallest; with fewer than n forms there is no defect
    far = mags[n:]
    inf_num, inf_den = h ** len(far), prod(far)
    defects = {q: prod(local[q][:len(far)]) for q in primes}
    texts = {"inf": _ratio_text(inf_num, inf_den), **{str(q): str(d) for q, d in defects.items()}}
    return _record(idx, p, Fraction(lhs_num, lhs_den), rhs, verdict, per_place,
                   defect=Fraction(inf_num * prod(defects.values()), inf_den),
                   defect_by_place={v: d for v, d in texts.items() if d != "1"})


def levin_duke_rows(forms: Sequence[MultiPoly], s: SRing, eps: Fraction,
                    points: Iterable[ProjPoint], workers: int = 1,
                    assert_general_position: bool = False) -> Iterator[list[dict]]:
    """Audit sum_i (1/d_i) m_{D_i,S}(P) > (q-n-1-eps) h(P) per sample, one
    block of rows at a time (module docstring).

    General position is verified exactly in the hyperplane case; for
    higher-degree divisors the caller must assert it.  The forms are
    checked on the call; each block is computed only when taken.
    """
    eps = Fraction(eps)
    degrees = [f.total_degree() for f in forms]
    if any(d < 1 or not f.is_homogeneous() for d, f in zip(degrees, forms)):
        raise ValueError("forms must be homogeneous of degree >= 1")
    if all(d == 1 for d in degrees):
        if not hyperplanes_general_position(forms):
            raise ValueError("non-general-position input")
    elif not assert_general_position:
        raise ValueError("general position must be asserted for "
                         "non-hyperplane divisors")
    for f in forms:
        check_weil_form(f)
    n = forms[0].nvars - 1
    params = (degrees, lcm(*degrees), s.primes, eps, n)
    return _blocks(_levin_duke_row, forms, params, points, workers)


def _levin_duke_row(evaluators, params, idx: int, p: ProjPoint) -> dict:
    degrees, lcm, s_primes, eps, n = params
    values = [ev(p.coords) for ev in evaluators]
    if any(v == 0 for v in values):
        return {"index": idx, "point": p, "on_support": True}
    q, h = len(values), height(p)
    splits = [_s_split(val, h, d, s_primes) for val, d in zip(values, degrees)]
    per_place = {f"m{i + 1}": _ratio_text(hd, r_i) for i, (hd, r_i) in enumerate(splits)}
    r_power = prod(r_i ** (lcm // d) for (_, r_i), d in zip(splits, degrees))
    # lhs = prod_i m_i^(lcm/d_i) = h^(q lcm) / r_power, so lhs^(1/lcm) >
    # h^(q-n-1-eps) cross-powered by lcm*den reads h^k > r_power^den; for
    # k < 0, h^k <= 1 <= r_power^den
    den, num = eps.denominator, eps.numerator
    k = lcm * ((n + 1) * den + num)
    verdict = k >= 0 and h ** k > r_power ** den
    rhs = f"{h}^({q - n - 1}-{eps})"
    return _record(idx, p, Fraction(h ** (q * lcm), r_power), rhs, verdict, per_place)


def _record(idx: int, p: ProjPoint, lhs: Fraction, rhs: str, verdict: bool,
            per_place: dict, **extra) -> dict:
    """An off-support row's record; rhs is the height with its exponent,
    rendered, and extra the subspace row's defect and defect_by_place."""
    return {"index": idx, "point": p, "on_support": False, "lhs": lhs, "lhs_log": _log(lhs),
            "rhs": rhs, "verdict": verdict, "per_place": per_place, **extra}


# ---------------------------------------------------------------------------
# the block pipeline
# ---------------------------------------------------------------------------

def _blocks(row_fn, forms: Sequence[MultiPoly], params, points: Iterable[ProjPoint],
            workers: int) -> Iterator[list[dict]]:
    """The rows of each block of BLOCK indexed points, in sample order."""
    evaluators = [_int_evaluator(f) for f in forms]
    return sharded(partial(_rows, row_fn, evaluators, params), enumerate(points),
                   workers, BLOCK)


def _rows(row_fn, evaluators, params, indexed: list[tuple[int, ProjPoint]]) -> list[dict]:
    return [row_fn(evaluators, params, i, p) for i, p in indexed]
