"""The slotted records that replace dataclasses: pickling across workers,
equality and hashing, frozen fields, fresh defaults, and the start-up
import set of the CLI."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from betachow.beta import AutissierInput, H0LowerBound, RationalInterval
from betachow.chow import BlowupConfig, CurveClass, NefResult, cyclic_config
from betachow.heights import (
    ARCH,
    HeightDecomposition,
    LocalHeight,
    MkConstant,
    Place,
    ProjPoint,
    make_place_set,
)
from betachow.search import (
    Search,
    SearchBox,
    SolutionSet,
    SRing,
    run_search,
    search_spec,
)

SRC = Path(__file__).resolve().parent.parent / "src"

THM11 = {"kind": "thm11", "forms": ["x0 + x1 + x2", "x0 + 2*x1 + 4*x2", "x0 + 3*x1 + 9*x2"],
         "g": "x0", "mode": "i", "dim": 2, "bound": 6, "denom_cap": 0, "s_primes": [2],
         "assert_general_position": False}


def _round_trip(value):
    return pickle.loads(pickle.dumps(value))


def test_a_search_and_its_rows_survive_pickling():
    search = search_spec(THM11)
    copy = _round_trip(search)
    assert type(copy) is Search
    assert (copy.descriptor, copy.box, copy.s) == (search.descriptor, search.box, search.s)
    assert copy.check((1, 1, 1)) == search.check((1, 1, 1))
    assert (copy.values, copy.firsts) == (search.values, search.firsts)
    assert list(copy.lasts((1,))) == list(search.lasts((1,)))
    assert run_search(copy).points == run_search(search).points


def test_values_and_mutable_records_survive_pickling():
    p = ProjPoint.normalize([2, -4, 6])
    sols = run_search(search_spec(THM11))
    for value in (SRing((2, 3)), SearchBox(2, 5, 1), p, sols):
        copy = _round_trip(value)
        assert type(copy) is type(value) and copy == value and copy is not value


def test_unpickling_a_value_runs_no_check(monkeypatch):
    data = pickle.dumps(ProjPoint((1, 2)))
    monkeypatch.setattr(ProjPoint, "__init__", None)
    assert pickle.loads(data).coords == (1, 2)


def test_equal_values_hash_alike():
    assert Place(2) == Place(2) and hash(Place(2)) == hash(Place(2))
    assert Place(2) != Place(3) and Place(2) != ARCH
    assert Place(3) in make_place_set([2, 3]) and Place(5) not in make_place_set([2, 3])
    assert {ProjPoint((1, 2)), ProjPoint.normalize([-2, -4])} == {ProjPoint((1, 2))}
    assert ProjPoint((1, 2)) != ProjPoint((1, 3))
    assert SRing((2,)) == SRing([2]) and SearchBox(2, 3) == SearchBox(2, 3, 0)
    # a record never equals another class's record with the same fields
    assert MkConstant(()) != SRing(())


def test_mutable_records_compare_by_fields_and_are_unhashable():
    assert SolutionSet({"k": "v"}) == SolutionSet({"k": "v"}) != SolutionSet({"k": "w"})
    assert SolutionSet({}) == SolutionSet({}, [], []) != SolutionSet({}, [(1,)], [{}])
    with pytest.raises(TypeError):
        hash(SolutionSet({}))


FROZEN = [
    Place(2),
    ProjPoint((1, 2)),
    LocalHeight(ARCH, Fraction(2)),
    HeightDecomposition(Fraction(3, 2), 2, Fraction(3), (2,)),
    MkConstant.from_map({Place(2): Fraction(2)}),
    SRing((2,)),
    SearchBox(2, 3),
    search_spec(THM11),
    AutissierInput(2, 1, 1, 0),
    H0LowerBound(Fraction(1), "O(N)"),
    RationalInterval(Fraction(0), Fraction(1)),
    cyclic_config(2, 6),
    CurveClass("line-through-point-set", ()),
    NefResult("inconclusive", None, None, Fraction(0)),
]


@pytest.mark.parametrize("value", FROZEN, ids=lambda v: type(v).__name__)
def test_frozen_records_refuse_assignment_and_deletion(value):
    name = value.__slots__[0]
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(value, name)


def test_defaults_are_fresh_per_instance():
    s, t = SolutionSet({}), SolutionSet({})
    s.points.append((1,))
    s.witnesses.append({})
    assert t.points == [] and t.witnesses == []


def test_constructors_keep_their_keyword_arguments():
    assert BlowupConfig(n=2, kind="cyclic", q=6) == cyclic_config(2, 6)


def test_cli_start_up_loads_no_dataclasses_and_every_module():
    # a fresh interpreter, as every command starts: the parser's start-up
    # loads each module the commands use, and the one deferred import,
    # multiprocessing (sharding.sharded, on the pool path only), stays out
    code = ("import sys, betachow.cli\n"
            "betachow.cli.build_parser()\n"
            "print(' '.join(sorted(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert "dataclasses" not in out and "inspect" not in out
    assert "multiprocessing" not in out
    for name in ("audits", "beta", "chow", "heights", "linalg", "poly", "primes",
                 "reporting", "search", "sharding"):
        assert f"betachow.{name}" in out
