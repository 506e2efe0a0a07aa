"""The slotted records that replace dataclasses: pickling across workers,
equality and hashing, frozen fields, fresh defaults, and the start-up
import set of the CLI."""

import ast
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from betachow.beta import AutissierInput, RationalInterval
from betachow.chow import BlowupConfig, CurveClass, DivisorClass, NefResult, cyclic_config
from betachow.heights import HeightDecomposition, ProjPoint, parse_places
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
    s = parse_places("3,2")
    assert s == SRing((2, 3)) and hash(s) == hash(SRing((2, 3)))
    assert SRing((2,)) != SRing((3,)) and SRing((2,)) != SRing()
    assert 3 in s.primes and 5 not in s.primes
    assert {ProjPoint((1, 2)), ProjPoint.normalize([-2, -4])} == {ProjPoint((1, 2))}
    assert ProjPoint((1, 2)) != ProjPoint((1, 3))
    assert SRing((2,)) == SRing([2]) and SearchBox(2, 3) == SearchBox(2, 3, 0)
    # a record never equals another class's record with the same fields
    a, h = AutissierInput(2, 1, 1, 0), HeightDecomposition(2, 1, 1, 0)
    assert a._fields() == h._fields() and a != h


def test_mutable_records_compare_by_fields_and_are_unhashable():
    assert SolutionSet({"k": "v"}) == SolutionSet({"k": "v"}) != SolutionSet({"k": "w"})
    assert SolutionSet({}) == SolutionSet({}, [], []) != SolutionSet({}, [(1,)], [{}])
    with pytest.raises(TypeError):
        hash(SolutionSet({}))


FROZEN = [
    ProjPoint((1, 2)),
    HeightDecomposition(Fraction(3, 2), 2, Fraction(3), (2,)),
    SRing((2,)),
    SearchBox(2, 3),
    search_spec(THM11),
    AutissierInput(2, 1, 1, 0),
    RationalInterval(Fraction(0), Fraction(1)),
    cyclic_config(2, 6),
    DivisorClass(2, 1, (1, 0, 0)),
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


# the definitions no command reaches, each with the reason it stays
UNREACHED = {
    "load_solution_set": "reads a solution file back; perfbench's reverify job calls it",
    "vp": "the p-adic valuation of a rational, the tests' valuation oracle",
}


def _names(node) -> set[str]:
    """The names node refers to: every Name id and Attribute attr."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_library_definition_is_reached_from_the_cli():
    # a walk over name references from cli.main: the module-level functions,
    # classes and methods of the package, with the dunders (which Python
    # calls) and module-level statements (which run on import) as roots; a
    # definition is reached once a reached one names it
    defs, names = [], set()
    for path in sorted((SRC / "betachow").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs.append((path.stem, node, _names(node)))
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                rest = [*node.bases, *node.decorator_list,
                        *(s for s in node.body if s not in methods)]
                defs.append((path.stem, node, set().union(*map(_names, rest))))
                defs.extend((path.stem, m, _names(m)) for m in methods)
            else:
                names |= _names(node)
    todo = [d for d in defs if (d[0], d[1].name) == ("cli", "main")
            or d[1].name.startswith("__") and d[1].name.endswith("__")]
    reached = set()                 # ids of the reached definitions
    while todo:
        for _, node, refs in todo:
            reached.add(id(node))
            names |= refs
        todo = [d for d in defs if id(d[1]) not in reached and d[1].name in names]
    assert {node.name for _, node, _ in defs if id(node) not in reached} == set(UNREACHED)
