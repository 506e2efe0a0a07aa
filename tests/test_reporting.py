import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betachow.reporting import fmt


def isinstance_fmt(value) -> str:
    """fmt in the form it had before it dispatched on the exact type."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    if isinstance(value, float):
        return repr(value)
    return str(value)


CELLS = [Fraction(-7, 3), Fraction(5), Fraction(0), 0, -12, 10 ** 40, True, False,
         math.nan, math.inf, -math.inf, -0.0, 0.0, 0.1, 1e300, 5e-324,
         "", "pass", "beta>1,f>0", "[1/2; 3/4]", None]


@pytest.mark.parametrize("value", CELLS, ids=repr)
def test_fmt_matches_its_isinstance_form(value):
    assert fmt(value) == isinstance_fmt(value)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.fractions(), st.integers(), st.booleans(), st.floats(), st.text(),
                 st.none()))
def test_fmt_matches_its_isinstance_form_on_drawn_cells(value):
    assert fmt(value) == isinstance_fmt(value)


def test_fmt_spells_verdicts_and_keeps_rationals_exact():
    assert [fmt(v) for v in (True, False, Fraction(10, 9), 4, "x")] == \
        ["pass", "FAIL", "10/9", "4", "x"]
