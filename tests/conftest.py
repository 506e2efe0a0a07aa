from fractions import Fraction

import pytest

import betachow.audits
import betachow.heights
import betachow.primes
import betachow.search


@pytest.fixture
def count_fractions(monkeypatch):
    """Call it to start recording every Fraction built from then on (by
    constructors and arithmetic alike), as its constructor arguments; the
    call returns the record list."""
    def start() -> list:
        built = []
        raw = Fraction.__dict__["__new__"].__func__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return raw(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        return built
    return start


@pytest.fixture
def count_factor_calls(monkeypatch):
    """Call it to start recording every call of primes.factor, from each
    module that binds it, as the absolute value of its argument; the call
    returns the record list."""
    def start() -> list:
        seen = []
        real = betachow.primes.factor

        def spy(n, *args, **kwargs):
            seen.append(abs(n))
            return real(n, *args, **kwargs)

        for module in (betachow.primes, betachow.heights, betachow.audits, betachow.search):
            monkeypatch.setattr(module, "factor", spy)
        return seen
    return start
