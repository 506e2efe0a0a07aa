from fractions import Fraction

import pytest


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
