import random
from fractions import Fraction

import pytest

from sdet import quadrature
from sdet.transforms import ScalarSeq


def rand_fraction(rng: random.Random, span: int = 6) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_even_seq(rng: random.Random, support: int = 6) -> ScalarSeq:
    entries = {n: rand_fraction(rng) for n in range(0, support + 1)}
    return ScalarSeq(entries, "even")


def random_odd_seq(rng: random.Random, support: int = 6) -> ScalarSeq:
    entries = {n: rand_fraction(rng) for n in range(1, support + 1)}
    return ScalarSeq(entries, "odd")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260818)


def _count_calls(monkeypatch, name):
    """Record the arguments of every call to quadrature.<name>, and count in
    evaluations[0] the calls it makes to its integrand."""
    calls, evaluations = [], [0]
    real = getattr(quadrature, name)

    def counted(f, *args, **kwargs):
        def g(t):
            evaluations[0] += 1
            return f(t)

        calls.append((f, *args))
        return real(g, *args, **kwargs)

    monkeypatch.setattr(quadrature, name, counted)
    return calls, evaluations


@pytest.fixture
def count_calls():
    """count_calls(monkeypatch, name) -> (calls, evaluations): patches
    quadrature.<name> through monkeypatch (or a monkeypatch.context()), so
    calls gets (integrand, *args) per call and evaluations[0] the integrand
    evaluations."""
    return _count_calls
