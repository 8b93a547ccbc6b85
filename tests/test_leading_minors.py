"""leading_minors against the reference path (det_bareiss / det_lu on each
leading block), engine by engine, plus its forced fallbacks."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdet.determinants as determinants
from sdet.determinants import det_auto, det_bareiss, det_lu, leading_minors
from sdet.matrices import (
    StructuredMatrix,
    hankel,
    hankel_moment,
    toeplitz,
    toeplitz_plus_hankel,
)
from sdet.scalars import hp_real, rational
from sdet.symbols import FHDescriptor, FHProduct, JumpT, MomentSymbol
from sdet.transforms import ScalarSeq

from conftest import rand_fraction, random_even_seq

BITS = 128
ORDERS = [7, 2, 12, 5, 12, 1]


@pytest.fixture
def reference_calls(monkeypatch):
    """Orders that reached the reference path, by engine name."""
    calls = []
    lu, bareiss = determinants.det_lu, determinants.det_bareiss

    def counted_lu(M, bits=None):
        calls.append(("lu", M.order))
        return lu(M, bits)

    def counted_bareiss(M):
        calls.append(("bareiss", M.order))
        return bareiss(M)

    monkeypatch.setattr(determinants, "det_lu", counted_lu)
    monkeypatch.setattr(determinants, "det_bareiss", counted_bareiss)
    return calls


def assert_matches_lu(M, orders, bits):
    got = leading_minors(M, orders, bits)
    assert len(got) == len(orders)
    for n, res in zip(orders, got):
        ref = det_lu(M.leading(n), bits)
        if ref.value == 0:  # an odd order of a skewsymmetric matrix
            assert res.value == 0
            continue
        digits = min(res.digits_guaranteed, ref.digits_guaranteed)
        assert digits >= bits * 0.30103 / 2
        with mp.workprec(2 * bits):
            assert abs(res.value - ref.value) <= mp.mpf(10) ** (1 - digits) * abs(ref.value)
    return got


def hp_cases(rng):
    complex_seq = {
        n: complex(rand_fraction(rng), rand_fraction(rng)) for n in range(-12, 13)
    }
    complex_seq[0] = 4 + 1j
    return [
        ("nonsymmetric", toeplitz(JumpT(Fraction(-1, 2)), 12, bits=BITS), "levinson"),
        ("symmetric", toeplitz(FHProduct(FHDescriptor({1: 0.15, -1: 0.15})), 12, bits=BITS), "levinson"),
        ("complex", toeplitz(complex_seq, 12, bits=BITS), "levinson"),
        ("skew", toeplitz(ScalarSeq({1: 1, 2: Fraction(1, 3), 3: Fraction(-1, 5)}, "odd"), 12, bits=BITS), "pfaffian"),
        ("moment", hankel_moment(MomentSymbol.from_poly({2: 2}, weight="sqrt_ratio"), 12, bits=BITS), "lu"),
        ("t_plus_h", toeplitz_plus_hankel(ScalarSeq({0: 3, 1: 1, 2: Fraction(1, 2)}, "even"), 12, bits=BITS), "lu"),
    ]


class TestEnginesAgainstReference:
    def test_hp_engines(self, rng, reference_calls):
        for name, M, method in hp_cases(rng):
            got = assert_matches_lu(M, ORDERS, BITS)
            assert {r.method for r in got} == {method}, name
        assert reference_calls == []

    def test_skew_odd_orders_are_zero(self):
        T = toeplitz(ScalarSeq({1: 1, 2: Fraction(1, 3)}, "odd"), 7, bits=BITS)
        for n, res in zip(range(1, 8), leading_minors(T, range(1, 8))):
            assert (res.value == 0) == (n % 2 == 1)
            assert res.digits_guaranteed > 30

    def test_exact_engines(self, reference_calls):
        # leading minors all nonzero: a diagonally dominant Toeplitz matrix,
        # positive symbols, the Hilbert matrix and moments of x dx on [0, 1]
        general = {n: Fraction(n // abs(n), 3 + n * n) for n in range(-11, 12) if n}
        general[0] = 2
        even = ScalarSeq({0: 4, 1: 1, 3: Fraction(1, 2)}, "even")
        cases = [
            (toeplitz(general, 12), "bareiss"),
            (toeplitz(even, 12), "bareiss"),
            (toeplitz(ScalarSeq({1: 1, 2: 3}, "odd"), 12), "pfaffian"),
            (hankel({n: Fraction(1, n) for n in range(1, 24)}, 12), "bareiss"),
            (hankel_moment({n: Fraction(1, n + 1) for n in range(1, 24)}, 12), "bareiss"),
            (toeplitz_plus_hankel(even, 12), "bareiss"),
        ]
        for M, method in cases:
            got = leading_minors(M, ORDERS)
            for n, res in zip(ORDERS, got):
                assert res.value == det_bareiss(M.leading(n)).value
                assert res.method == method
        assert reference_calls == []

    def test_det_auto_is_the_one_order_case(self, rng):
        for _, M, method in hp_cases(rng):
            assert det_auto(M).value == leading_minors(M, [M.order])[0].value
        seq = random_even_seq(rng)
        T = toeplitz(seq, 9)
        assert det_auto(T).value == det_bareiss(T).value

    def test_order_validation(self):
        T = toeplitz(ScalarSeq({0: 1}, "even"), 3)
        assert leading_minors(T, []) == []
        for bad in ([0], [4], [2, -1]):
            with pytest.raises(ValueError):
                leading_minors(T, bad)
        with pytest.raises(ValueError):
            leading_minors(toeplitz(ScalarSeq({0: 1}, "even"), 3, bits=128), [2], bits=32)


class TestForcedFallback:
    def test_zero_first_minor(self, reference_calls):
        for field in (rational(), hp_real(BITS)):
            M = StructuredMatrix([[0, 1], [1, 0]], field, "toeplitz")
            values = [r.value for r in leading_minors(M, [2, 1])]
            assert values == [-1, 0]
        # both orders of both fields took the reference path
        assert sorted(reference_calls) == [("bareiss", 1), ("bareiss", 2), ("lu", 1), ("lu", 2)]

    def test_zero_minor_in_the_middle(self, reference_calls):
        t = {0: 1, 1: 1, -1: 1, 2: 2, -2: 3}
        for bits in (None, BITS):
            got = leading_minors(toeplitz(t, 3, bits=bits), [1, 2, 3])
            assert [r.value for r in got] == [1, 0, -2]
        assert [r.method for r in got] == ["levinson", "lu", "lu"]
        assert sorted(reference_calls) == [("bareiss", 2), ("bareiss", 3), ("lu", 2), ("lu", 3)]

    def test_drift_over_the_bound(self, reference_calls):
        # det T_2 = 2^-30 is above the pivot bar at 64 bits, but the recursion
        # divides by it and loses more than 3/4 of the bits by order 5
        t = {0: 1, 1: 1, -1: 1 - mp.mpf(2) ** -30}
        t.update({2: 1, 3: Fraction(-7, 8), 4: Fraction(-7, 16)})
        t.update({-2: Fraction(-5, 8), -3: Fraction(9, 8), -4: Fraction(-3, 16)})
        T = toeplitz(t, 5, field=hp_real(64))
        got = leading_minors(T, [5, 4, 1], 64)
        assert [r.method for r in got] == ["lu", "levinson", "levinson"]
        assert reference_calls == [("lu", 5)]
        ref = det_lu(T, 64)
        assert got[0].value == ref.value and got[0].digits_guaranteed == ref.digits_guaranteed


fractions = st.builds(
    Fraction, st.integers(-4, 4), st.integers(1, 4)
) | st.just(Fraction(0))


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["toeplitz", "skew", "hankel", "t_plus_h"]),
    n=st.integers(1, 8),
    coeffs=st.lists(fractions, min_size=17, max_size=17),
)
def test_exact_minors_equal_bareiss(family, n, coeffs):
    if family == "toeplitz":
        M = toeplitz({k - 8: v for k, v in enumerate(coeffs)}, n)
    elif family == "skew":
        M = toeplitz(ScalarSeq({k: v for k, v in enumerate(coeffs[:9]) if k}, "odd"), n)
    elif family == "hankel":
        M = hankel({k + 1: v for k, v in enumerate(coeffs)}, n)
    else:
        M = toeplitz_plus_hankel(ScalarSeq(dict(enumerate(coeffs)), "even"), n)
    got = [r.value for r in leading_minors(M, range(1, n + 1))]
    assert got == [det_bareiss(M.leading(k)).value for k in range(1, n + 1)]
