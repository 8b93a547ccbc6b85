"""leading_minors against the reference path (det_bareiss / det_lu on each
leading block), engine by engine, plus its forced fallbacks."""

import random
from fractions import Fraction
from itertools import accumulate
from operator import mul

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdet.determinants as determinants
import sdet.identities as identities
from sdet.determinants import PrecisionError, det_auto, det_bareiss, det_lu, leading_minors
from sdet.matrices import (
    StructuredMatrix,
    hankel,
    hankel_moment,
    toeplitz,
    toeplitz_plus_hankel,
)
from sdet.scalars import hp_complex, hp_real, rational, to_mp
from sdet.symbols import (
    ArgDoubled,
    FHDescriptor,
    FHProduct,
    JumpT,
    MomentSymbol,
    multiply_by_chi,
    th_to_moment_symbol,
)
from sdet.transforms import ScalarSeq

from conftest import rand_fraction, random_even_seq

BITS = 128
ORDERS = [7, 2, 12, 5, 12, 1]


def count_reference_calls(monkeypatch):
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


@pytest.fixture
def reference_calls(monkeypatch):
    return count_reference_calls(monkeypatch)


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


def untagged(M):
    """M's entries as a general-tagged matrix, as a caller's own rows are:
    a skewsymmetric one takes the skew elimination, Toeplitz or not."""
    return StructuredMatrix(M.rows, M.field)


def hp_cases(rng):
    complex_seq = {
        n: complex(rand_fraction(rng), rand_fraction(rng)) for n in range(-12, 13)
    }
    complex_seq[0] = 4 + 1j
    skew = toeplitz(ScalarSeq({1: 1, 2: Fraction(1, 3), 3: Fraction(-1, 5)}, "odd"), 12, bits=BITS)
    complex_skew = toeplitz(ScalarSeq({1: 1 + 0.5j, 2: Fraction(1, 3) - 0.25j, 3: -0.2 + 0.125j}, "odd"), 12, bits=BITS)
    complex_even = ScalarSeq({0: 3 + 1j, 1: 1 - 0.5j, 2: Fraction(1, 2) + 0.25j}, "even")
    return [
        ("nonsymmetric", toeplitz(JumpT(Fraction(-1, 2)), 12, bits=BITS), "levinson"),
        ("symmetric", toeplitz(FHProduct(FHDescriptor({1: 0.15, -1: 0.15})), 12, bits=BITS), "levinson"),
        ("complex", toeplitz(complex_seq, 12, bits=BITS), "levinson"),
        ("skew", skew, "skew_levinson"),
        ("skew_general", untagged(skew), "pfaffian"),
        ("moment", hankel_moment(MomentSymbol.from_poly({2: 2}, weight="sqrt_ratio"), 12, bits=BITS), "elimination"),
        ("t_plus_h", toeplitz_plus_hankel(ScalarSeq({0: 3, 1: 1, 2: Fraction(1, 2)}, "even"), 12, bits=BITS), "elimination"),
        ("complex_skew", complex_skew, "skew_levinson"),
        ("complex_skew_general", untagged(complex_skew), "pfaffian"),
        ("complex_t_plus_h", toeplitz_plus_hankel(complex_even, 12, bits=BITS), "elimination"),
    ]


class TestEnginesAgainstReference:
    def test_hp_engines(self, rng, reference_calls):
        for name, M, method in hp_cases(rng):
            got = assert_matches_lu(M, ORDERS, BITS)
            assert {r.method for r in got} == {method}, name
        assert reference_calls == []

    def test_complex_skew_toeplitz(self, reference_calls, engine_calls):
        seq = ScalarSeq({1: 1 + 2j, 2: Fraction(1, 3) + 0.5j, 3: -0.25, 4: 0.125j, 5: Fraction(3, 10)}, "odd")
        T = toeplitz(seq, 11, bits=BITS)
        assert T.field == hp_complex(BITS)
        got = assert_matches_lu(T, range(1, 12), BITS)
        assert {r.method for r in got} == {"skew_levinson"}
        assert engine_calls == [("mpf", "skew_levinson")] * 2
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
            (toeplitz(general, 12), "ff_levinson"),
            (toeplitz(even, 12), "ff_levinson"),
            (toeplitz(ScalarSeq({1: 1, 2: 3}, "odd"), 12), "ff_skew_levinson"),
            (untagged(toeplitz(general, 12)), "bareiss"),
            (untagged(toeplitz(ScalarSeq({1: 1, 2: 3}, "odd"), 12)), "pfaffian"),
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
        # both hp orders took the reference path; the exact ones never do
        assert sorted(reference_calls) == [("lu", 1), ("lu", 2)]

    def test_zero_minor_in_the_middle(self, reference_calls):
        t = {0: 1, 1: 1, -1: 1, 2: 2, -2: 3}
        for bits in (None, BITS):
            got = leading_minors(toeplitz(t, 3, bits=bits), [1, 2, 3])
            assert [r.value for r in got] == [1, 0, -2]
        assert [r.method for r in got] == ["levinson", "lu", "lu"]
        assert sorted(reference_calls) == [("lu", 2), ("lu", 3)]

    def test_lu_fallback_keeps_its_twice_the_bits_check(self, monkeypatch):
        # t_0 = 0 stops Levinson at once, so every order takes det_lu, which
        # checks at 2*bits whatever the engines' check precision, and whose
        # singular order 1 confirms its zero at 4*bits
        precs = []
        lu_pass = determinants._lu_pass

        def recorded(rows, n, prec):
            precs.append(prec)
            return lu_pass(rows, n, prec)

        monkeypatch.setattr(determinants, "_lu_pass", recorded)
        t = {0: 0, 1: 1, -1: 2, 2: Fraction(1, 3), -2: Fraction(1, 5)}
        got = leading_minors(toeplitz(t, 3, bits=BITS), [1, 2, 3], BITS)
        assert [r.method for r in got] == ["lu"] * 3
        assert [r.value for r in got[:2]] == [0, -2]
        assert precs == [BITS, 2 * BITS, 4 * BITS] + [BITS, 2 * BITS] * 2

    def test_tiny_pfaffian_ratio(self, reference_calls):
        # Pf T_4 / Pf T_2 = -(t_1^2 - t_2^2 + t_1 t_3) / t_1 = -2^-70 lies below
        # the 2^-64 bar: order 4 and every later one take det_lu
        t = {1: 1, 2: 1, 3: Fraction(1, 2**70), 4: Fraction(1, 3), 5: Fraction(-1, 5), 6: Fraction(1, 7), 7: Fraction(2, 9)}
        T = toeplitz(ScalarSeq(t, "odd"), 8, bits=BITS)
        got = leading_minors(T, range(1, 9), BITS)
        assert [r.method for r in got] == ["skew_levinson"] * 3 + ["lu"] * 5
        assert sorted(reference_calls) == [("lu", n) for n in range(4, 9)]
        assert [r.value for r in got[:3]] == [0, 1, 0]
        assert got[3].value == mp.mpf(2) ** -140
        for n, res in zip(range(4, 9), got[3:]):
            ref = det_lu(T.leading(n), BITS)
            assert (res.value, res.digits_guaranteed) == (ref.value, ref.digits_guaranteed)

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

    @pytest.mark.parametrize(
        "t, served",
        [
            # det T_2 = 1 - (-i)(i) = 0: the recursion stops after order 1
            ({0: 1, 1: 1j, -1: -1j, 2: 0.5, -2: 0.25, 3: 2j, -3: 1}, 1),
            # t_0 = 0 with t_1 = t_-1 = i (not skew): it stops at its first step
            ({0: 0, 1: 1j, -1: 1j, 2: 0.5, -2: -1, 3: 1 + 1j, -3: 3}, 0),
        ],
    )
    def test_complex_levinson_stops(self, t, served, reference_calls, monkeypatch):
        ratios = []
        levinson = determinants._levinson_ratios

        def counted(col, row, prec, tiny):
            out = levinson(col, row, prec, tiny)
            ratios.append(len(out))
            return out

        monkeypatch.setattr(determinants, "_levinson_ratios", counted)
        T = toeplitz(t, 4, bits=BITS)
        assert T.field == hp_complex(BITS)
        got = leading_minors(T, [1, 2, 3, 4], BITS)
        # the complex engine ran, and stopped after `served` orders
        assert ratios[0] == served
        assert [r.method for r in got] == ["levinson"] * served + ["lu"] * (4 - served)
        assert reference_calls == [("lu", n) for n in range(served + 1, 5)]
        for n, res in zip(range(1, 5), got):
            ref = det_lu(T.leading(n), BITS)
            if n > served:
                assert (res.value, res.digits_guaranteed) == (ref.value, ref.digits_guaranteed)
            else:
                assert abs(res.value - ref.value) <= mp.mpf(2) ** (-BITS // 2) * abs(ref.value)
        assert got[served].value == 0  # the minor the recursion stopped at


def tail(t, top):
    """t completed to indices -top..top by 1/(k^2 + 1), a nonzero filler."""
    return {k: t.get(k, Fraction(1, k * k + 1)) for k in range(-top, top + 1)}


@pytest.fixture
def symmetric_flags(monkeypatch):
    """The symmetric flag of every general exact pass, in call order."""
    flags = []
    integer_minors = determinants._integer_minors

    def spied(a, symmetric=False):
        flags.append(symmetric)
        return integer_minors(a, symmetric)

    monkeypatch.setattr(determinants, "_integer_minors", spied)
    return flags


def assert_exact_minors(M):
    """Every leading minor equals det_bareiss on its block; the values."""
    got = leading_minors(M, range(1, M.order + 1))
    values = [r.value for r in got]
    assert values == [det_bareiss(M.leading(k)).value for k in range(1, M.order + 1)]
    return values


class TestExactLookAhead:
    """Exact orders past a zero leading minor come from Sylvester look-ahead
    steps on the same pass, never from det_bareiss."""

    def test_zero_at_order_one(self, reference_calls):
        values = assert_exact_minors(toeplitz(tail({0: 0}, 11), 12))
        assert values[0] == 0 and all(values[1:])
        assert reference_calls == []

    def test_zero_at_order_two(self, reference_calls):
        values = assert_exact_minors(toeplitz(tail({0: 1, 1: 1, -1: 1}, 11), 12))
        assert values[1] == 0 and values[0] and all(values[2:])
        assert reference_calls == []

    def test_three_zeros_at_orders_one_to_three(self, reference_calls):
        # t_0 = t_1 = t_2 = 0: the leading 3 x 3 block is strictly upper
        # triangular, and det T_4 = -t_3 t_{-1}^3
        values = assert_exact_minors(toeplitz(tail({0: 0, 1: 0, 2: 0, -1: 1, 3: 2}, 23), 24))
        assert values[:3] == [0, 0, 0] and values[3] == -2
        assert all(values[3:])
        assert reference_calls == []

    def test_three_zeros_at_orders_three_to_five(self, reference_calls):
        t = {-5: -1, -4: 1, -3: 1, -2: 0, -1: -1, 0: 1, 1: 0, 2: -1, 3: 1, 4: -1, 5: -1}
        values = assert_exact_minors(toeplitz(tail(t, 23), 24))
        assert values[:6] == [1, 1, 0, 0, 0, 4]
        assert all(values[5:])
        assert reference_calls == []

    def test_hankel_zero_at_order_two(self, reference_calls, symmetric_flags):
        # h_1 = h_2 = h_3 = 1: det H_2 = h_1 h_3 - h_2^2 = 0, after one
        # step of the symmetric pass
        values = assert_exact_minors(hankel(tail({1: 1, 2: 1, 3: 1}, 23), 12))
        assert values[1] == 0 and values[0] and all(values[2:])
        assert symmetric_flags == [True]
        assert reference_calls == []

    def test_t_plus_h_zeros_at_orders_three_and_four(self, reference_calls, symmetric_flags):
        # a_0 = a_4 = -1, a_7 = 1 and a_1, a_2, a_3, a_5, a_6 = 0: two
        # symmetric steps, then one look-ahead step of size 3
        t = {0: -1, 1: 0, 2: 0, 3: 0, 4: -1, 5: 0, 6: 0, 7: 1}
        a = {k: v for k, v in tail(t, 23).items() if k >= 0}
        values = assert_exact_minors(toeplitz_plus_hankel(ScalarSeq(a, "even"), 12))
        assert values[:5] == [-1, 1, 0, 0, -1]
        assert all(values[4:])
        assert symmetric_flags == [True]
        assert reference_calls == []

    @pytest.mark.parametrize("odd", [{1: 0, 2: 1, 3: 2}, {1: 1, 2: 2, 3: 3}])
    def test_skew_zero_pfaffian_pivot(self, odd, reference_calls):
        # Pf_2 = a_1 = 0, and Pf_4 = a_1^2 - a_2^2 + a_1 a_3 = 0
        a = {k: odd.get(k, Fraction(1, k * k + 1)) for k in range(1, 12)}
        values = assert_exact_minors(toeplitz(ScalarSeq(a, "odd"), 12))
        zero = 2 if odd[1] == 0 else 4
        assert [n for n, v in enumerate(values, 1) if v == 0] == sorted([*range(1, 12, 2), zero])
        assert reference_calls == []

    def test_minors_vanish_from_some_order_on(self, reference_calls):
        # h_k = 1 + 2^k + 3^k: a Hankel matrix of rank 3
        values = assert_exact_minors(hankel({k: 1 + 2**k + 3**k for k in range(1, 24)}, 12))
        assert all(values[:3]) and values[3:] == [0] * 9
        assert reference_calls == []


def test_symmetric_pass_reads_one_triangle():
    # every pivot is nonzero, so the pass never hands off to the look-ahead
    # and never reads the strict lower triangle, poisoned here
    M = toeplitz_plus_hankel(ScalarSeq({0: 4, 1: 1, 3: Fraction(1, 2)}, "even"), 12)
    poisoned = [list(r) for r in M.ints]
    for i in range(1, 12):
        for j in range(i):
            poisoned[i][j] = 1000 + 7 * i - 5 * j
    minors = determinants._integer_minors([r[:] for r in poisoned], symmetric=True)
    assert all(minors)
    assert [Fraction(m, M.den**k) for k, m in enumerate(minors, 1)] == [
        det_bareiss(M.leading(k)).value for k in range(1, 13)
    ]
    # the general steps read the poison
    assert determinants._integer_minors(poisoned) != minors


def test_steps_after_a_look_ahead_update_one_triangle():
    # a_00 = 0: a look-ahead step of size 2, then nonzero pivots.  The steps
    # after the look-ahead update the upper triangle only, so the strict
    # lower triangle of the trailing rows keeps what the look-ahead left
    # there: the order-3 bordered minors det A[{0, 1, i}; {0, 1, j}]
    A = [
        [0, 1, 2, -1, 3, 1],
        [1, 2, 0, 1, -2, 1],
        [2, 0, 1, 3, 1, -1],
        [-1, 1, 3, 0, 2, 2],
        [3, -2, 1, 2, 1, 0],
        [1, 1, -1, 2, 0, 3],
    ]
    a = [r[:] for r in A]
    minors = determinants._integer_minors(a, symmetric=True)
    assert minors == determinants._integer_minors([r[:] for r in A]) == [0, -1, -9, -27, 130, 698]

    def bordered(i, j):
        rows = [[Fraction(A[r][c]) for c in (0, 1, j)] for r in (0, 1, i)]
        return det_bareiss(StructuredMatrix(rows, rational())).value

    assert all(a[i][j] == bordered(i, j) for i in range(3, 6) for j in range(2, i))


# zero-rich, so that singular leading blocks of size >= 2 and skewsymmetric
# matrices with a zero Pfaffian pivot occur
fractions = st.builds(
    Fraction, st.integers(-2, 2), st.integers(1, 3)
) | st.just(Fraction(0))


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(["toeplitz", "even_toeplitz", "skew", "hankel", "t_plus_h"]),
    n=st.integers(1, 12),
    coeffs=st.lists(fractions, min_size=25, max_size=25),
)
def test_exact_minors_equal_bareiss(family, n, coeffs):
    if family == "toeplitz":
        M = toeplitz({k - 12: v for k, v in enumerate(coeffs)}, n)
    elif family == "even_toeplitz":
        M = toeplitz({k: coeffs[abs(k)] for k in range(-12, 13)}, n)
    elif family == "skew":
        M = toeplitz(ScalarSeq({k: v for k, v in enumerate(coeffs[:13]) if k}, "odd"), n)
    elif family == "hankel":
        M = hankel({k + 1: v for k, v in enumerate(coeffs)}, n)
    else:
        M = toeplitz_plus_hankel(ScalarSeq(dict(enumerate(coeffs)), "even"), n)
    with pytest.MonkeyPatch.context() as patch:
        calls = count_reference_calls(patch)
        got = [r.value for r in leading_minors(M, range(1, n + 1))]
    assert calls == []
    assert got == [det_bareiss(M.leading(k)).value for k in range(1, n + 1)]


# the fraction-free Levinson engines of exact Toeplitz blocks

ENGINE = {"general": "ff_levinson", "symmetric": "ff_levinson", "skew": "ff_skew_levinson"}

nonzero_rich = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))

# cos(k theta) for theta = 0, pi, pi/2, pi/3 (doubled) and 2 pi/3 (doubled),
# k >= 0: the symmetric Toeplitz matrix of each has rank 1, 1, 2, 2 and 2
COS_PATTERNS = ([1], [1, -1], [1, 0, -1, 0], [2, 1, -1, -2, -1, 1], [2, -1, -1])
RANKS = (1, 1, 2, 2, 2)


def _zero_at(value_at):
    """The root of an affine map of Fractions, or None when it is constant."""
    v0 = value_at(Fraction(0))
    slope = value_at(Fraction(1)) - v0
    return -v0 / slope if slope else None


def _with(t, k, x, sign):
    return {**t, k: x, -k: sign * x}


@st.composite
def toeplitz_cases(draw):
    """(kind, t, n): entries t_k, |k| < n, of a general, symmetric or skew
    Toeplitz matrix, from one of five families."""
    kind = draw(st.sampled_from(sorted(ENGINE)))
    family = draw(st.sampled_from(["random", "banded", "t0_zero", "t1_zero", "zero_midway"]))
    n = draw(st.integers(1, 48))
    values = draw(st.lists(nonzero_rich, min_size=2 * n + 1, max_size=2 * n + 1))
    t = {k: values[k + n] for k in range(-n, n + 1)}
    if family == "banded":
        width = draw(st.integers(1, 3))
        t = {k: v if abs(k) <= width else Fraction(0) for k, v in t.items()}
    if kind != "general":
        sign = -1 if kind == "skew" else 1
        t.update({-k: sign * t[k] for k in range(1, n + 1)})
        t[0] *= kind == "symmetric"
    if family == "t0_zero":
        t[0] = Fraction(0)
    elif family == "t1_zero":
        t[1] = Fraction(0)
        if kind != "general":
            t[-1] = Fraction(0)
    elif family == "zero_midway" and kind == "general" and n >= 2:
        # det T_m is affine in t_(m-1), which sits only at (m-1, 0)
        m = draw(st.integers(2, n))
        x = _zero_at(lambda x: det_bareiss(toeplitz({**t, m - 1: x}, m)).value)
        t[m - 1] = t[m - 1] if x is None else x
    elif family == "zero_midway" and kind == "skew" and n >= 2:
        # Pf T_2m is affine in t_(2m-1) = -t_(1-2m)
        m = draw(st.integers(1, n // 2))
        x = _zero_at(lambda x: determinants.pfaffian(toeplitz(_with(t, 2 * m - 1, x, -1), 2 * m)))
        t = t if x is None else _with(t, 2 * m - 1, x, -1)
    elif family == "zero_midway" and kind == "symmetric":
        # sum_l c_l cos(k theta_l) with c_l > 0 for |k| <= r = sum of ranks:
        # T_k is positive definite up to order r, and T_(r+1) is singular
        chosen = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True))
        coeffs = draw(st.lists(st.integers(1, 5), min_size=len(chosen), max_size=len(chosen)))
        r = sum(RANKS[i] for i in chosen)
        for k in range(-min(r, n), min(r, n) + 1):
            t[k] = Fraction(sum(c * COS_PATTERNS[i][abs(k) % len(COS_PATTERNS[i])] for i, c in zip(chosen, coeffs)))
    return kind, t, n


def expected_methods(kind, values):
    """The engine up to its first zero minor (the odd order after its first
    zero Pfaffian for a skew block), and "bareiss" for the later orders."""
    n = len(values)
    zeros = [k for k in range(2 if kind == "skew" else 1, n + 1, 2 if kind == "skew" else 1) if values[k - 1] == 0]
    served = min(zeros) - 1 if zeros else n
    return [ENGINE[kind]] * served + ["bareiss"] * (n - served)


@settings(max_examples=80, deadline=None)
@given(case=toeplitz_cases())
def test_fraction_free_levinson_equals_bareiss(case):
    kind, t, n = case
    M = toeplitz(t, n)
    kind = "skew" if M.is_skew() else kind  # a zero-rich block may be skew
    with pytest.MonkeyPatch.context() as patch:
        calls = count_reference_calls(patch)
        got = leading_minors(M, range(1, n + 1))
    assert calls == []
    values = [det_bareiss(M.leading(k)).value for k in range(1, n + 1)]
    assert [r.value for r in got] == values
    assert [r.method for r in got] == expected_methods(kind, values)
    if kind == "skew":
        # the same Pfaffians as the skew elimination, up to the first zero
        pfs = determinants._skew_pivots([list(r) for r in M.ints])
        assert determinants._ff_skew_levinson([r[0] for r in M.ints]) == pfs


@pytest.mark.parametrize("kind", ["general", "skew"])
def test_fraction_free_levinson_on_a_dense_block(kind):
    # n = 128, every entry nonzero: every order against the elimination
    # pass that served it before, and orders 64 and 128 against det_bareiss
    rng = random.Random(128)
    n = 128
    t = {k: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 3)) for k in range(1, n)}
    if kind == "skew":
        M = toeplitz(ScalarSeq(t, "odd"), n)
        ints = [list(r) for r in M.ints]
        ref = determinants._skew_minors(determinants._skew_pivots(ints), n, 0)
    else:
        t.update({-k: Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for k in range(1, n)})
        t[0] = Fraction(5)
        M = toeplitz(t, n)
        ref = determinants._integer_minors([list(r) for r in M.ints])
    got = leading_minors(M, range(1, n + 1))
    assert {r.method for r in got} == {ENGINE[kind]}
    assert [r.value for r in got] == [Fraction(m, M.den**k) for k, m in enumerate(ref, 1)]
    assert all(ref[1::2])
    for k in (64, n):
        assert got[k - 1].value == det_bareiss(M.leading(k)).value


@pytest.mark.parametrize("kind", ["general", "symmetric", "skew"])
def test_fraction_free_levinson_hands_a_zero_minor_on(kind, reference_calls):
    # a zero minor or Pfaffian at order 5 or 6: the engine serves the orders
    # before it, the look-ahead pass every later one, each equal to
    # det_bareiss
    n = 12
    t = {k: Fraction((-1) ** abs(k), k * k + 2) for k in range(-n, n + 1)}
    if kind == "general":
        # det T_5 = 0 by the choice of t_4
        t[4] = _zero_at(lambda x: det_bareiss(toeplitz({**t, 4: x}, 5)).value)
        served = 4
    elif kind == "skew":
        # Pf T_6 = 0 by the choice of t_5 = -t_(-5)
        t = {k: v if k > 0 else -t[-k] if k else Fraction(0) for k, v in t.items()}
        t = _with(t, 5, _zero_at(lambda x: determinants.pfaffian(toeplitz(_with(t, 5, x, -1), 6))), -1)
        served = 5
    else:
        # t_k = 1 + cos(k pi/2) + 2 cos(k pi/3) for |k| <= 5: T_6 has rank 5
        patterns = (COS_PATTERNS[0], *COS_PATTERNS[2:4])
        t.update({k: Fraction(sum(c[abs(k) % len(c)] for c in patterns)) for k in range(-5, 6)})
        t.update({-k: t[k] for k in range(6, n + 1)})
        served = 5
    M = toeplitz(t, n)
    got = leading_minors(M, range(1, n + 1))
    values = [det_bareiss(M.leading(k)).value for k in range(1, n + 1)]
    assert [r.value for r in got] == values
    assert values[4 if kind == "general" else 5] == 0
    assert [r.method for r in got] == [ENGINE[kind]] * served + ["bareiss"] * (n - served)
    assert reference_calls == []


def mpf_minors(M, orders, bits):
    """leading_minors with the fixed-point kernels of real matrices replaced
    by the mpf engines, which complex matrices run, on a copy of M, so that
    no pass M keeps is read."""
    copy = StructuredMatrix(M.rows, M.field, M.structure, check=False)
    with pytest.MonkeyPatch.context() as patch:
        for engine in determinants._ENGINES.values():
            patch.setattr(determinants, engine.fixed, getattr(determinants, engine.mpf))
        return leading_minors(copy, orders, bits)


@pytest.fixture
def engine_calls(monkeypatch):
    """hp passes by kind ("fixed" or "mpf") and method."""
    calls = []
    for engine in determinants._ENGINES.values():
        for kind, name in (("fixed", engine.fixed), ("mpf", engine.mpf)):

            def counted(*args, _kernel=getattr(determinants, name), _call=(kind, engine.hp)):
                calls.append(_call)
                return _kernel(*args)

            monkeypatch.setattr(determinants, name, counted)
    return calls


def _chi_toeplitz():
    return toeplitz(multiply_by_chi(FHProduct(FHDescriptor({1: 0.15, -1: 0.15}))), 64, bits=512)


KERNEL_CASES = {
    "levinson": lambda: toeplitz(JumpT(Fraction(-1, 2)), 64, bits=512),
    "skew_levinson": _chi_toeplitz,
    "pfaffian": lambda: untagged(_chi_toeplitz()),
    "elimination": lambda: hankel_moment(MomentSymbol.from_poly({0: 1, 2: 2}, weight="sqrt_ratio"), 32, bits=256),
}


class TestFixedPointKernels:
    """Real hp matrices run the int kernels; the mpf engines stay the complex
    path and are the oracle here."""

    @pytest.mark.parametrize("method", sorted(KERNEL_CASES))
    def test_against_the_mpf_engine(self, method, engine_calls):
        M = KERNEL_CASES[method]()
        bits = M.field.bits
        orders = range(1, M.order + 1)
        got = leading_minors(M, orders)
        assert engine_calls == [("fixed", method)] * 2
        ref = mpf_minors(M, orders, bits)
        tol = mp.mpf(2) ** -(bits - 12)
        for res, old in zip(got, ref):
            assert res.method == old.method == method
            with mp.workprec(2 * bits):
                assert abs(res.value - old.value) <= tol * abs(old.value)

    @pytest.mark.parametrize("low", [0, 40])
    def test_levinson_on_entries_of_mixed_width(self, low, monkeypatch):
        # t_1 = 2^-low / 7 carries a 2*bits mantissa, the other entries
        # 24 bits, and both passes round t_1.  At low = 0 each pass holds
        # the entries down to t_1's last bit; at low = 40 t_1 reaches below
        # the kernel's W-bit scale in both passes, which then cut it there
        bits, n = 256, 24
        t = {k: to_mp(Fraction(3, 4 + abs(k)) * (-1) ** k, 24) for k in range(-n + 1, n)}
        t[0] = mp.mpf(4)
        t[1] = to_mp(Fraction(1, 7 * 2**low), 2 * bits)
        assert t[1]._mpf_[3] > bits
        M = StructuredMatrix([[t[j - k] for k in range(n)] for j in range(n)], hp_real(bits), "toeplitz")
        passes = {}
        fixed = determinants._fixed_levinson

        def recorded(col, row, prec, tiny):
            # both kernels on the same entries, multiplied up as the pass does
            ratios = fixed(col, row, prec, tiny)
            plain = determinants._levinson_ratios(col, row, prec, tiny)
            with mp.workprec(prec + determinants.GUARD):
                passes[prec] = list(accumulate(ratios, mul)), [list(accumulate(plain, mul))]
            return ratios

        monkeypatch.setattr(determinants, "_fixed_levinson", recorded)
        got = leading_minors(M, range(1, n + 1))
        assert [r.method for r in got] == ["levinson"] * n
        for prec, (ints, (plain,)) in passes.items():
            assert len(ints) == len(plain) == n
            for a, b in zip(ints, plain):
                with mp.workprec(2 * prec):
                    assert abs(a - b) <= mp.mpf(2) ** -(prec - 12) * abs(b)
        assert sorted(passes) == [bits, bits + bits // 2]

    def test_wide_entries_round_in_the_bits_pass(self, monkeypatch):
        # T+H entries are sums held at bits + 32, wider than the bits pass
        bits = 128
        M = toeplitz_plus_hankel(ScalarSeq({k: Fraction(1, 3 + 4 * k) for k in range(12)}, "even"), 6, bits=bits)
        assert max(v._mpf_[3] for r in M.rows for v in r) > bits
        seen = {}
        fixed = determinants._fixed_elimination

        def recorded(a, prec, tiny):
            seen[prec] = a
            return fixed(a, prec, tiny)

        monkeypatch.setattr(determinants, "_fixed_elimination", recorded)
        leading_minors(M, [6], bits)
        for prec, data in seen.items():
            for row, held in zip(M.rows, data):
                assert [v._mpf_ for v in held] == [to_mp(v, prec)._mpf_ for v in row]
        assert sorted(seen) == [bits, bits + bits // 2]

    def test_skew_levinson_keeps_the_elimination_digits(self):
        # skew_square's T_128(c) on exp(0.3 cos theta) at 256 bits, whose
        # entries tend to a constant: the block recursion's drift stays at
        # the elimination's on every order, where an X that took Gamma_00
        # for its equal Gamma_11 lost a digit every ~6 orders
        row = identities._IDENTITIES[identities.IdentityKind.SkewSquare]
        T, _ = row.build(_exp_cos(), 64, "hp", 256, [])
        got = leading_minors(T, range(1, 129))
        ref = leading_minors(untagged(T), range(1, 129))
        assert {r.method for r in got} == {"skew_levinson"} and {r.method for r in ref} == {"pfaffian"}
        assert all(r.digits_guaranteed >= old.digits_guaranteed - 1 for r, old in zip(got, ref))

    def test_complex_entries_keep_the_mpf_engine(self, rng, engine_calls):
        cases = {name: (M, method) for name, M, method in hp_cases(rng)}
        for name in [name for name in cases if name.startswith("complex")]:
            M, method = cases.pop(name)
            assert M.field == hp_complex(BITS), name
            assert {r.method for r in leading_minors(M, ORDERS, BITS)} == {method}
            assert engine_calls == [("mpf", method)] * 2
            engine_calls.clear()
        for M, method in cases.values():
            leading_minors(M, ORDERS, BITS)
        assert {kind for kind, _ in engine_calls} == {"fixed"}

    def test_elimination_is_named_apart_from_its_fallback(self, reference_calls):
        # c_0 = 1 with c_19..c_22 below the 2^-64 pivot bar: the engine serves
        # every order, and no order reaches det_lu
        tiny = Fraction(1, 2**70)
        M = toeplitz_plus_hankel(ScalarSeq({0: 1, **dict.fromkeys(range(19, 23), tiny)}, "even"), 14, bits=BITS)
        got = assert_matches_lu(M, range(1, 15), BITS)
        assert [r.method for r in got] == ["elimination"] * 14
        assert reference_calls == []

    def test_graded_moment_hankel_claims_hold(self):
        # moments of the uniform measure on [0, 1/16], m_k = 2^(-4k) / (k + 1):
        # a Hankel matrix graded by 2^(-4(i + j)) that loses ~20 digits by N = 16
        bits = 256
        H = hankel_moment({k + 1: Fraction(1, 16**k * (k + 1)) for k in range(31)}, 16, field=hp_real(bits))
        orders = range(1, 17)
        got = leading_minors(H, orders, bits)
        ref = mpf_minors(H, orders, bits)
        # the engine's drift passes the bound up to order 11; det_lu serves the rest
        assert [r.method for r in got] == ["elimination"] * 11 + ["lu"] * 5
        for n, res, old in zip(orders, got, ref):
            assert res.method == old.method
            exact = det_lu(H.leading(n), 4 * bits).value
            with mp.workprec(4 * bits):
                assert abs(res.value - exact) <= mp.mpf(10) ** -res.digits_guaranteed * abs(exact)
            assert res.digits_guaranteed >= old.digits_guaranteed - 1
        assert got[-1].digits_guaranteed < 60


def _exp_cos():
    """exp(0.3 cos theta)."""
    return FHProduct(FHDescriptor({1: 0.15, -1: 0.15}))


def exact_value(v):
    """An mpf as the Fraction it is."""
    sign, man, exp, _ = v._mpf_
    man = -man if sign else man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


# (builder of the hp matrix at N and bits, N, the engine that must serve it)
ORACLE_CASES = {
    "levinson_jump": (lambda n, bits: toeplitz(JumpT(Fraction(-1, 2)), n, bits=bits), 24, "levinson"),
    "levinson_symmetric": (
        lambda n, bits: toeplitz(FHProduct(FHDescriptor({1: 0.2, -1: 0.2, 2: 0.1, -2: 0.1})), n, bits=bits),
        24,
        "levinson",
    ),
    "elimination_moment": (lambda n, bits: hankel_moment(th_to_moment_symbol(_exp_cos()), n, bits=bits), 24, "elimination"),
    "elimination_t_plus_h": (lambda n, bits: toeplitz_plus_hankel(_exp_cos(), n, bits=bits), 24, "elimination"),
    "skew_levinson_chi": (lambda n, bits: toeplitz(multiply_by_chi(ArgDoubled(_exp_cos())), n, bits=bits), 32, "skew_levinson"),
    "pfaffian_chi": (
        lambda n, bits: untagged(toeplitz(multiply_by_chi(ArgDoubled(_exp_cos())), n, bits=bits)),
        32,
        "pfaffian",
    ),
}


@pytest.mark.parametrize("bits", [256, 512])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_claimed_digits_hold_against_exact_minors(case, bits):
    # the matrix's own entries, read as the rationals they are, have exact
    # minors; every hp minor must be within its claimed digits of them.  This
    # measures the engine's own error, checked at bits + ceil(bits/2), and
    # not the error of the rounded entries against the symbol's true ones
    build, n, method = ORACLE_CASES[case]
    M = build(n, bits)
    got = leading_minors(M, range(1, n + 1), bits)
    assert [r.method for r in got] == [method] * n
    Q = StructuredMatrix([[exact_value(v) for v in r] for r in M.rows], rational(), M.structure)
    exact = leading_minors(Q, range(1, n + 1))
    for res, ref in zip(got, exact):
        if ref.value == 0:  # an odd order of a skewsymmetric matrix
            assert res.value == 0
            continue
        with mp.workprec(4 * bits):
            want = mp.mpf(ref.value.numerator) / ref.value.denominator
            assert abs(res.value - want) <= mp.mpf(10) ** -res.digits_guaranteed * abs(want)


def _skew_square_t(n, bits):
    """skew_square's T_2n(c) on exp(0.3 cos theta)."""
    row = identities._IDENTITIES[identities.IdentityKind.SkewSquare]
    return row.build(_exp_cos(), n, "hp", bits, [])[0]


# (the real block, the structure tag of its complex copy)
COMPLEX_COPY_CASES = {
    "skew_toeplitz": (lambda: _skew_square_t(32, 256), "toeplitz"),
    "skew_general": (lambda: _skew_square_t(32, 256), "general"),
    "t_plus_h": (lambda: toeplitz_plus_hankel(_exp_cos(), 32, bits=256), None),
    "moment": (lambda: hankel_moment(th_to_moment_symbol(_exp_cos()), 24, bits=256), None),
}


@pytest.mark.parametrize("case", sorted(COMPLEX_COPY_CASES))
def test_complex_copies_claim_the_real_digits(case):
    # the mpf engines of complex blocks work GUARD bits up and multiply
    # their ratios up as the fixed-point kernels do, so a copy of a real
    # block with mpc entries (imaginary parts 0) claims the real block's
    # digits, less at most one; each claim holds against the exact minors
    # of the entries read as the rationals they are
    build, structure = COMPLEX_COPY_CASES[case]
    M = build()
    n = M.order
    with mp.workprec(4 * 256):  # wide enough to take every entry as it is
        rows = [[mp.mpc(v) for v in r] for r in M.rows]
    C = StructuredMatrix(rows, hp_complex(256), structure or M.structure)
    got = leading_minors(C, range(1, n + 1))
    real = leading_minors(M, range(1, n + 1))
    assert all(res.digits_guaranteed >= ref.digits_guaranteed - 1 for res, ref in zip(got, real))
    Q = StructuredMatrix([[exact_value(v.real) for v in r] for r in rows], rational(), M.structure)
    for res, ref in zip(got, leading_minors(Q, range(1, n + 1))):
        if ref.value == 0:  # an odd order of a skewsymmetric matrix
            assert res.value == 0
            continue
        with mp.workprec(4 * 256):
            want = mp.mpf(ref.value.numerator) / ref.value.denominator
            assert abs(res.value - want) <= mp.mpf(10) ** -res.digits_guaranteed * abs(want)


# zero-rich, with entries below the 2^-64 pivot bar of 128 bits, so that
# the hp engines meet zero and tiny pivots, Pfaffian pivots among them
hp_fractions = fractions | st.sampled_from([Fraction(1, 2**70), Fraction(-3, 2**66)])


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["toeplitz", "skew", "t_plus_h"]),
    n=st.integers(1, 16),
    coeffs=st.lists(hp_fractions, min_size=33, max_size=33),
)
def test_hp_minors_agree_with_lu(family, n, coeffs):
    if family == "toeplitz":
        M = toeplitz({k - 16: v for k, v in enumerate(coeffs)}, n, bits=BITS)
    elif family == "skew":
        M = toeplitz(ScalarSeq({k: v for k, v in enumerate(coeffs[:17]) if k}, "odd"), n, bits=BITS)
    else:
        M = toeplitz_plus_hankel(ScalarSeq(dict(enumerate(coeffs)), "even"), n, bits=BITS)
    refs = []
    for k in range(1, n + 1):
        try:
            refs.append(det_lu(M.leading(k), BITS))
        except PrecisionError:
            refs.append(None)
    # a skew Toeplitz block takes the block Levinson; the same entries,
    # tagged general, take the skew elimination
    for matrix in [M, untagged(M)] if family == "skew" else [M]:
        assert_agree_with_lu(matrix, refs)


def assert_agree_with_lu(M, refs):
    """Every leading minor of M equals its det_lu in refs (None where det_lu
    raised), to the digits both claim, or is det_lu's own result."""
    n = M.order
    with pytest.MonkeyPatch.context() as patch:
        calls = count_reference_calls(patch)
        try:
            got = leading_minors(M, range(1, n + 1), BITS)
        except PrecisionError:
            assert None in refs  # only the det_lu path raises
            return
    fallback = {k for _, k in calls}
    for k, res, ref in zip(range(1, n + 1), got, refs):
        if k in fallback:
            assert (res.value, res.digits_guaranteed) == (ref.value, ref.digits_guaranteed)
        elif ref is None:
            continue  # det_lu raised
        elif ref.value == 0:
            assert res.value == 0  # an odd skew order, or a block neither pass resolves
        else:
            assert res.value != 0  # a nonsingular block never comes back as 0
            digits = min(res.digits_guaranteed, ref.digits_guaranteed)
            with mp.workprec(2 * BITS):
                assert abs(res.value - ref.value) <= mp.mpf(10) ** (1 - digits) * abs(ref.value)
