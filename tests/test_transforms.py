import random
from fractions import Fraction
from math import comb

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdet.transforms import (
    ScalarSeq,
    a_to_b,
    a_to_c,
    build_D,
    c_to_b,
    congruence_check,
    recover_even_from_c,
)

from conftest import random_even_seq


def geometric_even(support: int = 12) -> ScalarSeq:
    return ScalarSeq({n: Fraction(1, 2**n) for n in range(support + 1)}, "even")


class TestScalarSeq:
    def test_even_mirrors_entries(self):
        s = ScalarSeq({2: Fraction(1, 3)}, "even")
        assert s[2] == Fraction(1, 3)
        assert s[-2] == Fraction(1, 3)
        assert s[5] == 0

    def test_even_rejects_asymmetric_entries(self):
        with pytest.raises(ValueError):
            ScalarSeq({1: 1, -1: 2}, "even")

    def test_odd_negates_and_forces_zero_center(self):
        s = ScalarSeq({3: 2}, "odd")
        assert s[-3] == -2
        assert s[0] == 0
        with pytest.raises(ValueError):
            ScalarSeq({0: 1}, "odd")

    def test_one_sided_rejects_low_indices(self):
        with pytest.raises(ValueError):
            ScalarSeq({0: 1}, "one_sided")
        s = ScalarSeq({1: 5}, "one_sided")
        with pytest.raises(IndexError):
            s[0]

    def test_unknown_symmetry(self):
        with pytest.raises(ValueError):
            ScalarSeq({}, "diagonal")


class TestAToB:
    def test_unit_sequence_gives_central_binomials(self):
        delta = ScalarSeq({0: 1}, "even")
        assert a_to_b(delta, 6).values(6) == [1, 1, 2, 3, 6, 10]

    def test_geometric_prefix(self):
        b = a_to_b(geometric_even(), 3)
        assert b.values(3) == [Fraction(3, 2), Fraction(9, 4), Fraction(33, 8)]

    def test_zero_maps_to_zero(self):
        b = a_to_b(ScalarSeq({}, "even"), 5)
        assert b.values(5) == [0, 0, 0, 0, 0]

    def test_rejects_odd_input(self):
        with pytest.raises(ValueError):
            a_to_b(ScalarSeq({1: 1}, "odd"), 3)

    def test_linearity(self, rng):
        x = random_even_seq(rng)
        y = random_even_seq(rng)
        mix = ScalarSeq(
            {n: 3 * x[n] - 2 * y[n] for n in range(0, 8)}, "even"
        )
        bx, by, bm = a_to_b(x, 6), a_to_b(y, 6), a_to_b(mix, 6)
        for n in range(1, 7):
            assert bm[n] == 3 * bx[n] - 2 * by[n]

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.dictionaries(
            st.integers(0, 10),
            st.integers(-9, 9) | st.fractions(min_value=-5, max_value=5, max_denominator=24),
            max_size=6,
        ),
        n_max=st.integers(1, 14),
    )
    def test_common_denominator_matches_per_term_fraction_sum(self, entries, n_max):
        a = ScalarSeq(entries, "even")
        want = [
            sum(
                (comb(n - 1, k) * (Fraction(a[1 - n + 2 * k]) + Fraction(a[2 - n + 2 * k]))
                 for k in range(n)),
                Fraction(0),
            )
            for n in range(1, n_max + 1)
        ]
        got = a_to_b(a, n_max).values(n_max)
        assert got == want
        assert all(isinstance(v, (int, Fraction)) for v in got)

    def test_hp_input_keeps_its_arithmetic(self):
        # the same roundings as the per-term sum, in the caller's precision
        with mp.workprec(200):
            a = ScalarSeq({0: mp.mpf(1) / 3, 1: Fraction(1, 7), 3: mp.mpf(2) / 9}, "even")
            got = a_to_b(a, 6).values(6)
            want = []
            for n in range(1, 7):
                total = 0
                for k in range(n):
                    total += comb(n - 1, k) * (a[1 - n + 2 * k] + a[2 - n + 2 * k])
                want.append(total)
        assert all(isinstance(v, mp.mpf) for v in got)
        assert got == want


class TestAToC:
    def test_unit_sequence_gives_ones(self):
        c = a_to_c(ScalarSeq({0: 1}, "even"), 5)
        assert c.values(5) == [1, 1, 1, 1, 1]
        assert c[0] == 0
        assert c[-2] == -1

    def test_geometric_prefix(self):
        c = a_to_c(geometric_even(), 3)
        assert c.values(3) == [Fraction(3, 2), Fraction(9, 4), Fraction(21, 8)]

    def test_window_sum_definition(self, rng):
        a = random_even_seq(rng)
        c = a_to_c(a, 7)
        for n in range(1, 8):
            assert c[n] == sum(a[k] for k in range(-n + 1, n + 1))


class TestCToB:
    def test_all_ones_input(self):
        c = ScalarSeq({n: 1 for n in range(1, 12)}, "odd")
        assert c_to_b(c, 5).values(5) == [1, 1, 2, 3, 6]

    def test_composition_matches_direct_transform(self, rng):
        # c_to_b(a_to_c(a)) must equal a_to_b(a) for every even a
        for _ in range(100):
            a = random_even_seq(rng, support=rng.randint(0, 12))
            n_max = rng.randint(1, 9)
            c = a_to_c(a, n_max)
            assert c_to_b(c, n_max) == a_to_b(a, n_max)

    def test_rejects_even_input(self):
        with pytest.raises(ValueError):
            c_to_b(ScalarSeq({0: 1}, "even"), 3)

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.dictionaries(
            st.integers(1, 10),
            st.integers(-9, 9) | st.fractions(min_value=-5, max_value=5, max_denominator=24),
            max_size=6,
        ),
        n_max=st.integers(1, 24),
    )
    def test_common_denominator_matches_per_term_fraction_sum(self, entries, n_max):
        c = ScalarSeq(entries, "odd")
        want = [
            sum(
                ((comb(n - 1, k) - (comb(n - 1, k - 1) if k else 0)) * Fraction(c[n - 2 * k]) for k in range(n // 2 + 1)),
                Fraction(0),
            )
            for n in range(1, n_max + 1)
        ]
        got = c_to_b(c, n_max).values(n_max)
        assert got == want
        assert all(isinstance(v, (int, Fraction)) for v in got)

    def test_hp_input_keeps_its_arithmetic(self):
        # the same roundings as the per-term sum, in the caller's precision
        with mp.workprec(200):
            c = ScalarSeq({1: mp.mpf(1) / 3, 2: Fraction(1, 7), 5: mp.mpf(-2) / 9}, "odd")
            got = c_to_b(c, 9).values(9)
            want = []
            for n in range(1, 10):
                total = 0
                for k in range(n // 2 + 1):
                    total += (comb(n - 1, k) - (comb(n - 1, k - 1) if k else 0)) * c[n - 2 * k]
                want.append(total)
        assert any(isinstance(v, mp.mpf) for v in got)
        assert [(type(v), v) for v in got] == [(type(v), v) for v in want]


class TestRecovery:
    def test_roundtrip_through_even_sequence(self, rng):
        for _ in range(50):
            entries = {
                n: Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                for n in range(1, rng.randint(2, 9))
            }
            c = ScalarSeq(entries, "odd")
            n_max = max(entries) + 2
            a = recover_even_from_c(c, n_max)
            assert a.symmetry == "even"
            back = a_to_c(a, n_max)
            assert all(back[n] == c[n] for n in range(1, n_max + 1))

    def test_gauge_choice_splits_first_value(self):
        c = ScalarSeq({1: 3, 2: 5}, "odd")
        a = recover_even_from_c(c, 2)
        assert a[0] == Fraction(3, 2)
        assert a[1] == Fraction(3, 2)
        assert a[0] + a[1] == c[1]
        assert a[2] + a[1] == c[2] - c[1]


class TestBinomialD:
    def test_smallest_case(self):
        assert build_D(1).rows() == [[1]]

    def test_order_three(self):
        assert build_D(3).rows() == [[1, 1, 2], [0, 1, 1], [0, 0, 1]]

    def test_entry_values(self):
        D = build_D(5)
        assert D.xi(2, 2) == 2
        assert D.xi(3, 4) == 3
        for n in range(5):
            assert D.entry(n, n) == 1
        for i in range(5):
            for j in range(i):
                assert D.entry(i, j) == 0

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            build_D(2).entry(0, 2)
        with pytest.raises(ValueError):
            build_D(0)


class TestCongruence:
    def test_unit_sequence(self):
        assert congruence_check(ScalarSeq({0: 1}, "even"), 4) == 0

    def test_geometric_sequence(self):
        assert congruence_check(geometric_even(), 5) == 0

    def test_random_sequences_are_exactly_congruent(self, rng):
        for _ in range(40):
            a = random_even_seq(rng, support=rng.randint(0, 10))
            assert congruence_check(a, rng.randint(1, 6)) == 0

    def test_float_input_leaves_a_rounding_residual(self):
        a = ScalarSeq({0: 1 / 3, 1: 2 / 7, 2: 1 / 11}, "even")
        assert 0 < congruence_check(a, 6) < 1e-12
