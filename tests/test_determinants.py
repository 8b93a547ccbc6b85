from fractions import Fraction

import mpmath as mp
import pytest

from sdet.determinants import (
    PrecisionError,
    det_auto,
    det_bareiss,
    det_lu,
    pfaffian,
)
from sdet.matrices import StructuredMatrix, toeplitz
from sdet.scalars import hp_real, rational, to_mp
from sdet.symbols import CoeffSeq
from sdet.transforms import ScalarSeq

from conftest import rand_fraction


def rational_matrix(rows):
    return StructuredMatrix(rows, rational(), "general")


def hp_matrix(rows, bits=128):
    return StructuredMatrix(rows, hp_real(bits), "general")


def random_skew(rng, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rand_fraction(rng)
            rows[i][j] = v
            rows[j][i] = -v
    return rational_matrix(rows)


def permutation_matrix(perm):
    n = len(perm)
    return [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def conjugate(P, M):
    n = len(P)
    PM = [
        [sum(P[i][l] * M[l][j] for l in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return [
        [sum(PM[i][l] * P[j][l] for l in range(n)) for j in range(n)]
        for i in range(n)
    ]


class TestBareiss:
    def test_identity(self):
        assert det_bareiss(rational_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).value == 1

    def test_small_moment_matrix(self):
        m = rational_matrix([[1, Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3)]])
        assert det_bareiss(m).value == Fraction(1, 12)

    def test_pivoting_through_zero_corner(self):
        assert det_bareiss(rational_matrix([[0, -1], [1, 0]])).value == 1

    def test_singular(self):
        assert det_bareiss(rational_matrix([[1, 2], [2, 4]])).value == 0

    def test_rejects_hp_field(self):
        with pytest.raises(TypeError):
            det_bareiss(hp_matrix([[1, 0], [0, 1]]))

    def test_result_is_exact_fraction(self, rng):
        rows = [[rand_fraction(rng) for _ in range(5)] for _ in range(5)]
        value = det_bareiss(rational_matrix(rows)).value
        assert isinstance(value, Fraction)


class TestLU:
    def test_identity_is_exact(self):
        res = det_lu(hp_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
        assert res.value == 1
        assert res.digits_guaranteed >= 30

    def test_agrees_with_bareiss_on_random_rationals(self, rng):
        for n in (3, 6, 10):
            rows = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
            exact = det_bareiss(rational_matrix(rows)).value
            res = det_lu(hp_matrix(rows, 256), 256)
            with mp.workprec(320):
                if exact == 0:
                    assert abs(res.value) < mp.mpf(2) ** -64
                else:
                    rel = abs(res.value - exact) / abs(mp.mpf(exact.numerator) / exact.denominator)
                    assert rel < mp.mpf(10) ** (-min(res.digits_guaranteed, 60))

    def test_rank_deficient_matrix_reports_zero(self):
        res = det_lu(hp_matrix([[1, 1], [1, 1]]))
        assert res.value == 0
        assert res.digits_guaranteed == 0

    def test_small_determinant_is_not_zero(self):
        # det = 10^-80 sits far below 2^-128 times the largest entry, but
        # every pivot is 1/100: singularity is read off the pivots
        T = toeplitz(CoeffSeq({0: Fraction(1, 100)}), 40, bits=256)
        res = det_lu(T)
        assert res.digits_guaranteed > 0
        with mp.workprec(256):
            assert abs(res.value / mp.mpf(10) ** -80 - 1) < mp.mpf(10) ** -70

    def test_minimum_bits(self):
        with pytest.raises(ValueError):
            det_lu(hp_matrix([[1]]), 32)

    def test_unstable_cancellation_raises(self):
        # an O(1) determinant reachable only through 71-bit cancellation:
        # at 64 bits the pivot update rounds to zero, at 128 bits it does not
        big = 2**40
        rows = [[big, big + 2**5], [big - 2**5, big]]
        m = hp_matrix(rows, 64)
        with pytest.raises(PrecisionError) as info:
            det_lu(m, 64)
        assert info.value.recommended_bits == 128
        res = det_lu(m, 128)
        with mp.workprec(160):
            assert abs(res.value - 1024) < mp.mpf(2) ** -40

    def test_auto_dispatch(self):
        exact = det_auto(rational_matrix([[2, 0], [0, 2]]))
        assert exact.method == "bareiss" and exact.value == 4
        hp = det_auto(hp_matrix([[2, 0], [0, 2]]))
        assert hp.method == "lu"
        assert hp.value == 4


class TestPfaffian:
    def test_sign_convention(self):
        assert pfaffian(rational_matrix([[0, -1], [1, 0]])) == -1
        assert pfaffian(rational_matrix([[0, Fraction(-3, 2)], [Fraction(3, 2), 0]])) == Fraction(-3, 2)

    def test_block_multiplicativity(self):
        rows = [
            [0, 2, 0, 0],
            [-2, 0, 0, 0],
            [0, 0, 0, Fraction(1, 3)],
            [0, 0, Fraction(-1, 3), 0],
        ]
        assert pfaffian(rational_matrix(rows)) == Fraction(2, 3)

    def test_square_equals_determinant(self, rng):
        for n in (2, 4, 6, 8, 10):
            m = random_skew(rng, n)
            pf = pfaffian(m)
            assert pf * pf == det_bareiss(m).value

    def test_congruence_by_permutation(self, rng):
        for _ in range(10):
            n = rng.choice((4, 6, 8))
            m = random_skew(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            P = permutation_matrix(perm)
            conj = rational_matrix(conjugate(P, m.tolist()))
            assert pfaffian(conj) == perm_sign(perm) * pfaffian(m)

    def test_odd_order_rejected(self):
        rows = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
        with pytest.raises(ValueError):
            pfaffian(rational_matrix(rows))

    def test_non_skew_rejected(self):
        with pytest.raises(ValueError):
            pfaffian(rational_matrix([[0, 1], [1, 0]]))

    def test_singular_skew(self):
        rows = [[Fraction(0)] * 4 for _ in range(4)]
        rows[0][1], rows[1][0] = Fraction(1), Fraction(-1)
        assert pfaffian(rational_matrix(rows)) == 0

    def test_hp_square_matches_lu_determinant(self, rng):
        n = 6
        m = random_skew(rng, n)
        with mp.workprec(256):
            rows = [[to_mp(v, 192) for v in row] for row in m.tolist()]
            hp = hp_matrix(rows, 192)
            pf = pfaffian(hp, 192)
            det = det_lu(hp, 192).value
            assert abs(pf * pf - det) < mp.mpf(2) ** -120 * max(abs(det), 1)

    def test_skew_toeplitz_pfaffian(self):
        c = ScalarSeq({1: Fraction(3, 2)}, "odd")
        T = toeplitz(c, 2)
        assert pfaffian(T) == Fraction(-3, 2)
