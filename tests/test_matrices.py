from fractions import Fraction

import mpmath as mp
import pytest

from sdet.determinants import det_bareiss, det_lu
from sdet.matrices import (
    StructureError,
    StructuredMatrix,
    checkerboard_split,
    flip,
    hankel,
    hankel_moment,
    toeplitz,
    toeplitz_plus_hankel,
)
from sdet.scalars import hp_real, rational
from sdet.symbols import Chi, ClosedFormSymbol, CoeffSeq, JumpT, MomentSymbol, SpeciesError
from sdet.transforms import ScalarSeq

from conftest import random_even_seq


DELTA = ScalarSeq({0: 1}, "even")
GEOM = ScalarSeq({n: Fraction(1, 2**n) for n in range(13)}, "even")


def exact_matmul(A, B):
    n = len(A)
    return [
        [sum(A[i][l] * B[l][j] for l in range(n)) for j in range(n)]
        for i in range(n)
    ]


class TestToeplitz:
    def test_unit_symbol_is_identity(self):
        m = toeplitz(DELTA, 3)
        assert m.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert m.structure == "toeplitz"
        assert m.field.is_exact

    def test_odd_sequence_is_skewsymmetric(self):
        m = toeplitz(ScalarSeq({1: 1}, "odd"), 2)
        assert m.tolist() == [[0, -1], [1, 0]]
        assert m.is_skew()

    def test_cosine_sequence(self):
        a = ScalarSeq({0: 1, 1: Fraction(1, 2)}, "even")
        m = toeplitz(a, 2)
        assert m.tolist() == [[1, Fraction(1, 2)], [Fraction(1, 2), 1]]
        assert m.is_symmetric()

    def test_even_promise_is_checked(self):
        liar = ClosedFormSymbol(lambda t: 2 + mp.expj(t), symmetry="even")
        with pytest.raises(StructureError, match="even symbol must give a symmetric Toeplitz matrix"):
            toeplitz(liar, 4, bits=128)

    def test_odd_promise_is_checked(self):
        liar = ClosedFormSymbol(lambda t: mp.expj(t), symmetry="odd")
        with pytest.raises(StructureError, match="odd symbol must give a skewsymmetric Toeplitz matrix"):
            toeplitz(liar, 4, bits=128)

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            toeplitz(DELTA, 0)

    def test_odd_symbol_odd_order_determinant_vanishes(self):
        c = ScalarSeq({1: Fraction(2, 3), 2: -1, 3: Fraction(1, 5)}, "odd")
        for N in range(1, 6):
            assert det_bareiss(toeplitz(c, 2 * N + 1)).value == 0


class TestHankel:
    def test_unit_symbol_is_zero_matrix(self):
        m = hankel(DELTA, 2)
        assert m.tolist() == [[0, 0], [0, 0]]

    def test_geometric_entries(self):
        m = hankel(GEOM, 2)
        assert m.tolist() == [
            [Fraction(1, 2), Fraction(1, 4)],
            [Fraction(1, 4), Fraction(1, 8)],
        ]

    def test_uses_positive_indices_only(self):
        # entries a_{j+k+1} never touch index 0
        a = ScalarSeq({0: 99, 1: 1}, "even")
        assert hankel(a, 1).tolist() == [[1]]


class TestToeplitzPlusHankel:
    def test_unit_symbol(self):
        assert toeplitz_plus_hankel(DELTA, 2).tolist() == [[1, 0], [0, 1]]

    def test_geometric_values(self):
        m = toeplitz_plus_hankel(GEOM, 2)
        assert m.tolist() == [
            [Fraction(3, 2), Fraction(3, 4)],
            [Fraction(3, 4), Fraction(9, 8)],
        ]

    def test_always_symmetric(self, rng):
        for _ in range(20):
            a = random_even_seq(rng, support=rng.randint(0, 8))
            assert toeplitz_plus_hankel(a, rng.randint(1, 6)).is_symmetric()

    def test_rejects_odd_sequence(self):
        with pytest.raises(SpeciesError):
            toeplitz_plus_hankel(ScalarSeq({1: 1}, "odd"), 2)


class TestHankelMoment:
    def test_explicit_moment_table(self):
        b = {n: Fraction(1, n) for n in range(1, 4)}
        m = hankel_moment(b, 2)
        assert m.tolist() == [
            [1, Fraction(1, 2)],
            [Fraction(1, 2), Fraction(1, 3)],
        ]
        assert m.structure == "hankel_moment"

    def test_constant_weight_one_moment(self):
        b = MomentSymbol.from_poly({0: 1})
        m = hankel_moment(b, 1, bits=192)
        with mp.workprec(224):
            assert abs(m.entry(0, 0) - 2 / mp.pi) < mp.mpf(2) ** -180

    def test_sqrt_ratio_first_moment_is_one(self):
        b = MomentSymbol.from_poly({0: 1}, weight="sqrt_ratio")
        m = hankel_moment(b, 1, bits=192)
        with mp.workprec(224):
            assert abs(m.entry(0, 0) - 1) < mp.mpf(2) ** -180

    def test_moment_symbol_needs_inexact_field(self):
        b = MomentSymbol.from_poly({0: 1})
        with pytest.raises(TypeError):
            hankel_moment(b, 2, field=rational())


EVEN_ENTRIES = {
    0: 2,
    1: Fraction(1, 3),
    -1: Fraction(1, 3),
    2: Fraction(-1, 2),
    -2: Fraction(-1, 2),
    5: 1,
    -5: 1,
}

# (builder, fresh source, builder keywords, entry tolerance); a quadrature
# source rebuilt at a smaller size may move in its last bits, closed forms
# and exact entries may not move at all
LEADING_CASES = [
    (builder, source, kw, 0)
    for builder in (toeplitz, hankel, toeplitz_plus_hankel, hankel_moment)
    for source in (
        lambda: dict(EVEN_ENTRIES),
        lambda: ScalarSeq(EVEN_ENTRIES, "even"),
        lambda: CoeffSeq(EVEN_ENTRIES, symmetry="even"),
    )
    for kw in ({}, {"bits": 128})
] + [
    (toeplitz, lambda: JumpT(Fraction(-1, 2)), {"bits": 128}, 0),
    (hankel, lambda: JumpT(Fraction(1, 2)), {"bits": 128}, 0),
    (
        hankel_moment,
        lambda: MomentSymbol.from_poly({0: 1, 2: Fraction(1, 2)}, weight="sqrt_ratio"),
        {"bits": 128},
        mp.mpf(2) ** -112,
    ),
]


class TestLeadingBlocks:
    @pytest.mark.parametrize("builder, source, kw, tol", LEADING_CASES)
    def test_block_is_the_smaller_matrix(self, builder, source, kw, tol):
        n = 6
        big = builder(source(), n, **kw)
        for k in range(1, n + 1):
            block = big.leading(k)
            fresh = builder(source(), k, **kw)
            assert block.order == k
            assert block.field == fresh.field == big.field
            assert block.structure == fresh.structure
            for row, want in zip(block.rows, fresh.rows):
                assert all(abs(x - y) <= tol for x, y in zip(row, want))

    def test_flip_block_is_general(self):
        block = flip(4).leading(2)
        assert block.structure == "general"
        assert block.tolist() == [[0, 0], [0, 0]]
        assert flip(4).leading(4).tolist() == flip(4).tolist()

    def test_block_order_range(self):
        m = toeplitz(GEOM, 3)
        for bad in (0, 4):
            with pytest.raises(ValueError):
                m.leading(bad)

    def test_block_is_a_copy(self):
        m = toeplitz(GEOM, 3)
        block = m.leading(2)
        block.rows[0][0] = 7
        assert m.rows[0][0] == 1


class TestFlip:
    def test_small_orders(self):
        assert flip(1).tolist() == [[1]]
        assert flip(2).tolist() == [[0, 1], [1, 0]]

    def test_involution(self):
        for N in range(1, 9):
            W = flip(N).tolist()
            sq = exact_matmul(W, W)
            assert sq == [[1 if i == j else 0 for j in range(N)] for i in range(N)]


class TestCheckerboardSplit:
    def test_even_class_blocks(self):
        a = ScalarSeq({0: 2, 2: 1}, "even")
        T = toeplitz(a, 4)
        B1, B2 = checkerboard_split(T, "even_entries")
        assert B1.tolist() == [[2, 1], [1, 2]]
        assert B2.tolist() == [[2, 1], [1, 2]]

    def test_even_class_determinant_factorizes(self, rng):
        for _ in range(20):
            support = rng.randrange(0, 10, 2)
            a = ScalarSeq(
                {n: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                 for n in range(0, support + 1, 2)},
                "even",
            )
            N = rng.randint(1, 6)
            T = toeplitz(a, 2 * N)
            B1, B2 = checkerboard_split(T, "even_entries")
            assert (
                det_bareiss(T).value
                == det_bareiss(B1).value * det_bareiss(B2).value
            )

    def test_odd_class_smallest_case(self):
        a = ScalarSeq({1: 1}, "even")
        T = toeplitz(a, 2)
        D1, D2 = checkerboard_split(T, "odd_entries")
        assert D1.tolist() == [[1]]
        assert D2.tolist() == [[1]]
        assert det_bareiss(T).value == (-1) * 1 * 1

    def test_odd_class_determinant_sign_law(self, rng):
        for _ in range(20):
            top = rng.randrange(1, 11, 2)
            a = ScalarSeq(
                {n: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                 for n in range(1, top + 1, 2)},
                "even",
            )
            N = rng.randint(1, 5)
            T = toeplitz(a, 2 * N)
            D1, D2 = checkerboard_split(T, "odd_entries")
            assert det_bareiss(T).value == (-1) ** N * (
                det_bareiss(D1).value * det_bareiss(D2).value
            )

    def test_chi_blocks_at_high_precision(self):
        # the split recombines entries, so it must run at working precision
        N = 3
        with mp.workprec(224):
            T = toeplitz(Chi(), 2 * N, bits=192)
            D1, D2 = checkerboard_split(T, "odd_entries")
            lhs = det_lu(T, 192).value
            rhs = det_lu(D1, 192).value * det_lu(D2, 192).value
            assert abs(lhs - (-1) ** N * rhs) < mp.mpf(2) ** -120 * abs(lhs)

    def test_surviving_class_is_enforced(self):
        a = ScalarSeq({0: 1, 1: 1}, "even")
        T = toeplitz(a, 4)
        with pytest.raises(StructureError):
            checkerboard_split(T, "even_entries")
        with pytest.raises(StructureError):
            checkerboard_split(T, "odd_entries")

    def test_needs_even_order_toeplitz(self):
        with pytest.raises(ValueError):
            checkerboard_split(toeplitz(DELTA, 3), "even_entries")
        H = hankel(GEOM, 4)
        with pytest.raises(ValueError):
            checkerboard_split(H, "even_entries")
        with pytest.raises(ValueError):
            checkerboard_split(toeplitz(DELTA, 4), "diagonal")


class TestStructureChecks:
    def test_constructor_rejects_wrong_tag(self):
        with pytest.raises(StructureError):
            StructuredMatrix([[1, 2], [3, 4]], rational(), "toeplitz")
        with pytest.raises(StructureError):
            StructuredMatrix([[1, 2], [3, 4]], rational(), "hankel")

    def test_general_tag_accepts_anything(self):
        m = StructuredMatrix([[1, 2], [3, 4]], rational(), "general")
        assert m.entry(1, 0) == 3

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            StructuredMatrix([[1]], rational(), "circulant")

    def test_must_be_square(self):
        with pytest.raises(ValueError):
            StructuredMatrix([[1, 2]], rational(), "general")

    def test_json_shape(self):
        m = toeplitz(DELTA, 2)
        doc = m.to_json()
        assert doc["order"] == 2
        assert doc["field"] == "rational"
        assert doc["entries"][0] == ["1", "0"]

    def test_json_keeps_hp_real_digits(self):
        m = toeplitz(ScalarSeq({0: Fraction(1, 3)}, "even"), 1, field=hp_real(128))
        with mp.workprec(128):
            third = mp.nstr(mp.mpf(1) / 3, 41)
        assert m.to_json()["entries"][0] == [third, "0"]

    def test_hp_field_tolerance_accepts_rounded_structure(self):
        a = ScalarSeq({0: Fraction(1, 3), 1: Fraction(1, 7)}, "even")
        m = toeplitz(a, 4, field=hp_real(128))
        assert m.is_symmetric()
