from fractions import Fraction

import mpmath as mp
import pytest

from sdet.determinants import det_bareiss
from sdet.identities import (
    IdentityKind,
    pfaffian_link,
    reports_to_csv,
    verify,
    verify_all,
)
from sdet.symbols import (
    CoeffSeq,
    FHDescriptor,
    FHProduct,
    JumpPoint,
    MomentSymbol,
    SpeciesError,
    th_to_moment_symbol,
)
from sdet.matrices import hankel_moment, toeplitz, toeplitz_plus_hankel
from sdet.transforms import ScalarSeq, a_to_b, a_to_c, c_to_b

from conftest import random_even_seq, random_odd_seq


DELTA = ScalarSeq({0: 1}, "even")
GEOM = ScalarSeq({n: Fraction(1, 2**n) for n in range(13)}, "even")
COS_SYM = CoeffSeq({-1: Fraction(1, 2), 0: 1, 1: Fraction(1, 2)}, symmetry="even")
EXP_COS = FHProduct(FHDescriptor({1: 0.15, -1: 0.15}))


def max_rel(report):
    resids = [r.rel_resid for r in report.records]
    return max(resids, key=abs) if resids else 0


class TestExactKinds:
    def test_hankel_congruence_unit_sequence(self):
        rep = verify(IdentityKind.HankelCongruence, DELTA, 6)
        assert rep.passed
        assert all(r.abs_resid == 0 for r in rep.records)
        # N = 2 by hand: both sides equal 1
        assert rep.records[1].lhs == 1
        assert rep.records[1].rhs == 1

    def test_skew_square_geometric_smallest_case(self):
        rep = verify(IdentityKind.SkewSquare, GEOM, 1)
        r = rep.records[0]
        assert r.lhs == Fraction(9, 4)
        assert r.rhs == Fraction(9, 4)
        assert rep.passed

    def test_quarter_wave_even_support(self):
        a = ScalarSeq({0: 2, 2: 1}, "even")
        rep = verify(IdentityKind.QuarterWave, a, 4)
        assert rep.passed
        assert all(r.abs_resid == 0 for r in rep.records)

    def test_parity_split_even(self):
        a = ScalarSeq({0: 2, 2: 1}, "even")
        rep = verify(IdentityKind.ParitySplitEven, a, 4)
        assert rep.passed

    def test_quarter_wave_rejects_odd_support(self):
        with pytest.raises(SpeciesError):
            verify(IdentityKind.QuarterWave, COS_SYM, 3)

    def test_cseq_square_all_ones(self):
        c = ScalarSeq({n: 1 for n in range(1, 12)}, "odd")
        rep = verify(IdentityKind.CSeqSquare, c, 5)
        assert rep.passed
        assert rep.records[0].lhs == 1
        assert any("finite-matrix" in note for note in rep.notes)

    def test_random_even_sequences_all_exact(self, rng):
        for _ in range(25):
            a = random_even_seq(rng, support=rng.randint(0, 8))
            for kind in (IdentityKind.HankelCongruence, IdentityKind.SkewSquare):
                rep = verify(kind, a, rng.randint(1, 5))
                assert rep.passed
                assert all(r.abs_resid == 0 for r in rep.records)

    def test_random_odd_sequences_square_law(self, rng):
        for _ in range(25):
            c = random_odd_seq(rng, support=rng.randint(1, 8))
            rep = verify(IdentityKind.CSeqSquare, c, rng.randint(1, 4))
            assert rep.passed
            assert all(r.abs_resid == 0 for r in rep.records)

    def test_exact_mode_needs_rational_entries(self):
        a = ScalarSeq({0: 0.25}, "even")
        with pytest.raises(SpeciesError):
            verify(IdentityKind.HankelCongruence, a, 3, mode="exact")


def _det(M):
    return det_bareiss(M).value


def _even_halved(a):
    return ScalarSeq({n // 2: v for n, v in a.entries.items()}, "even")


# each exact kind's two sides at one N, from matrices built at that N alone
FRESH_SIDES = {
    IdentityKind.HankelCongruence: lambda a, N: (
        _det(toeplitz_plus_hankel(a, N)),
        _det(hankel_moment(a_to_b(a, 2 * N).entries, N)),
    ),
    IdentityKind.SkewSquare: lambda a, N: (
        _det(toeplitz(a_to_c(a, 2 * N - 1), 2 * N)),
        _det(toeplitz_plus_hankel(a, N)) ** 2,
    ),
    IdentityKind.QuarterWave: lambda a, N: (
        _det(toeplitz_plus_hankel(a, N)),
        _det(toeplitz(_even_halved(a), N)),
    ),
    IdentityKind.ParitySplitEven: lambda a, N: (
        _det(toeplitz(a, 2 * N)),
        _det(toeplitz(_even_halved(a), N)) ** 2,
    ),
    IdentityKind.CSeqSquare: lambda c, N: (
        _det(toeplitz(c, 2 * N)),
        _det(hankel_moment(c_to_b(c, 2 * N - 1).entries, N)) ** 2,
    ),
}


class TestLeadingBlockRecords:
    """Records read off leading blocks equal a fresh build at each N."""

    @pytest.mark.parametrize("kind", sorted(FRESH_SIDES, key=lambda k: k.value))
    def test_records_match_fresh_matrices(self, kind, rng):
        for _ in range(6):
            support = rng.randint(1, 6)
            if kind == IdentityKind.CSeqSquare:
                a = random_odd_seq(rng, support)
            elif kind in (IdentityKind.QuarterWave, IdentityKind.ParitySplitEven):
                a = ScalarSeq(
                    {2 * n: v for n, v in random_even_seq(rng, support).entries.items()},
                    "even",
                )
            else:
                a = random_even_seq(rng, support)
            Ns = sorted(rng.sample(range(1, 7), 3))
            rep = verify(kind, a, Ns)
            assert [r.N for r in rep.records] == Ns
            for r in rep.records:
                assert (r.lhs, r.rhs) == FRESH_SIDES[kind](a, r.N)


class TestFloatInputs:
    """Float coefficients enter the transforms exactly, as they enter the matrices."""

    EVEN = ScalarSeq({0: 1 / 50, 1: 1 / 200}, "even")

    @pytest.mark.parametrize(
        "kind, seq",
        [
            (IdentityKind.SkewSquare, EVEN),
            (IdentityKind.HankelCongruence, EVEN),
            (IdentityKind.CSeqSquare, ScalarSeq({1: 0.3, 2: 0.1}, "odd")),
        ],
    )
    def test_hp_residuals_at_working_precision(self, kind, seq):
        rep = verify(kind, seq, [2, 4, 6], mode="hp", bits=256)
        assert rep.passed
        assert abs(max_rel(rep)) < mp.mpf("1e-70")

    def test_complex_entries(self):
        a = ScalarSeq({0: 0.25 + 0.5j, 1: 0.1}, "even")
        rep = verify(IdentityKind.SkewSquare, a, [2, 4], mode="hp", bits=256)
        assert rep.passed
        assert abs(max_rel(rep)) < mp.mpf("1e-70")


class TestNoGuaranteedDigits:
    def test_underflowed_sides_do_not_pass(self):
        # A_2 = [[1, 1], [1, 1]]: both sides are 0 and carry no digits
        a = ScalarSeq({0: 1.0, 2: 1.0}, "even")
        rep = verify(IdentityKind.SkewSquare, a, [1, 2], mode="hp", bits=128)
        small, large = rep.records
        assert small.ok
        assert large.lhs == large.rhs == 0
        assert large.digits == 0
        assert not large.ok
        assert rep.verdict == "fail"


class TestSmallDeterminants:
    def test_skew_square_far_below_the_entries(self):
        # det A_30 = 3.36e-104 is below 2^-64 times the largest entry; it
        # used to read as 0 on both sides with no guaranteed digits
        a = ScalarSeq({0: 1 / 50, 1: 1 / 200}, "even")
        rep = verify(IdentityKind.SkewSquare, a, [6, 30], mode="hp", bits=128)
        large = rep.records[1]
        assert mp.mpf("3.35e-104") < large.lhs < mp.mpf("3.36e-104")
        assert large.digits > 30
        assert rep.passed


class TestHighPrecisionKinds:
    def test_th_vs_moment_cosine(self):
        rep = verify(IdentityKind.THvsMoment, COS_SYM, 6, mode="hp", bits=256)
        assert rep.passed
        assert abs(max_rel(rep)) < mp.mpf("1e-20")

    def test_th_vs_moment_smooth_exponential(self):
        rep = verify(IdentityKind.THvsMoment, EXP_COS, 5, mode="hp", bits=256)
        assert rep.passed
        assert abs(max_rel(rep)) < mp.mpf("1e-20")

    def test_exact_request_upgrades_with_note(self):
        rep = verify(IdentityKind.THvsMoment, COS_SYM, 3, mode="exact", bits=192)
        assert rep.mode == "hp"
        assert any("no exact arithmetic" in n for n in rep.notes)

    def test_moment_to_toeplitz_square_smooth_factor(self):
        b = MomentSymbol.from_poly({2: 2}, weight="sqrt_ratio")
        rep = verify(IdentityKind.MomentToToeplitz, b, 5, mode="hp", bits=256)
        assert rep.passed
        assert abs(max_rel(rep)) < mp.mpf("1e-20")

    def test_moment_to_toeplitz_needs_sqrt_ratio(self):
        b = MomentSymbol.from_poly({2: 2})
        with pytest.raises(SpeciesError):
            verify(IdentityKind.MomentToToeplitz, b, 3, mode="hp", bits=128)

    def test_moment_skew_square(self):
        b = th_to_moment_symbol(COS_SYM)
        rep = verify(IdentityKind.MomentSkewSquare, b, 4, mode="hp", bits=256)
        assert rep.passed
        assert abs(max_rel(rep)) < mp.mpf("1e-20")

    def test_parity_split_chi(self):
        a = CoeffSeq({-2: Fraction(1, 4), 0: 1, 2: Fraction(1, 4)}, symmetry="even")
        rep = verify(IdentityKind.ParitySplitChi, a, 3, mode="hp", bits=256)
        assert rep.passed
        assert abs(max_rel(rep)) < mp.mpf("1e-20")

    def test_parity_split_chi_drops_imaginary_noise(self):
        # the coefficients of JumpT(+-1/2) d come from complex quadrature, so
        # rhs carries an imaginary part ~1e-49 far below its 38 digits
        a = FHProduct(FHDescriptor({2: 0.1, -2: 0.1}))
        rep = verify(IdentityKind.ParitySplitChi, a, 4, mode="hp", bits=128)
        assert rep.passed
        for rec in rep.to_json()["records"]:
            assert "j" not in rec["rhs"] and "j" not in rec["lhs"]

    def test_hp_mode_on_exact_sequence(self):
        rep = verify(IdentityKind.SkewSquare, GEOM, 4, mode="hp", bits=256)
        assert rep.passed
        assert abs(max_rel(rep)) < mp.mpf("1e-20")

    def test_bits_floor(self):
        with pytest.raises(ValueError):
            verify(IdentityKind.SkewSquare, DELTA, 2, mode="hp", bits=32)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            verify(IdentityKind.SkewSquare, DELTA, 2, mode="fast")


class TestQuadratureBackedEvenInputs:
    # hp, 128 bits, N = 6: halve_argument of an FH symbol is a HalvedArg whose
    # coefficients come from the base's table, and an even FH symbol reaches
    # _even_input_seq as a quadrature-backed table rather than a sequence
    @pytest.mark.parametrize("kind", [IdentityKind.QuarterWave, IdentityKind.ParitySplitEven])
    def test_halved_argument_coefficients(self, kind):
        a = FHProduct(FHDescriptor({2: 0.1, -2: 0.1}))
        rep = verify(kind, a, 6, mode="hp", bits=128)
        assert rep.passed
        assert abs(max_rel(rep)) < mp.mpf(2) ** -100

    @pytest.mark.parametrize("kind", [IdentityKind.HankelCongruence, IdentityKind.SkewSquare])
    def test_even_symbol_coefficient_table(self, kind):
        rep = verify(kind, EXP_COS, 6, mode="hp", bits=128)
        assert rep.passed
        assert abs(max_rel(rep)) < mp.mpf(2) ** -100


class TestExactMomentJumps:
    # a moment jump given as a float x is cut at the exact angle acos(x); a
    # float angle left a mis-signed sliver in a panel (rel_resid ~1e-16) or
    # stalled the quadrature's doubling check
    @pytest.mark.parametrize("jump", [0.5, JumpPoint(Fraction(1, 3))], ids=["x", "angle"])
    def test_moment_skew_square_and_pfaffian_link(self, jump):
        b = MomentSymbol(lambda x: 1 if x < 0.5 else 2, jumps=[jump])
        for rep in (
            verify(IdentityKind.MomentSkewSquare, b, 5, mode="hp", bits=128),
            pfaffian_link(b, 5, bits=128),
        ):
            assert rep.passed
            assert abs(max_rel(rep)) < mp.mpf(2) ** -100

    def test_moment_to_toeplitz_even_step(self):
        b = MomentSymbol(
            lambda x: 1 if abs(x) < 0.5 else 2, weight="sqrt_ratio", parity="even", jumps=[-0.5, 0.5]
        )
        rep = verify(IdentityKind.MomentToToeplitz, b, 5, mode="hp", bits=128)
        assert rep.passed
        assert abs(max_rel(rep)) < mp.mpf(2) ** -100


class TestPfaffianLink:
    def test_constant_moment_symbol(self):
        b = MomentSymbol.from_poly({0: 1})
        rep = pfaffian_link(b, 4, bits=256)
        assert rep.passed
        assert len(rep.records) == 8
        assert abs(max_rel(rep)) < mp.mpf("1e-20")

    def test_sqrt_ratio_symbol(self):
        b = MomentSymbol.from_poly({0: 1}, weight="sqrt_ratio")
        rep = pfaffian_link(b, 3, bits=256)
        assert rep.passed

    def test_rejects_plain_symbols(self):
        with pytest.raises(SpeciesError):
            pfaffian_link(COS_SYM, 3)


class TestDispatch:
    def test_verify_all_unit_sequence_exact(self):
        reports = verify_all(DELTA, 4)
        by_kind = {rep.kind: rep for rep in reports}
        assert len(reports) == len(IdentityKind)
        for name in (
            "hankel_congruence",
            "skew_square",
            "quarter_wave",
            "parity_split_even",
        ):
            assert by_kind[name].verdict == "pass"
        for name in ("th_vs_moment", "parity_split_chi"):
            assert by_kind[name].verdict == "skipped"
            assert any("no exact mode" in n for n in by_kind[name].notes)
        for name in ("moment_to_toeplitz", "moment_skew_square", "cseq_square"):
            assert by_kind[name].verdict == "skipped"

    def test_verify_all_odd_sequence(self, rng):
        c = random_odd_seq(rng)
        reports = verify_all(c, 3)
        ran = [rep.kind for rep in reports if rep.verdict == "pass"]
        assert ran == ["cseq_square"]

    def test_verify_all_moment_symbol(self):
        b = MomentSymbol.from_poly({0: 1}, weight="sqrt_ratio")
        reports = verify_all(b, 3, mode="hp", bits=192)
        by_kind = {rep.kind: rep for rep in reports}
        assert by_kind["moment_skew_square"].verdict == "pass"
        assert by_kind["moment_to_toeplitz"].verdict == "pass"
        assert by_kind["hankel_congruence"].verdict == "skipped"

    def test_verify_accepts_string_kind(self):
        rep = verify("skew_square", DELTA, 2)
        assert rep.kind == "skew_square"


class TestReportShapes:
    def test_json_fields(self):
        rep = verify(IdentityKind.SkewSquare, GEOM, 2)
        doc = rep.to_json()
        assert doc["kind"] == "skew_square"
        assert doc["verdict"] == "pass"
        rec = doc["records"][0]
        assert set(rec) == {
            "N",
            "lhs",
            "rhs",
            "abs_resid",
            "rel_resid",
            "mode",
            "bits",
            "digits_guaranteed",
            "ok",
        }
        assert rec["lhs"] == "9/4"

    def test_csv_header_and_rows(self):
        rep = verify(IdentityKind.SkewSquare, GEOM, 2)
        text = reports_to_csv([rep])
        lines = text.strip().split("\n")
        assert lines[0] == "kind,N,lhs,rhs,abs_resid,rel_resid,mode,bits"
        assert len(lines) == 3
        assert lines[1].startswith("skew_square,1,9/4,9/4,0,0,exact,")

    def test_json_is_deterministic(self):
        a = verify(IdentityKind.HankelCongruence, GEOM, 3).to_json()
        b = verify(IdentityKind.HankelCongruence, GEOM, 3).to_json()
        assert a == b
