import json
import math
from fractions import Fraction

import mpmath as mp
import pytest

from sdet.asymptotics import (
    STUDY_KINDS,
    barnes_constants,
    extrapolate_limit,
    fit_asymptote,
    g_half_series,
    glaisher_constant,
    predict_conjecture_constants,
    predict_cor53,
    predict_half_jump_ratio,
    predict_szego_fh,
    study,
    wh_factors,
    zeta_int,
)
from sdet.quadrature import AccuracyError
from sdet.symbols import (
    FHDescriptor,
    JumpError,
    JumpPoint,
    MomentSymbol,
    SpeciesError,
)


SMOOTH_DESC = FHDescriptor({1: 0.15, -1: 0.15})


class TestZetaMachinery:
    def test_integer_zeta_against_library(self):
        with mp.workprec(288):
            for s in (2, 3, 7, 12, 40, 80):
                got = zeta_int(s, 256)
                want = mp.zeta(s)
                assert abs(got - want) < mp.mpf(2) ** -240

    def test_small_argument_rejected(self):
        with pytest.raises(ValueError):
            zeta_int(1, 128)

    def test_glaisher_against_library(self):
        with mp.workprec(288):
            got = glaisher_constant(256)
            assert abs(got - mp.glaisher) < mp.mpf(2) ** -240

    def test_glaisher_recomputation_is_stable(self):
        lo = glaisher_constant(128)
        hi = glaisher_constant(320)
        with mp.workprec(352):
            assert abs(lo - hi) < mp.mpf(2) ** -120


class TestBarnesValues:
    def test_reference_value_of_pair_product(self):
        bc = barnes_constants(192)
        with mp.workprec(224):
            ref = mp.mpf("0.64500244850957708466")
            assert abs(bc.pair_product - ref) < mp.mpf(10) ** -19

    def test_against_library_barnesg(self):
        bc = barnes_constants(256)
        with mp.workprec(288):
            assert abs(bc.G_half - mp.barnesg(mp.mpf(1) / 2)) < mp.mpf(2) ** -230
            assert abs(bc.G_three_half - mp.barnesg(mp.mpf(3) / 2)) < mp.mpf(2) ** -230

    def test_recurrence_relation(self):
        bc = barnes_constants(256)
        with mp.workprec(288):
            assert abs(bc.G_three_half - mp.sqrt(mp.pi) * bc.G_half) < mp.mpf(2) ** -250
            assert abs(bc.pair_product_sq - bc.pair_product**2) < mp.mpf(2) ** -250

    def test_series_route_agrees_with_closed_product(self):
        direct = barnes_constants(192).G_half
        series = g_half_series(192)
        with mp.workprec(224):
            assert abs(direct - series) < mp.mpf(10) ** -40

    def test_bits_floor(self):
        with pytest.raises(ValueError):
            barnes_constants(32)
        with pytest.raises(ValueError):
            g_half_series(32)


class TestWienerHopfFactors:
    def test_trivial_descriptor(self):
        d0p, d0m, dp, dm = wh_factors(FHDescriptor(), 1.0, bits=160)
        for v in (d0p, d0m, dp, dm):
            assert abs(v - 1) == 0

    def test_one_sided_exponentials(self):
        desc = FHDescriptor({1: 0.25, -2: 0.5})
        d0p, d0m, dp, dm = wh_factors(desc, 0.0, bits=192)
        with mp.workprec(224):
            assert abs(d0p - mp.exp(mp.mpf(0.25))) < mp.mpf(2) ** -150
            assert abs(d0m - mp.exp(mp.mpf(0.5))) < mp.mpf(2) ** -150
            assert abs(dp - d0p) == 0
            assert abs(dm - d0m) == 0

    def test_split_is_one_sided(self):
        # log d0_plus must carry positive frequencies only
        desc = FHDescriptor({1: 0.3, -1: 0.2, 2: 0.1})
        with mp.workprec(128):
            def log_d0p(theta):
                return mp.log(wh_factors(desc, theta, bits=96)[0])

            minus_one = mp.quad(
                lambda t: log_d0p(t) * mp.expj(t), [0, mp.pi, 2 * mp.pi]
            ) / (2 * mp.pi)
            plus_one = mp.quad(
                lambda t: log_d0p(t) * mp.expj(-t), [0, mp.pi, 2 * mp.pi]
            ) / (2 * mp.pi)
            assert abs(minus_one) < mp.mpf("1e-10")
            assert abs(plus_one - mp.mpf(0.3)) < mp.mpf("1e-10")

    def test_jump_factor_at_opposite_point(self):
        desc = FHDescriptor(jumps=((float(math.pi), 0.25),))
        _, _, dp, dm = wh_factors(desc, 0.0, bits=192)
        with mp.workprec(224):
            b = mp.mpf(0.25)
            rel = -mp.mpf(math.pi)
            want_p = mp.power(1 - mp.expj(rel), b)
            want_m = mp.power(1 - mp.expj(-rel), -b)
            assert abs(dp - want_p) < mp.mpf(2) ** -150
            assert abs(dm - want_m) < mp.mpf(2) ** -150

    def test_theta_collision_raises(self):
        desc = FHDescriptor(jumps=((1.0, 0.3),))
        with pytest.raises(JumpError):
            wh_factors(desc, 1.0, bits=128)
        wh_factors(desc, 1.5, bits=128)

    def test_complex_theta_rejected(self):
        with pytest.raises(TypeError):
            wh_factors(FHDescriptor(), 1j, bits=128)

    def test_accuracy_parameter(self):
        got = wh_factors(FHDescriptor({1: 0.25}), 0.0, accuracy=1e-40)
        with mp.workprec(192):
            assert abs(got[0] - mp.exp(mp.mpf(0.25))) < mp.mpf("1e-38")


class TestPredictions:
    def test_growth_data_from_constant_term(self):
        pred = predict_szego_fh(FHDescriptor({0: 0.7}), bits=160)
        with mp.workprec(192):
            assert abs(pred.F - mp.exp(mp.mpf(0.7))) < mp.mpf(2) ** -130
        assert pred.Omega == 0

    def test_growth_exponent_from_jumps(self):
        desc = FHDescriptor(jumps=((float(math.pi), 0.3), (1.0, 0.1j)))
        pred = predict_szego_fh(desc, bits=160)
        with mp.workprec(192):
            want = -(mp.mpf(0.3) ** 2 + mp.mpc(0, 0.1) ** 2)
            assert abs(pred.Omega - want) < mp.mpf(2) ** -130
            assert abs(pred.Omega + mp.mpf("0.08")) < mp.mpf("1e-15")

    def test_half_jump_ratio_trivial_base(self):
        bc = barnes_constants(192)
        for sign in (Fraction(1, 2), Fraction(-1, 2)):
            pred = predict_half_jump_ratio(FHDescriptor(), sign, bits=192)
            assert pred.Omega == Fraction(-1, 4)
            assert pred.exponent_of_N == Fraction(-1, 4)
            with mp.workprec(224):
                assert abs(pred.ratio_coefficient - bc.pair_product) < mp.mpf(2) ** -150

    def test_half_jump_two_signs_multiply_to_pair_square(self):
        plus = predict_half_jump_ratio(SMOOTH_DESC, Fraction(1, 2), bits=192)
        minus = predict_half_jump_ratio(SMOOTH_DESC, Fraction(-1, 2), bits=192)
        bc = barnes_constants(192)
        with mp.workprec(224):
            prod = plus.ratio_coefficient * minus.ratio_coefficient
            assert abs(prod - bc.pair_product_sq) < mp.mpf(2) ** -140

    @pytest.mark.parametrize("bits", [128, 256])
    def test_half_jump_ratio_reads_exact_jump_angles(self, bits):
        # jumps at 1 and exactly 2pi - 1; a float 2pi - 1 is off by ~2e-16
        desc = FHDescriptor({1: 0.1, -1: 0.1}, jumps=[(1.0, 0.2j), (JumpPoint(2, -1.0), -0.2j)])
        got = predict_half_jump_ratio(desc, Fraction(-1, 2), bits=bits).ratio_coefficient
        wp = 2 * bits
        with mp.workprec(wp):
            dp = dm = mp.exp(mp.mpf(0.1))
            for theta, beta in ((mp.mpf(1), mp.mpc(0, 0.2)), (2 * mp.pi - 1, mp.mpc(0, -0.2))):
                dp *= mp.power(1 - mp.expj(-theta), beta)
                dm *= mp.power(1 - mp.expj(theta), -beta)
            s = -mp.mpf(1) / 2
            want = barnes_constants(wp).pair_product * mp.power(dp, s) * mp.power(dm, -s)
            assert abs(got - want) < mp.mpf(2) ** -(bits - 16) * abs(want)

    def test_half_jump_sign_validation(self):
        with pytest.raises(ValueError):
            predict_half_jump_ratio(FHDescriptor(), Fraction(1, 3))

    def test_skewsymmetrized_ratio_constant(self):
        pred = predict_cor53(192)
        assert pred.Omega == Fraction(-1, 2)
        with mp.workprec(224):
            ref = mp.mpf("0.41602815858334963836")
            assert abs(pred.ratio_coefficient - ref) < mp.mpf(10) ** -19
            bc = barnes_constants(224)
            assert abs(pred.ratio_coefficient - mp.pi * bc.G_half**4) < mp.mpf(2) ** -160

    def test_conjectured_subleading_constants(self):
        e1, e2 = predict_conjecture_constants(160)
        with mp.workprec(192):
            assert abs(e1 - 1 / mp.sqrt(2)) < mp.mpf(2) ** -140
            assert e1 == e2

    def test_prediction_json(self):
        doc = predict_cor53(128).to_json()
        assert set(doc) == {"F", "Omega", "ratio_coefficient", "exponent_of_N", "E_estimated"}
        assert doc["Omega"] == "-1/2"
        assert doc["E_estimated"] is None


class TestFitting:
    def test_recovers_synthetic_growth(self):
        with mp.workprec(320):
            F, Om, E = mp.mpf("1.5"), mp.mpf("-0.25"), mp.mpf("0.8")
            data = [(N, E * F**N * mp.mpf(N) ** Om) for N in range(4, 44, 4)]
        fit = fit_asymptote(data, bits=256)
        with mp.workprec(288):
            assert abs(fit.F - mp.mpf("1.5")) < mp.mpf("1e-30")
            assert abs(fit.Omega - mp.mpf("-0.25")) < mp.mpf("1e-30")
            assert abs(fit.E - mp.mpf("0.8")) < mp.mpf("1e-30")
            assert max(abs(r) for r in fit.residuals) < mp.mpf("1e-30")

    def test_sign_is_preserved(self):
        with mp.workprec(320):
            data = [(N, -mp.mpf(2) ** N) for N in (2, 4, 6, 8)]
        fit = fit_asymptote(data, bits=192)
        assert fit.E < 0

    def test_data_validation(self):
        with pytest.raises(ValueError):
            fit_asymptote([(1, 1.0), (2, 2.0), (3, 4.0)])
        with pytest.raises(ValueError):
            fit_asymptote([(1, 1.0), (1, 1.0), (2, 2.0), (2, 2.0)])
        with pytest.raises(ValueError):
            fit_asymptote([(1, 1.0), (2, 0.0), (3, 4.0), (4, 8.0)])
        with pytest.raises(ValueError):
            fit_asymptote([(1, 1.0), (2, -2.0), (3, 4.0), (4, 8.0)])

    def test_json_shape(self):
        with mp.workprec(256):
            data = [(N, mp.mpf(2) ** N) for N in (2, 4, 6, 8)]
        doc = fit_asymptote(data, bits=192).to_json()
        assert set(doc) == {"F", "Omega", "E", "max_residual"}


class TestExtrapolation:
    def test_polynomial_data_is_exactly_extrapolated(self):
        with mp.workprec(288):
            pairs = [
                (N, 3 + mp.mpf(2) / N + mp.mpf(5) / N**2)
                for N in (10, 20, 30, 40, 50)
            ]
        limit, err = extrapolate_limit(pairs, bits=256)
        with mp.workprec(288):
            assert abs(limit - 3) < mp.mpf("1e-40")
        assert err < mp.mpf("1e-6")

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            extrapolate_limit([(4, 1.0)])

    def test_unsorted_input_is_sorted(self):
        with mp.workprec(288):
            pairs = [(N, 1 + mp.mpf(1) / N) for N in (40, 10, 20, 30)]
        limit, _ = extrapolate_limit(pairs, bits=192)
        with mp.workprec(224):
            assert abs(limit - 1) < mp.mpf("1e-30")


class TestStudies:
    def test_single_jump_ratio_reaches_pair_product(self):
        rep = study("prop52_ratio", None, [8, 16, 32, 64], bits=192)
        assert rep.verdict == "pass"
        bc = barnes_constants(192)
        with mp.workprec(224):
            got = mp.mpf(rep.extrapolated_limit)
            assert abs(got - bc.pair_product) / bc.pair_product < mp.mpf("0.01")
        assert rep.flags == []
        assert rep.kind == "prop52_ratio"

    def test_skewsymmetrized_ratio_study(self):
        rep = study("cor53", SMOOTH_DESC, [4, 8, 12, 16], bits=256)
        assert rep.verdict == "pass"
        with mp.workprec(224):
            got = mp.mpf(rep.extrapolated_limit)
            want = predict_cor53(192).ratio_coefficient
            assert abs(got - want) / want < mp.mpf("0.01")

    def test_conjectured_symmetric_ratio_is_informational(self):
        rep = study("conjecture_sym", SMOOTH_DESC, [4, 8, 12, 16], bits=192)
        assert rep.verdict == "informational"
        assert "CONJECTURE" in rep.flags
        assert rep.passed

    def test_half_jump_moment_growth(self):
        rep = study("cor54", FHDescriptor(), [4, 8, 12, 16, 20, 24], bits=192)
        assert rep.verdict == "pass"
        assert rep.prediction["exponent_of_N"].startswith("-0.25")

    def test_cor54_exponent_keeps_working_precision(self):
        # Omega = -(0.2i)^2 - (0.2i)^2 = 0.08 is not a 53-bit number
        pair = FHDescriptor(
            {1: 0.1, -1: 0.1}, jumps=[(1.0, 0.2j), (2 * math.pi - 1.0, -0.2j)]
        )
        rep = study("cor54", pair, [4, 5, 6, 7], bits=128)
        with mp.workprec(192):
            omega = mp.mpf(rep.prediction["Omega"])
            expo = mp.mpf(rep.prediction["exponent_of_N"])
            assert abs(expo - (omega - mp.mpf(1) / 4)) < mp.mpf("1e-29")

    def test_sqrt_ratio_moment_growth_constant_symbol(self):
        b = MomentSymbol.from_poly({0: 1}, weight="sqrt_ratio")
        rep = study("cor56", b, [4, 8, 12, 16], bits=192)
        assert rep.verdict == "pass"
        # determinants are exactly one for the constant symbol
        with mp.workprec(224):
            for v in rep.det_values:
                assert abs(mp.mpf(v) - 1) < mp.mpf("1e-40")

    def test_study_kind_listing(self):
        assert STUDY_KINDS == ("prop52_ratio", "cor53", "cor54", "cor56", "conjecture_sym")

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            study("prop99", None, [4, 8, 12, 16])
        with pytest.raises(ValueError):
            study("prop52_ratio", None, [4, 8, 12, 16], bits=32)
        with pytest.raises(ValueError):
            study("prop52_ratio", None, [4, 8, 12])
        with pytest.raises(SpeciesError):
            study("cor53", None, [4, 8, 12, 16])
        with pytest.raises(ValueError):
            study("prop52_ratio", SMOOTH_DESC, [4, 8, 12, 16], sign=Fraction(1, 3))

    def test_conjecture_study_needs_palindromic_symbol(self):
        skew = FHDescriptor({1: 0.2})
        with pytest.raises(SpeciesError):
            study("conjecture_sym", skew, [4, 8, 12, 16], bits=128)

    def test_moment_study_needs_sqrt_ratio_weight(self):
        b = MomentSymbol.from_poly({0: 1})
        with pytest.raises(SpeciesError):
            study("cor56", b, [4, 8, 12, 16], bits=128)


@pytest.fixture(scope="module")
def report():
    b = MomentSymbol.from_poly({0: 1}, weight="sqrt_ratio")
    return study("cor56", b, [4, 8, 12, 16], bits=128)


class TestReportObject:
    def test_json_key_order(self, report):
        doc = report.to_json()
        assert list(doc) == [
            "kind",
            "N_list",
            "det_values",
            "compensated_values",
            "prediction",
            "fitted",
            "extrapolated_limit",
            "verdict",
            "flags",
            "bits",
        ]
        assert doc["N_list"] == [4, 8, 12, 16]
        assert doc["bits"] == 128

    def test_json_text_is_deterministic(self, report):
        t1 = report.to_json_text()
        t2 = report.to_json_text()
        assert t1 == t2
        assert json.loads(t1)["kind"] == "cor56"
        assert t1.endswith("\n")

    def test_csv_layout(self, report):
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "N,value,compensated"
        assert len(lines) == 5
        assert lines[1].startswith("4,")

    def test_passed_property(self, report):
        assert report.passed


class TestValidationGuard:
    def test_sign_validation_error_type(self):
        with pytest.raises(ValueError):
            predict_half_jump_ratio(FHDescriptor(), 2)

    def test_accuracy_error_carries_achieved(self):
        exc = AccuracyError("agreement stalled", achieved=mp.mpf("1e-9"))
        assert isinstance(exc, Exception)
        assert exc.achieved == mp.mpf("1e-9")
        assert AccuracyError("no comparison").achieved is None
