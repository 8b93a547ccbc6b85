import math
from fractions import Fraction

import mpmath as mp
import pytest

from sdet import asymptotics, quadrature
from sdet.identities import verify
from sdet.symbols import (
    Chi,
    ClosedFormSymbol,
    CoeffSeq,
    FHDescriptor,
    FHProduct,
    HalvedArg,
    JumpError,
    JumpPoint,
    JumpT,
    MomentSymbol,
    SpeciesError,
    SymbolProduct,
    certify_even,
    descriptor_from_json,
    double_argument,
    evaluate,
    fourier_coeff,
    halve_argument,
    moment,
    moment_from_json,
    moment_to_skew_symbol,
    multiply_by_chi,
    symbol_from_json,
    th_to_moment_symbol,
)


COS_SEQ = CoeffSeq({-1: Fraction(1, 2), 0: 1, 1: Fraction(1, 2)}, symmetry="even")

# e^{0.2 cos t} times a jump pair at t and 2pi - t: even on the circle, with
# odd-index coefficients
PAIR_DESC = FHDescriptor({1: 0.1, -1: 0.1}, jumps=[(1.0, 0.2j), (2 * math.pi - 1.0, -0.2j)])
EVEN2_DESC = FHDescriptor({2: 0.1, -2: 0.1})


def poly_moment_exact(coeffs: dict, n: int) -> Fraction:
    """(1/pi) integral of sum c_k x^k times (2x)^{n-1}, without the 1/pi."""
    total = Fraction(0)
    for k, c in coeffs.items():
        p = k + n - 1
        if p % 2 == 0:
            total += Fraction(c) * 2 ** (n - 1) * Fraction(2, p + 1)
    return total


class TestCoeffSeq:
    def test_symmetry_completion(self):
        a = CoeffSeq({2: Fraction(1, 3)}, symmetry="even")
        assert a.entries[-2] == Fraction(1, 3)
        b = CoeffSeq({1: 1}, symmetry="odd")
        assert b.entries[-1] == -1

    def test_validation(self):
        with pytest.raises(ValueError):
            CoeffSeq({1: 1, -1: 2}, symmetry="even")
        with pytest.raises(ValueError):
            CoeffSeq({0: 3}, symmetry="odd")
        with pytest.raises(ValueError):
            CoeffSeq({}, symmetry="diagonal")
        with pytest.raises(TypeError):
            CoeffSeq({0: "three"})

    def test_exactness_and_lookup(self):
        a = CoeffSeq({0: Fraction(1, 2)})
        assert a.is_exact
        assert a.closed_coeff(0) == Fraction(1, 2)
        assert a.closed_coeff(7) == 0
        assert not CoeffSeq({0: 0.5}).is_exact

    def test_even_support_flag(self):
        assert CoeffSeq({2: 1, -2: 1}).even_support()
        assert not COS_SEQ.even_support()

    def test_pointwise_value(self):
        v = evaluate(COS_SEQ, 0.0, bits=128)
        with mp.workprec(160):
            assert abs(v - 2) < mp.mpf(2) ** -100


class TestChi:
    def test_closed_coefficients(self):
        chi = Chi()
        with mp.workprec(192):
            assert abs(chi.closed_coeff(1, 160) - 2 / mp.pi) < mp.mpf(2) ** -140
            assert abs(chi.closed_coeff(-3, 160) + 2 / (3 * mp.pi)) < mp.mpf(2) ** -140
        assert chi.closed_coeff(2, 160) == 0
        assert chi.closed_coeff(0, 160) == 0

    def test_quadrature_route_matches_closed_form(self):
        # same step profile handed to the integrator with no closed form
        def g(theta):
            return mp.mpf(1) if theta < mp.pi else mp.mpf(-1)

        raw = ClosedFormSymbol(
            Chi().eval_at,
            jumps=(JumpPoint(0), JumpPoint(1)),
            symmetry="odd",
            profile=("odd_i", g),
        )
        with mp.workprec(192):
            for n in (1, 2, 5):
                got = fourier_coeff(raw, n, bits=160)
                want = Chi().closed_coeff(n, 160)
                assert abs(got - want) < mp.mpf(2) ** -130

    def test_values_and_jumps(self):
        chi = Chi()
        assert evaluate(chi, 1.0) == mp.mpc(0, 1)
        assert evaluate(chi, 4.0) == mp.mpc(0, -1)
        with pytest.raises(JumpError):
            evaluate(chi, 0)
        with pytest.raises(JumpError):
            chi.eval_at(+mp.pi)


class TestJumpT:
    def test_closed_coefficients(self):
        t = JumpT(0.3)
        with mp.workprec(192):
            b = mp.mpf(0.3)
            for n in (-2, 0, 1, 4):
                want = mp.sinpi(b) / (mp.pi * (b - n))
                assert abs(t.closed_coeff(n, 160) - want) < mp.mpf(2) ** -140

    def test_integer_degenerate_case(self):
        assert JumpT(2).closed_coeff(2, 128) == 1
        assert JumpT(1).closed_coeff(1, 128) == -1

    def test_quadrature_route_matches_closed_form(self):
        t = JumpT(0.3)
        raw = ClosedFormSymbol(t.eval_at, jumps=(JumpPoint(0),))
        with mp.workprec(192):
            for n in (0, 1, -1):
                got = fourier_coeff(raw, n, bits=160)
                want = t.closed_coeff(n, 160)
                assert abs(got - want) < mp.mpf(2) ** -125

    def test_jump_location(self):
        with pytest.raises(JumpError):
            evaluate(JumpT(0.3), 0)
        pts = JumpT(0.3).jump_points()
        assert len(pts) == 1 and pts[0].approx() == 0.0


class TestFHData:
    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            FHDescriptor(jumps=((0.0, 0.3),))
        with pytest.raises(ValueError):
            FHDescriptor(jumps=((1.0, 0.5),))
        with pytest.raises(ValueError):
            FHDescriptor(jumps=((1.0, 0.1), (1.0, 0.2),))
        assert FHDescriptor().is_trivial
        assert not FHDescriptor({1: 0.1, -1: 0.1}).is_trivial

    def test_product_coefficients_are_bessel_values(self):
        # log a = 0.15 (t + 1/t) makes a_n the modified Bessel value at 0.3
        a = FHProduct(FHDescriptor({1: 0.15, -1: 0.15}))
        with mp.workprec(224):
            x = 2 * mp.mpf(0.15)
            for n in range(5):
                want = mp.besseli(n, x)
                got = fourier_coeff(a, n, bits=192)
                assert abs(got - want) < mp.mpf(2) ** -160

    def test_product_evenness(self):
        sym = FHProduct(FHDescriptor({1: 0.15, -1: 0.15}))
        assert certify_even(sym)
        assert sym.real_profile() is not None
        lopsided = FHProduct(FHDescriptor({1: 0.2}))
        assert not certify_even(lopsided)

    def test_jumps_shift_locations(self):
        a = FHProduct(FHDescriptor(jumps=((1.25, 0.3),)))
        pts = a.jump_points()
        assert len(pts) == 1
        assert abs(pts[0].approx() - 1.25) < 1e-15
        with pytest.raises(JumpError):
            evaluate(a, 1.25)

    def test_jump_factor_value(self):
        a = FHProduct(FHDescriptor(jumps=((float(math.pi), 0.25),)))
        got = evaluate(a, 0.5, bits=160)
        with mp.workprec(192):
            rel = mp.mpf(0.5) - mp.mpf(math.pi) + 2 * mp.pi
            want = mp.exp(mp.mpc(0, 1) * mp.mpf(0.25) * (rel - mp.pi))
            assert abs(got - want) < mp.mpf(2) ** -120


class TestArgumentMaps:
    def test_coeff_seq_doubling(self):
        d = double_argument(COS_SEQ)
        assert isinstance(d, CoeffSeq)
        assert d.entries == {2: Fraction(1, 2), 0: 1, -2: Fraction(1, 2)}

    def test_coeff_seq_halving(self):
        back = halve_argument(double_argument(COS_SEQ))
        assert back.entries == COS_SEQ.entries
        with pytest.raises(SpeciesError):
            halve_argument(COS_SEQ)

    def test_symbol_doubling_roundtrip(self):
        base = FHProduct(FHDescriptor({1: 0.15, -1: 0.15}))
        dd = double_argument(base)
        assert halve_argument(dd) is base
        assert dd.even_support()

    def test_doubled_coefficients_interleave_zeros(self):
        base = FHProduct(FHDescriptor({1: 0.15, -1: 0.15}))
        dd = double_argument(base)
        with mp.workprec(192):
            assert dd.coeff(1, 160) == 0
            diff = dd.coeff(2, 160) - base.coeff(1, 160)
            assert abs(diff) < mp.mpf(2) ** -130

    def test_doubled_values(self):
        base = FHProduct(FHDescriptor({1: 0.15, -1: 0.15}))
        dd = double_argument(base)
        v1 = evaluate(dd, 0.7, bits=160)
        v2 = evaluate(base, 2 * mp.mpf(0.7), bits=160)
        with mp.workprec(192):
            assert abs(v1 - v2) < mp.mpf(2) ** -130

    def test_halved_closed_form(self):
        a = CoeffSeq({-2: Fraction(1, 2), 0: 1, 2: Fraction(1, 2)}, symmetry="even")
        d = halve_argument(a)
        assert d.entries == COS_SEQ.entries


class TestChiProduct:
    def test_product_symmetry_bookkeeping(self):
        odd = multiply_by_chi(COS_SEQ)
        assert isinstance(odd, SymbolProduct)
        assert odd.symmetry == "odd"
        assert SymbolProduct((Chi(), Chi())).symmetry == "even"

    def test_profile_composition(self):
        odd = multiply_by_chi(COS_SEQ)
        kind, g = odd.real_profile()
        assert kind == "odd_i"
        with mp.workprec(160):
            th = mp.mpf(1) / 3
            want = 1 + 2 * mp.cos(th) / 2
            assert abs(g(th) - want) < mp.mpf(2) ** -100

    def test_product_coefficients(self):
        # chi * 1 has the chi coefficients themselves
        one = CoeffSeq({0: 1}, symmetry="even")
        prod = multiply_by_chi(one)
        with mp.workprec(192):
            got = fourier_coeff(prod, 3, bits=160)
            want = Chi().closed_coeff(3, 160)
            assert abs(got - want) < mp.mpf(2) ** -125


class TestMomentSymbol:
    def test_polynomial_weight_one_moments_match_exact_integrals(self):
        coeffs = {0: Fraction(1, 3), 2: Fraction(1, 2), 4: -1}
        b = MomentSymbol.from_poly(coeffs)
        with mp.workprec(192):
            for n in range(1, 7):
                w = poly_moment_exact(coeffs, n)
                want = mp.mpf(w.numerator) / w.denominator / mp.pi
                got = moment(b, n, bits=160)
                assert abs(got - want) < mp.mpf(2) ** -130

    def test_constant_weight_one(self):
        b = MomentSymbol.from_poly({0: 1})
        with mp.workprec(192):
            assert abs(moment(b, 1, bits=160) - 2 / mp.pi) < mp.mpf(2) ** -130
            assert abs(moment(b, 2, bits=160)) < mp.mpf(2) ** -130

    def test_constant_sqrt_ratio_moments_are_central_binomials(self):
        b = MomentSymbol.from_poly({0: 1}, weight="sqrt_ratio")
        table = b.moment_table(6, 160)
        with mp.workprec(192):
            for n, want in zip(range(1, 7), (1, 1, 2, 3, 6, 10)):
                assert abs(table[n] - want) < mp.mpf(2) ** -130

    def test_linear_sqrt_ratio_moment(self):
        b = MomentSymbol.from_poly({1: 1}, weight="sqrt_ratio")
        with mp.workprec(192):
            assert abs(moment(b, 1, bits=160) - mp.mpf(1) / 2) < mp.mpf(2) ** -130

    def test_parity_certification(self):
        assert MomentSymbol.from_poly({2: 1}).certify_even()
        liar = MomentSymbol(smooth=lambda x: x, parity="even")
        assert not liar.certify_even()

    def test_from_poly_autoparity(self):
        assert MomentSymbol.from_poly({0: 1, 2: 3}).parity == "even"
        assert MomentSymbol.from_poly({1: 1}).parity is None

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            MomentSymbol.from_poly({0: 1}, weight="cosine")
        with pytest.raises(ValueError):
            MomentSymbol.from_poly({0: 1}, jumps=(2.0,))
        with pytest.raises(ValueError):
            moment(MomentSymbol.from_poly({0: 1}), 0)

    def test_moment_twin_of_cosine_polynomial(self):
        b = th_to_moment_symbol(COS_SEQ)
        assert b.weight == "sqrt_ratio"
        assert b.parity is None  # support includes odd indices
        with mp.workprec(192):
            got = moment(b, 1, bits=160)
            assert abs(got - Fraction(3, 2)) < mp.mpf(2) ** -125

    def test_moment_twin_needs_even_symbol(self):
        with pytest.raises(SpeciesError):
            th_to_moment_symbol(CoeffSeq({1: 1}, symmetry="odd"))


class TestSymmetrySampling:
    """Decisions of the sampled symmetry checks on symbols that declare none."""

    @pytest.mark.parametrize(
        "make, want",
        [
            (lambda: FHProduct(PAIR_DESC), True),
            (lambda: SymbolProduct((FHProduct(PAIR_DESC), FHProduct(EVEN2_DESC))), True),
            (lambda: ClosedFormSymbol(lambda t: 2 + mp.cos(2 * t)), True),
            (lambda: FHProduct(FHDescriptor({1: 0.1, -1: 0.1}, jumps=[(1.25, 0.2)])), False),
            (lambda: JumpT(0.25), False),
            (lambda: SymbolProduct((JumpT(0.25), FHProduct(FHDescriptor({1: 0.15, -1: 0.15})))), False),
            (lambda: ClosedFormSymbol(lambda t: 2 + mp.expj(t)), False),
        ],
        ids=["jump_pair", "jump_pair_times_even", "cos2t", "one_jump", "jump_t", "jump_t_times_fh", "expj"],
    )
    def test_certify_even(self, make, want):
        a = make()
        assert a.symmetry is None
        assert certify_even(a) is want

    @pytest.mark.parametrize(
        "make, want",
        [
            (lambda: FHProduct(EVEN2_DESC), True),
            (lambda: ClosedFormSymbol(lambda t: 2 + mp.cos(2 * t)), True),
            (lambda: FHProduct(FHDescriptor({1: 0.1, -1: 0.1})), False),
            (lambda: FHProduct(PAIR_DESC), False),
            (lambda: HalvedArg(FHProduct(EVEN2_DESC)), False),
        ],
        ids=["cos2t_fh", "cos2t", "cos_t_fh", "jump_pair", "halved"],
    )
    def test_even_support(self, make, want):
        assert make().even_support() is want


class TestPullbacks:
    """Both circle-to-interval pullbacks against MomentSymbols built by hand."""

    @staticmethod
    def _case(kind):
        """(pullback under test, hand-built moment symbol of the formula)."""
        a = FHProduct(PAIR_DESC)
        if kind == "moment_twin":
            # b(cos t) = a(e^{it}) sqrt((1+cos t)/(1-cos t)); one jump in (0, pi),
            # given as its exact angle
            want = MomentSymbol(
                lambda x: a.eval_at(mp.acos(x)),
                weight="sqrt_ratio",
                jumps=[JumpPoint(0, 1.0)],
                parity=None,
                real=False,
            )
            return th_to_moment_symbol(a), want
        # b(cos t) = a(e^{2it}); both jumps land in (0, pi) at half angle
        want = MomentSymbol(
            lambda x: a.eval_at(2 * mp.acos(x)),
            weight="one",
            jumps=[JumpPoint(0, 0.5), JumpPoint(0, (2 * math.pi - 1.0) / 2)],
            parity="even",
            real=False,
        )
        return asymptotics._halfangle_pullback(PAIR_DESC), want

    @pytest.mark.parametrize("kind", ["moment_twin", "half_angle"])
    def test_matches_formula(self, kind):
        got, want = self._case(kind)
        assert got.jumps == pytest.approx(want.jumps, abs=1e-15)
        assert (got.parity, got.real, got.weight) == (want.parity, want.real, want.weight)
        got_tab, want_tab = got.moment_table(6, 128), want.moment_table(6, 128)
        assert sorted(got_tab) == list(range(1, 7))
        with mp.workprec(160):
            for n in got_tab:
                scale = max(1, abs(want_tab[n]))
                assert abs(got_tab[n] - want_tab[n]) < mp.mpf("1e-30") * scale

    # PAIR_DESC with its second jump at exactly 2pi - 1, the mirror of the first:
    # an exactly even symbol, whose pullbacks must keep the jumps' exact angles
    EXACT_PAIR_DESC = FHDescriptor(
        {1: 0.1, -1: 0.1}, jumps=[(1.0, 0.2j), (JumpPoint(2, -1.0), -0.2j)]
    )

    def test_exact_jump_location_is_kept(self):
        a = FHProduct(self.EXACT_PAIR_DESC)
        assert [(p.coeff, p.offset) for p in a.jump_points()] == [(0, 1.0), (2, -1.0)]
        assert self.EXACT_PAIR_DESC.jumps[1][0] == 2 * math.pi - 1.0
        with mp.workprec(160):
            assert abs(a.eval_at(mp.mpf(2)) - a.eval_at(2 * mp.pi - 2)) < mp.mpf(2) ** -150

    def test_moment_twin_identity_holds_to_working_precision(self):
        # with jumps cut at acos(float(cos 1)) the records failed at ~1e-16
        rep = verify("th_vs_moment", FHProduct(self.EXACT_PAIR_DESC), 5, mode="hp", bits=128)
        assert rep.verdict == "pass", rep.notes

    def test_half_angle_pullback_odd_moments_vanish(self):
        bits = 128
        b = asymptotics._halfangle_pullback(self.EXACT_PAIR_DESC)
        assert b.parity == "even"
        tab = b.moment_table(4, bits)
        with mp.workprec(bits):
            for n in (2, 4):
                assert abs(tab[n]) <= mp.mpf(2) ** (-(bits - quadrature.SLACK))


class TestTableCache:
    """coeff_table and moment_table keep one grow-only table per bits."""

    @staticmethod
    def _source(kind):
        """(table request, keys it must return, quadrature routine it uses)."""
        if kind == "coeffs":
            a = FHProduct(FHDescriptor({1: 0.15, -1: 0.15}))
            table = lambda n, bits: a.coeff_table(-n, n, bits)
            return table, (lambda n: range(-n, n + 1)), "trig_transform"
        b = MomentSymbol.from_poly({0: 1, 2: Fraction(1, 3)}, weight="sqrt_ratio")
        return b.moment_table, (lambda n: range(1, n + 1)), "cospower_transform"

    @pytest.mark.parametrize("kind", ["coeffs", "moments"])
    def test_grow_only_table_per_bits(self, monkeypatch, kind):
        table, keys, routine = self._source(kind)
        calls = []
        real = getattr(quadrature, routine)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(quadrature, routine, counted)
        big = table(8, 96)
        assert len(calls) == 1 and sorted(big) == list(keys(8))
        small = table(3, 96)
        assert len(calls) == 1
        assert sorted(small) == list(keys(3))
        assert all(small[n] == big[n] for n in small)
        larger = table(12, 96)
        assert len(calls) == 2 and sorted(larger) == list(keys(12))
        table(10, 96)
        assert len(calls) == 2
        other = table(3, 128)
        assert len(calls) == 3 and sorted(other) == list(keys(3))
        table(12, 96)
        assert len(calls) == 3

    def test_one_sided_coefficient_range(self):
        a = FHProduct(FHDescriptor({1: 0.15, -1: 0.15}))
        full = a.coeff_table(-6, 6, 96)
        part = a.coeff_table(2, 5, 96)
        assert sorted(part) == [2, 3, 4, 5]
        assert all(part[n] == full[n] for n in part)


class TestSkewFromMoment:
    def test_values(self):
        c = moment_to_skew_symbol(MomentSymbol.from_poly({0: 1}))
        with mp.workprec(160):
            up = evaluate(c, mp.pi / 2, bits=128)
            down = evaluate(c, 3 * mp.pi / 2, bits=128)
            assert abs(up - mp.mpc(0, 1)) < mp.mpf(2) ** -100
            assert abs(down + mp.mpc(0, 1)) < mp.mpf(2) ** -100

    def test_jump_locations(self):
        c = moment_to_skew_symbol(MomentSymbol.from_poly({0: 1}))
        with pytest.raises(JumpError):
            evaluate(c, 0)
        with pytest.raises(JumpError):
            c.eval_at(+mp.pi)

    def test_profile_parity(self):
        c = moment_to_skew_symbol(MomentSymbol.from_poly({0: 1}))
        kind, g = c.real_profile()
        assert kind == "odd_i"
        with mp.workprec(128):
            assert abs(g(mp.mpf(1)) - 1) < mp.mpf(2) ** -100


class TestJumpPoint:
    def test_exact_pi_multiples(self):
        assert JumpPoint(0).approx() == 0.0
        assert JumpPoint(1).approx() == math.pi
        with mp.workprec(160):
            assert JumpPoint(1).to_mpf() == mp.pi

    def test_normalization(self):
        assert JumpPoint(-1).coeff == 1
        assert JumpPoint(2).coeff == 0
        assert JumpPoint(Fraction(5, 2)).coeff == Fraction(1, 2)

    def test_scaling(self):
        half = JumpPoint(1).scaled(Fraction(1, 2))
        assert half.coeff == Fraction(1, 2)
        shifted = JumpPoint(1).scaled(Fraction(1, 2), extra_pi=1)
        assert shifted.coeff == Fraction(3, 2)


class TestJsonConfigs:
    def test_coeffs_roundtrip(self):
        back = symbol_from_json(COS_SEQ.to_json())
        assert isinstance(back, CoeffSeq)
        assert back.entries == COS_SEQ.entries
        assert back.symmetry == "even"

    def test_chi_and_jump_roundtrip(self):
        assert isinstance(symbol_from_json({"kind": "chi"}), Chi)
        t = symbol_from_json(JumpT(0.3).to_json())
        assert isinstance(t, JumpT)
        assert t.beta == 0.3

    def test_descriptor_roundtrip(self):
        desc = FHDescriptor({1: 0.15, -1: 0.15}, jumps=((1.0, 0.3),))
        back = descriptor_from_json(desc.to_json())
        assert back.log_smooth == desc.log_smooth
        assert back.jumps == desc.jumps

    def test_fh_symbol_from_json(self):
        sym = symbol_from_json(
            {"kind": "fh", "log_smooth": [[1, 0.15, 0], [-1, 0.15, 0]], "jumps": []}
        )
        assert isinstance(sym, FHProduct)
        assert sym.desc.log_smooth == {1: 0.15, -1: 0.15}

    def test_moment_roundtrip(self):
        b = MomentSymbol.from_poly(
            {0: 1, 2: Fraction(1, 2)}, weight="sqrt_ratio"
        )
        back = moment_from_json(b.to_json())
        assert back.weight == "sqrt_ratio"
        assert back.parity == "even"
        assert back.poly == {0: Fraction(1), 2: Fraction(1, 2)}

    def test_product_roundtrip(self):
        prod = SymbolProduct((Chi(), COS_SEQ))
        back = symbol_from_json(prod.to_json())
        assert isinstance(back, SymbolProduct)
        assert isinstance(back.factors[0], Chi)
        assert back.factors[1].entries == COS_SEQ.entries

    def test_rejects_unknown_kinds(self):
        with pytest.raises(ValueError):
            symbol_from_json({"kind": "wavelet"})
        with pytest.raises(ValueError):
            symbol_from_json(["kind", "chi"])
        with pytest.raises(ValueError):
            moment_from_json({"kind": "coeffs"})
        with pytest.raises(ValueError):
            descriptor_from_json({"kind": "chi"})

    def test_fraction_strings_stay_exact(self):
        sym = symbol_from_json(
            {"kind": "coeffs", "symmetry": "even", "entries": [[0, "1/3", 0]]}
        )
        assert sym.entries[0] == Fraction(1, 3)
