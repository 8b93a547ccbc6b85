import math
import sys
import threading
from fractions import Fraction

import mpmath as mp
import pytest

from sdet import asymptotics, quadrature, symbols
from sdet.identities import pfaffian_link, verify, verify_all
from sdet.matrices import toeplitz_plus_hankel
from sdet.scalars import to_mp
from sdet.symbols import (
    ArgDoubled,
    Chi,
    ClosedFormSymbol,
    CoeffSeq,
    FHDescriptor,
    FHProduct,
    FourierSymbol,
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
    moment_to_halfangle,
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


def count_samples(monkeypatch) -> list:
    """One entry per sampled symmetry check: of a circle symbol, or of a
    moment symbol's smooth factor."""
    calls = []
    real = symbols._sampled_symmetry

    def counted(a, *args):
        calls.append(a)
        return real(a, *args)

    monkeypatch.setattr(symbols, "_sampled_symmetry", counted)
    return calls


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

    @pytest.mark.parametrize(
        "entries, want",
        [
            ({-1: 0.5, 0: 2, 1: 0.5}, "even"),
            ({0: Fraction(1, 3)}, "even"),
            ({}, "even"),
            ({-1: -0.5, 1: 0.5}, "odd"),
            ({-2: 1j, 2: -1j}, "odd"),
            ({-1: -0.5, 0: 1, 1: 0.5}, None),
            ({-1: 1 + 1e-14, 0: 2, 1: 1.0}, None),
            ({1: 1}, None),
        ],
        ids=["even", "constant", "empty", "odd", "odd_complex", "odd_with_a0", "near_even", "one_sided"],
    )
    def test_unflagged_sequence_takes_its_entries_symmetry(self, entries, want):
        for symmetry in (None, "none"):
            a = CoeffSeq(entries, symmetry)
            assert a.symmetry == want
            assert a.to_json()["symmetry"] == (want or "none")

    def test_certify_even_reads_the_symmetry_and_never_samples(self, monkeypatch):
        samples = count_samples(monkeypatch)
        near_even = CoeffSeq({-1: 1 + 1e-14, 0: 2, 1: 1.0})
        assert not certify_even(near_even)
        assert certify_even(CoeffSeq({-1: 0.5, 0: 2, 1: 0.5}))
        assert not certify_even(CoeffSeq({-1: -0.5, 1: 0.5}))
        assert samples == []
        # so toeplitz_plus_hankel refuses it, as the even kinds do
        with pytest.raises(SpeciesError):
            toeplitz_plus_hankel(near_even, 3)
        with pytest.raises(SpeciesError):
            verify("hankel_congruence", near_even, 3, "hp", 128)

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


    def test_accuracy_target_must_be_positive(self):
        with pytest.raises(ValueError, match="accuracy target must be positive"):
            fourier_coeff(Chi(), 1, accuracy=0)


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


def per_index_jump(beta, n, bits):
    """JumpT's coefficient computed on its own, one precision block per n."""
    with mp.workprec(bits):
        b = to_mp(beta, bits)
        if b == n:
            return mp.mpf((-1) ** n)
        return mp.sinpi(b) / (mp.pi * (b - n))


def per_index_chi(n, bits):
    if n % 2 == 0:
        return mp.mpf(0)
    with mp.workprec(bits):
        return 2 / (mp.pi * n)


def raw_tuple(v):
    return v._mpc_ if isinstance(v, mp.mpc) else v._mpf_


class TestClosedTables:
    """A closed-form table is computed in one precision block, and each
    coefficient keeps the per-index formula bit for bit."""

    @pytest.mark.parametrize("bits", [64, 256, 544])
    @pytest.mark.parametrize("beta", [Fraction(-1, 2), Fraction(1, 2), Fraction(1, 3), 2, 0.25 + 0.5j])
    def test_jump_table(self, beta, bits):
        t = JumpT(beta)
        table = t.coeff_table(-9, 9, bits)
        for n in range(-9, 10):
            want = per_index_jump(beta, n, bits)
            assert type(table[n]) is type(want) and raw_tuple(table[n]) == raw_tuple(want)
            assert raw_tuple(t.closed_coeff(n, bits)) == raw_tuple(want)
        if beta == 2:
            assert table[2] == 1  # the b == n branch

    @pytest.mark.parametrize("bits", [64, 256, 544])
    def test_chi_table(self, bits):
        table = Chi().coeff_table(-9, 9, bits)
        for n in range(-9, 10):
            want = per_index_chi(n, bits)
            assert raw_tuple(table[n]) == raw_tuple(want)
            assert raw_tuple(Chi().closed_coeff(n, bits)) == raw_tuple(want)
        assert table[4] == 0 and table[3] != 0

    def test_no_closed_form_is_none(self):
        a = FHProduct(FHDescriptor({1: 0.15, -1: 0.15}))
        assert a.closed_table(range(-3, 4), 128) is None
        assert a.closed_coeff(0, 128) is None


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

    def test_even_integer_jump_has_even_support(self):
        # e^{2i(theta - pi)} = t^2: its only nonzero coefficient is a_2
        assert JumpT(2).even_support()
        assert not JumpT(-0.5).even_support()
        assert halve_argument(JumpT(2)).coeff_table(-2, 2, 128) == {-2: 0, -1: 0, 0: 0, 1: 1, 2: 0}

    @pytest.mark.parametrize(
        "make, ns, n, source",
        [(lambda: ArgDoubled(Chi()), (1, 2, 3), 2, 1), (lambda: HalvedArg(JumpT(2)), (1,), 1, 2)],
        ids=["doubled_chi", "halved_jump"],
    )
    def test_image_closed_table_agrees_with_closed_coeff(self, make, ns, n, source):
        a = make()
        table = a.closed_table(ns, 128)
        assert table is not None
        assert all(table[m] == a.closed_coeff(m, 128) for m in ns)
        assert table[n] == a.base.closed_coeff(source, 128) != 0

    @pytest.mark.parametrize("make", [lambda: ArgDoubled(Chi()), lambda: HalvedArg(JumpT(2))], ids=["doubled", "halved"])
    def test_image_rejects_an_empty_range(self, make):
        with pytest.raises(ValueError, match="empty coefficient range"):
            make().coeff_table(2, 1, 128)

    def test_halved_closed_form(self):
        a = CoeffSeq({-2: Fraction(1, 2), 0: 1, 2: Fraction(1, 2)}, symmetry="even")
        d = halve_argument(a)
        assert d.entries == COS_SEQ.entries


    def test_odd_symbols_have_no_even_support(self):
        with pytest.raises(SpeciesError, match="a\\(-t\\) = a\\(t\\)"):
            halve_argument(Chi())


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


    def test_two_odd_factors_have_no_real_profile(self):
        assert SymbolProduct((Chi(), Chi())).real_profile() is None


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

    def test_parity_certificate_needs_usable_samples(self):
        def everywhere_a_jump(x):
            raise JumpError("no usable point")

        assert not MomentSymbol(everywhere_a_jump, parity="even", real=True).certify_even()

    @pytest.mark.parametrize(
        "smooth",
        [lambda x: mp.mpc(x, 1), lambda x: 1 / (x - x)],
        ids=["complex_value", "raises"],
    )
    def test_sampled_realness(self, smooth):
        assert MomentSymbol(smooth).real is False

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

    @pytest.mark.parametrize("weight", ["one", "sqrt_ratio"])
    def test_evaluate_is_smooth_times_weight(self, weight):
        def smooth(x):
            return mp.exp(x) / 3 + x * x

        def poly(x):
            return 1 / mp.mpf(3) + x * x

        cases = [
            (MomentSymbol(smooth, weight), smooth),
            (MomentSymbol.from_poly({0: Fraction(1, 3), 2: 1}, weight), poly),
        ]
        for b, f in cases:
            for x in (Fraction(-3, 4), 0, 0.5, mp.mpf("0.875")):
                got = evaluate(b, x, bits=160)
                with mp.workprec(160):
                    xm = mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mp.mpf(x)
                    want = f(xm)
                    if weight == "sqrt_ratio":
                        want *= mp.sqrt((1 + xm) / (1 - xm))
                    assert abs(got - want) <= mp.mpf(2) ** -150 * abs(want)


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

    def test_a_certificate_without_usable_samples_fails(self):
        def everywhere_a_jump(theta):
            raise JumpError("no usable point")

        a = ClosedFormSymbol(everywhere_a_jump)
        assert certify_even(a) is False
        assert a.even_support() is False

    @pytest.mark.parametrize(
        "log, want",
        [
            ({2: 0.1, -2: 0.1, 4: 0.05, -4: 0.05}, True),
            ({1: 0.1, -1: 0.1}, False),
            ({1: 0.05, -1: 0.05, 2: 0.1, -2: 0.1}, False),
        ],
        ids=["even_indices", "odd_index", "mixed"],
    )
    def test_jump_free_even_support_needs_no_samples(self, monkeypatch, log, want):
        # a jump-free product has even support exactly when its log has no
        # odd-index coefficient; the sampler agrees
        assert FourierSymbol.even_support(FHProduct(FHDescriptor(log))) is want
        samples = count_samples(monkeypatch)
        assert FHProduct(FHDescriptor(log)).even_support() is want
        assert samples == []


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


    def test_half_angle_lift_takes_the_plain_weight(self):
        with pytest.raises(SpeciesError, match="smooth factor alone"):
            moment_to_halfangle(MomentSymbol.from_poly({0: 1}, weight="sqrt_ratio"))


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


class TestDerivedOnce:
    """Images and symmetry certificates are built once per source symbol."""

    @staticmethod
    def _exp_cos():
        return FHProduct(FHDescriptor({1: 0.15, -1: 0.15}))

    def test_repeated_derivations_return_one_object(self):
        a = self._exp_cos()
        b = th_to_moment_symbol(a)
        assert th_to_moment_symbol(a) is b
        assert moment_to_skew_symbol(b) is moment_to_skew_symbol(b)
        b0 = MomentSymbol.from_poly({0: 1, 2: Fraction(-1, 3)})
        assert moment_to_halfangle(b0) is moment_to_halfangle(b0)

    def test_failed_checks_raise_every_time(self):
        odd = CoeffSeq({1: 1}, symmetry="odd")
        liar = MomentSymbol(smooth=lambda x: x, parity="even")
        for _ in range(2):
            with pytest.raises(SpeciesError):
                th_to_moment_symbol(odd)
            with pytest.raises(SpeciesError):
                moment_to_halfangle(liar)

    def test_moment_parity_is_sampled_once(self):
        seen = []
        b0 = MomentSymbol(lambda x: seen.append(x) or x * x, parity="even", real=True)
        assert b0.certify_even() and b0.certify_even()
        assert len(seen) == 2 * symbols._CERT_SAMPLES

    @pytest.mark.parametrize(
        "make",
        [lambda: FHProduct(FHDescriptor({1: 0.15, -1: 0.15})), lambda: COS_SEQ],
        ids=["exp_cos", "cos_seq"],
    )
    def test_twin_tables_are_computed_once(self, count_calls, monkeypatch, make):
        a = make()
        moments, _ = count_calls(monkeypatch, "cospower_transform")
        trig, _ = count_calls(monkeypatch, "trig_transform")
        reports = [
            verify("th_vs_moment", a, 4, mode="hp", bits=128),
            verify("moment_skew_square", th_to_moment_symbol(a), 4, mode="hp", bits=128),
            pfaffian_link(th_to_moment_symbol(a), 4, bits=128),
        ]
        assert all(rep.passed for rep in reports)
        assert len(moments) == 1
        assert [args[4] for args in trig if args[4] == "u"] == ["u"]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: MomentSymbol.from_poly({0: 1, 2: Fraction(1, 3)}, weight="sqrt_ratio"),
            lambda: th_to_moment_symbol(FHProduct(FHDescriptor({1: 0.15, -1: 0.15}))),
        ],
        ids=["poly", "twin"],
    )
    def test_skew_table_leaves_the_moment_table_alone(self, make):
        b = make()
        moment_to_skew_symbol(b).coeff_table(-6, 6, 128)
        assert b._cache == {}

    def test_threads_get_one_image(self):
        # the twin's build samples even support, slow enough for the
        # threads to race on it; a lost update would hand out two twins
        a = ClosedFormSymbol(lambda t: 2 + mp.cos(2 * t), symmetry="even")
        workers = 4
        barrier = threading.Barrier(workers)
        got = []

        def derive():
            barrier.wait(timeout=10)
            b = th_to_moment_symbol(a)
            got.append((b, moment_to_skew_symbol(b)))

        threads = [threading.Thread(target=derive) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == workers
        assert all(pair[0] is got[0][0] and pair[1] is got[0][1] for pair in got)

    def test_verify_all_samples_each_certificate_once(self, monkeypatch):
        # mirrored jumps of opposite imaginary beta: even on the circle, and
        # without even support, so both checks sample
        a = FHProduct(
            FHDescriptor({2: 0.1, -2: 0.1}, jumps=[(1.0, 0.2j), (JumpPoint(2, -1.0), -0.2j)])
        )
        samples = count_samples(monkeypatch)
        reports = verify_all(a, 3, mode="hp", bits=128)
        assert {rep.kind for rep in reports if rep.passed} == {
            "hankel_congruence",
            "skew_square",
            "th_vs_moment",
        }
        assert len(samples) <= 2


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

    def test_fh_symbol_roundtrip_keeps_the_exact_mirror(self):
        desc = FHDescriptor({2: 0.1, -2: 0.1}, jumps=[(1.0, 0.2j), (JumpPoint(2, -1.0), -0.2j)])
        back = symbol_from_json(FHProduct(desc).to_json())
        assert isinstance(back, FHProduct)
        assert back.desc.log_smooth == desc.log_smooth
        assert back.desc.jumps == desc.jumps
        mirror = back.desc.points[1]
        assert (mirror.coeff, mirror.offset, mirror.arc) == (2, -1.0, 0)
        # the mirrored pair stays exact, so the product keeps its real profile
        assert back.real_profile() is not None

    def test_complex_coeffs_roundtrip(self):
        back = symbol_from_json(CoeffSeq({1: 1 + 2j, 2: 0.5}).to_json())
        assert back.entries == {1: 1 + 2j, 2: 0.5}
        assert back.symmetry is None

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

    def test_moment_roundtrip_keeps_jumps(self, monkeypatch, count_calls):
        b = MomentSymbol.from_poly({0: 1, 2: 2}, "sqrt_ratio", jumps=[0.5])
        back = moment_from_json(b.to_json())
        assert back.jumps == (0.5,)
        assert back.to_json() == b.to_json()
        uncut = MomentSymbol.from_poly({0: 1, 2: 2}, "sqrt_ratio")
        assert "jumps" not in uncut.to_json()
        # the cut keeps the symbol off the trapezoid, as it keeps b
        for sym, driver in (
            (b, "_panel_quadrature"),
            (back, "_panel_quadrature"),
            (uncut, "_trapezoid_quadrature"),
        ):
            with monkeypatch.context() as m:
                trapezoid_calls, _ = count_calls(m, "_trapezoid_quadrature")
                panel_calls, _ = count_calls(m, "_panel_quadrature")
                sym.moment_table(4, 128)
                ran = {"_trapezoid_quadrature": trapezoid_calls, "_panel_quadrature": panel_calls}
                assert [name for name, calls in ran.items() for _ in calls] == [driver]

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

    @pytest.mark.parametrize("value, message", [(True, "boolean is not a number"), ([1], "bad numeric value")])
    def test_coefficient_values_must_be_numbers(self, value, message):
        with pytest.raises(ValueError, match=message):
            symbol_from_json({"kind": "coeffs", "entries": [[0, value, 0]]})
