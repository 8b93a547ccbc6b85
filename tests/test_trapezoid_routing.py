"""Jump-free tables take the nested trapezoid; tables with cuts, or whose
source jumps at all, and weight-one moments keep the panels.  A table of
unknown band (an opaque evaluator) is returned from the trapezoid only once
one Gauss-Legendre level of the panel rule agrees with it.

Each routed table is checked against the same table forced onto the
Gauss-Legendre panel rule, to 2^-(bits-SLACK) relative to max(sup, 1), the
accuracy the transforms promise.  The aliasing cases have all their
frequencies at multiples of 32, which nested grids of 16 and 32 nodes both
see as constants: a declared band must reach the first grid, and an opaque
one must fail the check.  The fallback cases hide a kink at an endpoint,
where the trapezoid converges only algebraically.  All must still match the
panel rule, at a bounded cost.  An infinite or nan node value sends the
table to the panels at once, and raises there.  The skew tables of uncut real sqrt_ratio
moment symbols take the U_{n-1}(cos t) kernel on the trapezoid and are
checked against the Chi-times-lift product on the panels.
"""

from fractions import Fraction

import mpmath as mp
import pytest

from sdet import identities, quadrature, transforms
from sdet.identities import IdentityKind
from sdet.symbols import (
    ArgDoubled,
    Chi,
    ClosedFormSymbol,
    CoeffSeq,
    FHDescriptor,
    FHProduct,
    HalvedArg,
    JumpPoint,
    JumpT,
    MomentSymbol,
    SymbolProduct,
    moment_to_halfangle,
    moment_to_skew_symbol,
    th_to_moment_symbol,
)

NMAX = 12


def _exp_cos(jumps=()):
    return FHProduct(FHDescriptor({1: 0.15, -1: 0.15}, jumps=jumps))


def _exp_x2(weight, band=None):
    """e^{0.6 x^2 - 0.3}, the exponential of a degree-2 polynomial: opaque
    unless band=2 is declared."""
    return MomentSymbol(
        lambda x: mp.exp((mp.mpf(3) / 5) * x * x - mp.mpf(3) / 10),
        weight=weight,
        parity="even",
        band=band,
    )


def _odd_profile(th):
    return mp.sin(th) * mp.exp(mp.cos(th) / 2)


def _odd_closed_form():
    """i g(theta) with g(theta) = sin(theta) e^{cos(theta)/2}, real and odd."""
    return ClosedFormSymbol(
        lambda th: mp.mpc(0, 1) * _odd_profile(th),
        symmetry="odd",
        profile=("odd_i", _odd_profile),
        band=2,
    )


def _poly(weight):
    return MomentSymbol.from_poly({0: 1, 2: Fraction(-1, 3), 4: Fraction(2, 5)}, weight=weight)


def _sqrt_ratio_x2():
    return MomentSymbol.from_poly({2: 2}, weight="sqrt_ratio")


def _exp_cos32():
    """e^{0.2 cos(32 theta)}: its coefficients are I_{k/32}(0.2) at multiples of 32."""
    return FHProduct(FHDescriptor({32: 0.1, -32: 0.1}))


def _coeffs(make):
    return lambda bits: make().coeff_table(-NMAX, NMAX, bits)


def _moments(make):
    return lambda bits: make().moment_table(NMAX, bits)


# every table is built from a fresh symbol, so no cache carries over
ROUTED = {
    "fh_product": _coeffs(_exp_cos),
    "arg_doubled": _coeffs(lambda: ArgDoubled(_exp_cos())),
    "halved_arg": _coeffs(
        lambda: HalvedArg(FHProduct(FHDescriptor({2: 0.1, -2: 0.1, 4: 0.05, -4: 0.05})))
    ),
    "closed_form_odd_i": _coeffs(_odd_closed_form),
    "halfangle_lift": _coeffs(lambda: moment_to_halfangle(_poly("one"))),
    "pullback_fh": _moments(lambda: th_to_moment_symbol(_exp_cos())),
    "pullback_coeff_seq": _moments(
        lambda: th_to_moment_symbol(CoeffSeq({-1: Fraction(1, 2), 0: 1, 1: Fraction(1, 2)}, "even"))
    ),
    "poly_sqrt_ratio": _moments(lambda: _poly("sqrt_ratio")),
}

# tables whose first trapezoid grid must resolve frequency 32, not just 5
ALIASED = {
    "fh_cos32_coeffs": lambda bits: _exp_cos32().coeff_table(-5, 5, bits),
    "fh_cos32_pullback": lambda bits: th_to_moment_symbol(_exp_cos32()).moment_table(5, bits),
}

# opaque evaluators: nothing bounds their frequency, so one Gauss-Legendre
# level checks the trapezoid's sums; the last two alias on every nested grid
OPAQUE = {
    "exp_sqrt_ratio": _moments(lambda: _exp_x2("sqrt_ratio")),
    "exp_halfangle_lift": _coeffs(lambda: moment_to_halfangle(_exp_x2("one"))),
    "chebyshev_32_sqrt_ratio": lambda bits: MomentSymbol(
        lambda x: mp.exp(mp.mpf(0.2) * mp.chebyt(32, x)), weight="sqrt_ratio"
    ).moment_table(5, bits),
    "complex_closed_form": lambda bits: ClosedFormSymbol(
        lambda th: mp.exp(mp.mpf(0.1) * mp.expj(32 * th))
    ).coeff_table(-5, 5, bits),
}


def _cos_sym():
    return CoeffSeq({-1: Fraction(1, 2), 0: 1, 1: Fraction(1, 2)}, symmetry="even")


# uncut real sqrt_ratio symbols: their skew tables take the U kernel, checked
# by one Gauss-Legendre level when the band is unknown (lambda)
SKEW_ROUTED = {
    "image_exp_cos": lambda: th_to_moment_symbol(_exp_cos()),
    "image_cos_sym": lambda: th_to_moment_symbol(_cos_sym()),
    "poly_sqrt_ratio": lambda: _poly("sqrt_ratio"),
    "lambda": lambda: _exp_x2("sqrt_ratio"),
}

# their skew tables keep the panels
SKEW_PANELS = {
    "weight_one": lambda: _poly("one"),
    "cut": lambda: MomentSymbol.from_poly({0: 1, 2: Fraction(1, 2)}, "sqrt_ratio", jumps=(0.25,)),
    "complex": lambda: MomentSymbol.from_poly({0: 1, 2: complex(0, 0.5)}, "sqrt_ratio"),
}


def _sqrt_ratio_of_kink(t):
    """sqrt(1 - cos^2 t) (1 + cos t): |sin t|, with its kink at t = 0 and pi."""
    ct = mp.cos(t)
    return mp.sqrt(1 - ct * ct) * (1 + ct)


def _force_panels(monkeypatch):
    """Send every trapezoid request to the panel rule on its one panel."""
    panel = quadrature._panel_quadrature

    def forced(f, full, size, oscillation, growth, bits, kernel, what, cplx=False, checked=False):
        with mp.workprec(bits + quadrature.GUARD):
            end = 2 * mp.pi if full else +mp.pi
            panels = [(mp.mpf(0), end)]
        return panel(f, panels, size, oscillation, growth, bits, kernel, what, cplx)

    monkeypatch.setattr(quadrature, "_trapezoid_quadrature", forced)


def _assert_agree(got, want, bits):
    assert sorted(got) == sorted(want)
    with mp.workprec(bits + 64):
        sup = max([abs(v) for v in want.values()] + [mp.mpf(1)])
        worst = max(abs(got[n] - want[n]) for n in want)
        assert worst <= mp.mpf(2) ** (-(bits - quadrature.SLACK)) * sup, mp.nstr(worst, 5)


def _budget(oscillation, end, bits):
    """The trapezoid's node budget: the panel rule's first two levels."""
    order = quadrature._gl_order(bits)
    with mp.workprec(bits + quadrature.GUARD):
        tol = mp.mpf(2) ** (-(bits + quadrature.SLACK))
        return 3 * order * quadrature._start_subpanels(oscillation, end, order, tol)


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("case", sorted(ROUTED))
def test_routed_table_matches_panel_rule(monkeypatch, count_calls, case, bits):
    with monkeypatch.context() as m:
        panel_calls, _ = count_calls(m, "_panel_quadrature")
        got = ROUTED[case](bits)
        assert panel_calls == [], "the table did not take the trapezoid"
    _force_panels(monkeypatch)
    _assert_agree(got, ROUTED[case](bits), bits)


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("case", sorted(ALIASED))
def test_first_grid_resolves_the_symbols_band(monkeypatch, count_calls, case, bits):
    with monkeypatch.context() as m:
        trapezoid_calls, _ = count_calls(m, "_trapezoid_quadrature")
        got = ALIASED[case](bits)
        # the oscillation the trapezoid starts from counts the band 32
        assert [args[3] for args in trapezoid_calls] == [5 + (32 if "coeffs" in case else 33)]
    with mp.workprec(bits + 64):
        # c_0 = I_0(0.2), and the pullback's first moment is c_0 + c_1 = c_0
        i0 = mp.besseli(0, mp.mpf(0.2))
        first = got[0] if "coeffs" in case else got[1]
        assert abs(first - i0) <= mp.mpf(2) ** (-(bits - quadrature.SLACK)), mp.nstr(first - i0, 5)
    _force_panels(monkeypatch)
    _assert_agree(got, ALIASED[case](bits), bits)


@pytest.mark.parametrize("case", sorted(OPAQUE))
def test_opaque_evaluators_are_checked_by_one_panel_level(monkeypatch, count_calls, case):
    trapezoid_calls, _ = count_calls(monkeypatch, "_trapezoid_quadrature")
    panel_calls, panel_evaluations = count_calls(monkeypatch, "_panel_quadrature")
    got = OPAQUE[case](128)
    # the panel rule runs once, given the trapezoid's sums to check
    assert len(trapezoid_calls) == len(panel_calls) == 1 and panel_calls[0][9] is not None
    check_level = quadrature._gl_order(128)  # one subpanel
    if "32" not in case and "complex" not in case:
        assert panel_evaluations[0] == check_level
    else:
        # the aliased sums fail the check, and the panel rule doubles on
        assert panel_evaluations[0] > check_level
        with mp.workprec(160):
            first = got[0] if "complex" in case else got[1]
            # e^{0.1 e^{32 i theta}} has c_0 = 1; e^{0.2 T_32(cos t)} = e^{0.2 cos 32t}
            want = 1 if "complex" in case else mp.besseli(0, mp.mpf(0.2))
            assert abs(first - want) <= mp.mpf(2) ** -116, mp.nstr(first - want, 5)


# the exp profile's tables, with band=2 declared or with the band unknown
EXP_TABLES = {
    "moments": lambda band, bits: _exp_x2("sqrt_ratio", band).moment_table(NMAX, bits),
    "halfangle": lambda band, bits: moment_to_halfangle(_exp_x2("one", band)).coeff_table(
        -NMAX, NMAX, bits
    ),
    "skew": lambda band, bits: moment_to_skew_symbol(_exp_x2("sqrt_ratio", band)).coeff_table(
        -NMAX, NMAX, bits
    ),
}


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("table", sorted(EXP_TABLES))
def test_checked_table_matches_the_known_band_route(monkeypatch, count_calls, table, bits):
    with monkeypatch.context() as m:
        panel_calls, _ = count_calls(m, "_panel_quadrature")
        known = EXP_TABLES[table](2, bits)
        assert panel_calls == [], "a known band runs no check level"
    with monkeypatch.context() as m:
        panel_calls, _ = count_calls(m, "_panel_quadrature")
        got = EXP_TABLES[table](None, bits)
        assert len(panel_calls) == 1 and panel_calls[0][9] is not None
    _assert_agree(got, known, bits)


def _kinked_moments():
    """sqrt(1 - x^2) with the sqrt_ratio weight: its moment integrand is
    _sqrt_ratio_of_kink, and nothing declares the kink."""
    return MomentSymbol(lambda x: mp.sqrt(1 - x * x), weight="sqrt_ratio")


def test_opaque_endpoint_kink_falls_back_to_panels(monkeypatch, count_calls):
    # the same cost bound as for a caller that declares the kink smooth
    bits, n_max = 128, 10
    with monkeypatch.context() as m:
        panel_calls, _ = count_calls(m, "_panel_quadrature")
        _, trapezoid_evaluations = count_calls(m, "_trapezoid_quadrature")
        got = _kinked_moments().moment_table(n_max, bits)
        # a fallback, not a check: the panel rule got no trapezoid sums
        assert [args[9] for args in panel_calls] == [None], "the trapezoid should have given up"
    _, panel_evaluations = count_calls(monkeypatch, "_panel_quadrature")
    _force_panels(monkeypatch)
    want = _kinked_moments().moment_table(n_max, bits)
    _assert_agree(got, want, bits)
    assert trapezoid_evaluations[0] <= _budget(n_max, float(mp.pi), bits) + panel_evaluations[0]


def _edge_kink(at_pi):
    """An even symbol that is smooth off one declared jump point, at 0
    (2 + sin(theta/2) on [0, 2pi)) or at pi (2 + |cos(theta/2)|)."""

    def value(th):
        return 2 + (abs(mp.cos(th / 2)) if at_pi else mp.sin(th / 2))

    jump = JumpPoint(1) if at_pi else JumpPoint(0)
    return ClosedFormSymbol(value, jumps=(jump,), symmetry="even", profile=("even", value))


# tables that make no trapezoid evaluation, whatever their band
PANELS_ONLY = {
    "edge_jump_at_0_moments": lambda: th_to_moment_symbol(_edge_kink(False)).moment_table(6, 128),
    "edge_jump_at_pi_moments": lambda: th_to_moment_symbol(_edge_kink(True)).moment_table(6, 128),
    "edge_jump_at_0_skew": lambda: moment_to_skew_symbol(
        th_to_moment_symbol(_edge_kink(False))
    ).coeff_table(-6, 6, 128),
    "weight_one_lambda": lambda: _exp_x2("one").moment_table(6, 128),
}


@pytest.mark.parametrize("case", sorted(PANELS_ONLY))
def test_jumps_at_0_or_pi_and_weight_one_keep_the_panels(monkeypatch, count_calls, case):
    _, trapezoid_evaluations = count_calls(monkeypatch, "_trapezoid_quadrature")
    panel_calls, _ = count_calls(monkeypatch, "_panel_quadrature")
    PANELS_ONLY[case]()
    assert trapezoid_evaluations[0] == 0 and len(panel_calls) == 1


def test_exp_profile_evaluations_at_acceptance_2(monkeypatch, count_calls):
    # moment_to_toeplitz on the exp profile at nmax 10 and 256 bits: the
    # trapezoid's nodes plus one check level of 85 nodes per table, where
    # the panel rule alone took 510 and 255
    _, moment_evaluations = count_calls(monkeypatch, "cospower_transform")
    _, halfangle_evaluations = count_calls(monkeypatch, "trig_transform")
    hp = {"mode": "hp", "bits": 256}
    rep = identities.verify(IdentityKind.MomentToToeplitz, _exp_x2("sqrt_ratio"), 10, **hp)
    assert rep.passed
    assert moment_evaluations[0] <= 214 and halfangle_evaluations[0] <= 150


def test_endpoint_kink_falls_back_to_panels(monkeypatch, count_calls):
    # a caller that declares the kinked |sin t| smooth still gets the panel
    # rule's value, for at most the trapezoid's budget of extra evaluations
    bits, n_max = 128, 10
    with monkeypatch.context() as m:
        panel_calls, _ = count_calls(m, "_panel_quadrature")
        _, trapezoid_evaluations = count_calls(m, "_trapezoid_quadrature")
        got = quadrature.cospower_transform(_sqrt_ratio_of_kink, None, n_max, bits)
        assert len(panel_calls) == 1, "the trapezoid should have given up"
    with monkeypatch.context() as m:
        _, panel_evaluations = count_calls(m, "_panel_quadrature")
        with mp.workprec(bits + quadrature.GUARD):
            panels = [(mp.mpf(0), +mp.pi)]
        want = quadrature.cospower_transform(_sqrt_ratio_of_kink, panels, n_max, bits)
    _assert_agree(dict(enumerate(got[1:])), dict(enumerate(want[1:])), bits)
    assert trapezoid_evaluations[0] <= _budget(n_max, float(mp.pi), bits) + panel_evaluations[0]


def test_trapezoid_alone_does_not_converge_on_the_kink(monkeypatch):
    # what the fallback is for: the trapezoid by itself runs out of nodes
    def no_fallback(*args, **kwargs):
        raise quadrature.AccuracyError("no fallback")

    monkeypatch.setattr(quadrature, "_panel_quadrature", no_fallback)
    with pytest.raises(quadrature.AccuracyError):
        quadrature.cospower_transform(_sqrt_ratio_of_kink, None, 10, 128)


def _infinite_at_0(t):
    """e^{cos t}, except that it reads +inf at the trapezoid's first node."""
    return mp.inf if t == 0 else mp.exp(mp.cos(t))


def test_infinite_node_value_goes_straight_to_the_panels(monkeypatch, count_calls):
    # the trapezoid meets t = 0 first and sums no level: its only evaluation
    # is that node, and the panel rule starts afresh, on interior nodes only
    bits, n_max = 128, 6
    panel_calls, panel_evaluations = count_calls(monkeypatch, "_panel_quadrature")
    _, evaluations = count_calls(monkeypatch, "_trapezoid_quadrature")
    got = quadrature.trig_transform(_infinite_at_0, None, n_max, bits, "cos", band=None)
    assert [args[9] for args in panel_calls] == [None]
    assert evaluations[0] == 1 + panel_evaluations[0]
    # integral over [0, pi] of e^{cos t} cos nt is pi I_n(1)
    with mp.workprec(bits + 64):
        want = {n: mp.pi * mp.besseli(n, 1) for n in range(n_max + 1)}
    _assert_agree(dict(enumerate(got)), want, bits)


def test_non_finite_node_values_raise():
    W = 128 + quadrature.GUARD
    for value in (mp.inf, -mp.inf, mp.nan):
        with pytest.raises(quadrature.AccuracyError) as err:
            quadrature._fixed(value, W)
        assert err.value.achieved is None
    # on the panels nothing catches it, so the CLI exits with code 3
    with mp.workprec(160):
        panels = [(mp.mpf(0), +mp.pi)]
    with pytest.raises(quadrature.AccuracyError, match="nan at node t = "):
        quadrature.trig_transform(lambda t: mp.nan, panels, 3, 128, "cos")


def test_acceptance_2_set_checks_only_the_exp_profile(monkeypatch, count_calls):
    # the moment-backed hp identities at nmax 10 on fresh symbols: every
    # table takes the trapezoid, and only the two tables of the lambda-built
    # exp profile (its moments and its half-angle lift) run the panel rule,
    # one level each, as their check.  Each twin is built once, so it has
    # one moment table and one skew table, which moment_skew_square and
    # pfaffian_link share; the skew table takes the U kernel on the
    # trapezoid, from the twin's own integrand
    exp_cos = _exp_cos()
    cos_sym = _cos_sym()
    image = th_to_moment_symbol
    panel_calls, panel_evaluations = count_calls(monkeypatch, "_panel_quadrature")
    trig_calls, _ = count_calls(monkeypatch, "trig_transform")
    moment_calls, _ = count_calls(monkeypatch, "cospower_transform")
    hp = {"mode": "hp", "bits": 256}
    reports = [
        identities.verify(IdentityKind.THvsMoment, exp_cos, 10, **hp),
        identities.verify(IdentityKind.THvsMoment, cos_sym, 10, **hp),
        identities.verify(IdentityKind.MomentSkewSquare, image(exp_cos), 10, **hp),
        identities.verify(IdentityKind.MomentSkewSquare, image(cos_sym), 10, **hp),
        identities.verify(IdentityKind.MomentToToeplitz, _exp_x2("sqrt_ratio"), 10, **hp),
        identities.verify(IdentityKind.MomentToToeplitz, _sqrt_ratio_x2(), 10, **hp),
        identities.pfaffian_link(image(exp_cos), 10, bits=256),
        identities.pfaffian_link(image(cos_sym), 10, bits=256),
    ]
    assert all(rep.passed for rep in reports)
    assert sorted(args[7] for args in panel_calls) == ["moment transform", "trig transform"]
    assert all(args[9] is not None for args in panel_calls)
    assert panel_evaluations[0] == 2 * quadrature._gl_order(256)
    assert [args[4] for args in trig_calls if args[1] is not None] == []
    assert [args[4] for args in trig_calls if args[4] == "u" and args[1] is None] == ["u"] * 2
    # the two twins, the exp profile and the polynomial profile
    assert len(moment_calls) == 4


def test_high_band_exponential_stays_on_the_trapezoid(monkeypatch, count_calls):
    # e^{0.2 cos 32t} needs 2,048 nodes per 2pi at 128 bits, past the panel
    # rule's first two levels; its levels converge spectrally, so the
    # trapezoid goes on instead of handing the table to the panels
    panel_calls, _ = count_calls(monkeypatch, "_panel_quadrature")
    _, evaluations = count_calls(monkeypatch, "_trapezoid_quadrature")
    got = _exp_cos32().coeff_table(-5, 5, 128)
    assert panel_calls == []
    assert _budget(37, float(mp.pi), 128) < evaluations[0] == 2048 // 2 + 1
    with mp.workprec(192):
        i0 = mp.besseli(0, mp.mpf(0.2))
        assert abs(got[0] - i0) <= mp.mpf(2) ** -116, mp.nstr(got[0] - i0, 5)


def _forbidden(*args, **kwargs):
    raise AssertionError("a skew table must come from its symbol's own integrand")


@pytest.mark.parametrize("bits, n_max", [(256, 19), (512, 63)])
@pytest.mark.parametrize("case", sorted(SKEW_ROUTED))
def test_skew_table_takes_the_u_kernel(monkeypatch, count_calls, case, bits, n_max):
    skew = moment_to_skew_symbol(SKEW_ROUTED[case]())
    with monkeypatch.context() as m:
        panel_calls, _ = count_calls(m, "_panel_quadrature")
        m.setattr(quadrature, "cospower_transform", _forbidden)
        m.setattr(MomentSymbol, "moment_table", _forbidden)
        m.setattr(transforms, "c_to_b", _forbidden)
        m.setattr(transforms, "a_to_b", _forbidden)
        got = skew.coeff_table(-n_max, n_max, bits)
        # an unknown band costs one panel run: the check of the trapezoid's sums
        checks = [args[9] is not None for args in panel_calls]
        assert checks == ([True] if case == "lambda" else [])
    assert got[0] == 0 and all(got[-n] + got[n] == 0 for n in range(1, n_max + 1))
    # today's route: the same Chi times lift product, on the panels
    _assert_agree(got, SymbolProduct(skew.factors).coeff_table(-n_max, n_max, bits), bits)


@pytest.mark.parametrize("case", sorted(SKEW_PANELS))
def test_other_skew_tables_keep_the_panels(monkeypatch, count_calls, case):
    trapezoid_calls, _ = count_calls(monkeypatch, "_trapezoid_quadrature")
    panel_calls, _ = count_calls(monkeypatch, "_panel_quadrature")
    skew = moment_to_skew_symbol(SKEW_PANELS[case]())
    skew.coeff_table(-5, 5, 128)
    assert trapezoid_calls == [] and len(panel_calls) == 1


def test_u_kernel_shifted_to_u_n_fails_moment_skew_square(monkeypatch):
    # U_n(cos t) in place of U_{n-1}(cos t) for n >= 1, c_0 = 0 kept
    def check():
        b = _poly("sqrt_ratio")
        return identities.verify(IdentityKind.MomentSkewSquare, b, 6, mode="hp", bits=128)

    assert check().passed
    real = quadrature.trig_transform

    def shifted(f, panels, n_max, bits, kind, band=0):
        if kind != "u":
            return real(f, panels, n_max, bits, kind, band)
        raw = real(f, panels, n_max + 1, bits, kind, band)
        return raw[:1] + raw[2:]

    monkeypatch.setattr(quadrature, "trig_transform", shifted)
    assert not check().passed


# family -> (table, the transform it runs, the driver it runs on); None for
# a closed form, which runs no quadrature at all, and "checked" for the
# trapezoid whose sums the panel rule checks
ROUTES = {
    "coeff_seq": (_coeffs(_cos_sym), None, None),
    "chi": (_coeffs(Chi), None, None),
    "jump_t": (_coeffs(lambda: JumpT(Fraction(-1, 2))), None, None),
    "fh_real": (_coeffs(_exp_cos), "cos", "trapezoid"),
    "arg_doubled_fh": (_coeffs(lambda: ArgDoubled(_exp_cos())), "cos", "trapezoid"),
    "halved_arg_fh": (
        _coeffs(lambda: HalvedArg(FHProduct(FHDescriptor({2: 0.1, -2: 0.1})))),
        "cos",
        "trapezoid",
    ),
    "halfangle_poly": (_coeffs(lambda: moment_to_halfangle(_poly("one"))), "cos", "trapezoid"),
    "fh_mirrored_imaginary_jumps": (
        _coeffs(lambda: _exp_cos(((1.0, 0.2j), (JumpPoint(2, -1.0), -0.2j)))),
        "cos",
        "panels",
    ),
    "halfangle_exp": (_coeffs(lambda: moment_to_halfangle(_exp_x2("one"))), "cos", "checked"),
    "closed_form_odd_i": (_coeffs(_odd_closed_form), "sin", "trapezoid"),
    "chi_fh": (_coeffs(lambda: SymbolProduct((Chi(), _exp_cos()))), "sin", "panels"),
    "skew_poly_one": (_coeffs(lambda: moment_to_skew_symbol(_poly("one"))), "sin", "panels"),
    "skew_exp_sqrt_ratio": (
        _coeffs(lambda: moment_to_skew_symbol(_exp_x2("sqrt_ratio"))),
        "u",
        "checked",
    ),
    "skew_poly_sqrt_ratio": (
        _coeffs(lambda: moment_to_skew_symbol(_poly("sqrt_ratio"))),
        "u",
        "trapezoid",
    ),
    # the same factors in a product of their own: not a skew symbol, so no U kernel
    "chi_lift_poly_sqrt_ratio": (
        _coeffs(lambda: SymbolProduct(moment_to_skew_symbol(_poly("sqrt_ratio")).factors)),
        "sin",
        "panels",
    ),
    "fh_complex": (
        _coeffs(lambda: FHProduct(FHDescriptor({1: complex(0.1, 0.05), -1: 0.15}))),
        "circle",
        "trapezoid",
    ),
    "fh_one_jump": (_coeffs(lambda: _exp_cos(((1.0, 0.25),))), "circle", "panels"),
    "jump_t_fh": (
        _coeffs(lambda: SymbolProduct((JumpT(Fraction(-1, 2)), _exp_cos()))),
        "circle",
        "panels",
    ),
    "closed_form_opaque": (
        _coeffs(lambda: ClosedFormSymbol(lambda th: mp.exp(mp.mpf(0.1) * mp.expj(th)))),
        "circle",
        "checked",
    ),
    "skew_complex_poly": (
        _coeffs(
            lambda: moment_to_skew_symbol(
                MomentSymbol.from_poly({0: 1, 2: complex(0, 0.5)}, "sqrt_ratio")
            )
        ),
        "circle",
        "panels",
    ),
    "poly_sqrt_ratio_moments": (_moments(lambda: _poly("sqrt_ratio")), "cospower", "trapezoid"),
    "pullback_fh": (
        _moments(lambda: th_to_moment_symbol(_exp_cos())),
        "cospower",
        "trapezoid",
    ),
    "poly_one_moments": (_moments(lambda: _poly("one")), "cospower", "panels"),
    "sqrt_ratio_cut_moments": (
        _moments(
            lambda: MomentSymbol.from_poly({0: 1, 2: Fraction(1, 2)}, "sqrt_ratio", jumps=(0.25,))
        ),
        "cospower",
        "panels",
    ),
    "exp_sqrt_ratio_moments": (_moments(lambda: _exp_x2("sqrt_ratio")), "cospower", "checked"),
}


@pytest.mark.parametrize("family", sorted(ROUTES))
def test_each_family_takes_its_route(monkeypatch, count_calls, family):
    # the route contract: which transform builds each family's table, and
    # on which driver; a trapezoid that fell back would show both drivers,
    # and so does a checked one, whose panel rule gets the trapezoid's sums
    table, transform, driver = ROUTES[family]
    trig_calls, _ = count_calls(monkeypatch, "trig_transform")
    cospower_calls, _ = count_calls(monkeypatch, "cospower_transform")
    circle_calls, _ = count_calls(monkeypatch, "circle_coeffs")
    trapezoid_calls, _ = count_calls(monkeypatch, "_trapezoid_quadrature")
    panel_calls, _ = count_calls(monkeypatch, "_panel_quadrature")
    table(128)
    transforms_run = (
        [args[4] for args in trig_calls]
        + ["cospower"] * len(cospower_calls)
        + ["circle"] * len(circle_calls)
    )
    drivers = ["trapezoid"] * len(trapezoid_calls) + ["panels"] * len(panel_calls)
    assert transforms_run == ([transform] if transform else [])
    if driver == "checked":
        assert drivers == ["trapezoid", "panels"] and panel_calls[0][9] is not None
    else:
        assert drivers == ([driver] if driver else [])
