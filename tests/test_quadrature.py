import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdet
from sdet import quadrature
from sdet.quadrature import (
    GUARD,
    SLACK,
    AccuracyError,
    circle_coeffs,
    circle_coeffs_periodic,
    cospower_transform,
    gauss_legendre_rule,
    trig_transform,
)
from sdet.scalars import to_mp
from sdet.symbols import JumpT


# (order, precision) pairs the quadrature builds: _gl_order(bits) at bits + GUARD
# for bits = 128, 256, 320 and 512
@pytest.mark.parametrize("order, prec", [(48, 160), (85, 288), (106, 352), (170, 544)])
def test_gauss_legendre_rule(order, prec):
    nodes, weights = gauss_legendre_rule(order, prec)
    assert len(nodes) == len(weights) == order
    assert all(a < b for a, b in zip(nodes, nodes[1:]))
    assert all(w == v for w, v in zip(weights, reversed(weights)))
    with mp.workprec(prec + 40):
        assert all(x == -y for x, y in zip(nodes, reversed(nodes)))
        tol = mp.mpf(2) ** (-(prec - 8))
        assert abs(mp.fsum(weights) - 2) < tol
        # exact for every polynomial of degree <= 2 order - 1
        for k in range(order):
            got = mp.fsum(w * x ** (2 * k) for x, w in zip(nodes, weights))
            assert abs(got - mp.mpf(2) / (2 * k + 1)) < tol
    # an independent check at twice the precision: each node is within
    # 2^-(prec+20) of the root mpf Newton reaches from it (two steps square
    # that error past 2 prec), and each weight is 2 / ((1-x^2) P'(x)^2)
    with mp.workprec(2 * prec):
        for x, w in zip(nodes, weights):
            root = x
            for _ in range(2):
                p, dp = quadrature._legendre(root, order)
                root -= p / dp
            assert abs(root - x) < mp.mpf(2) ** (-(prec + 20))
            _, dp = quadrature._legendre(x, order)
            exact = 2 / ((1 - x * x) * dp * dp)
            assert abs(w - exact) < exact * mp.mpf(2) ** (-(prec + 16))


@pytest.mark.parametrize(
    "seed, message",
    [
        # root 2's seed is root 3's, so Newton lands on root 3 twice
        (lambda real, k, order: real(k + (k == 2), order), "not strictly decreasing"),
        # from 2, Newton creeps toward root 1 by ~(x^2-1)/(order x) a step
        (lambda real, k, order: 2.0 if k == 3 else real(k, order), "did not converge"),
    ],
    ids=["neighbour", "no_convergence"],
)
def test_gauss_legendre_rule_raises_on_a_bad_seed(monkeypatch, seed, message):
    real = quadrature._float_root
    monkeypatch.setattr(quadrature, "_rules", {})
    monkeypatch.setattr(quadrature, "_float_root", lambda k, order: seed(real, k, order))
    with pytest.raises(AccuracyError, match=message):
        gauss_legendre_rule(48, 160)
    assert quadrature._rules == {}


def test_gauss_legendre_rule_evaluations_per_root(monkeypatch):
    # Newton from float seeds doubles its bits per step, so five evaluations
    # per positive root reach 2^-564; the weights reuse the last one's P'
    calls = [0]
    real = quadrature._legendre_fixed

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(quadrature, "_rules", {})
    monkeypatch.setattr(quadrature, "_legendre_fixed", counted)
    gauss_legendre_rule(170, 544)
    assert calls[0] <= 7 * 85


def test_import_leaves_numpy_out():
    src = str(Path(sdet.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, %r); import sdet; print('numpy' in sys.modules)" % src
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# -- transforms against exact references ---------------------------------------
#
# Each case must agree with its exact value to 2^-(bits-SLACK) relative to
# max(sup, 1), the accuracy the transforms promise.  n_max 255 at 512 bits is
# where the growth of the recurrences and of the powers (2 cos t)^(n-1) bites;
# every kernel runs there once.  circle_coeffs shares its rotation kernel with
# circle_coeffs_periodic and is by far the slowest case at that size, so it
# runs at n_max 19 only.


def _assert_close(got, want, bits):
    with mp.workprec(bits + 64):
        sup = max([abs(w) for w in want.values()] + [mp.mpf(1)])
        tol = mp.mpf(2) ** (-(bits - SLACK)) * sup
        bad = {n: abs(got[n] - w) for n, w in want.items() if abs(got[n] - w) > tol}
    worst = max(bad, key=bad.get) if bad else None
    assert not bad, "%d of %d indices off, worst at %s" % (len(bad), len(want), worst)


def _half_circle_panels(bits):
    with mp.workprec(bits + GUARD):
        return [(mp.mpf(0), mp.mpf(1)), (mp.mpf(1), +mp.pi)]


def _trig_poly(n_max):
    """Rational coefficients on a sparse set of degrees up to n_max."""
    degrees = sorted({0, 1, 7, n_max // 2, n_max})
    return {k: Fraction((-1) ** k * (k + 3), 2 * k + 5) for k in degrees}


def _series(a, basis):
    """t -> sum_k a_k basis(k t)."""
    return lambda t: mp.fsum(to_mp(v, mp.mp.prec) * basis(k * t) for k, v in a.items())


def _check_trig(a, panels, n_max, bits, kind):
    # integral_0^pi (sum_k a_k trig(kt)) trig(nt) dt = pi a_n / 2 (pi a_0 for cos at n = 0);
    # kind u integrates (sum_k a_k sin(kt)) sin t against U_{n-1}(cos t) = sin(nt) / sin t
    if kind != "cos":
        a.pop(0, None)
    series = _series(a, mp.cos if kind == "cos" else mp.sin)
    f = (lambda t: series(t) * mp.sin(t)) if kind == "u" else series
    got = trig_transform(f, panels, n_max, bits, kind)
    with mp.workprec(bits + 64):
        want = {n: mp.pi * a.get(n, 0) / (1 if n == 0 else 2) for n in range(n_max + 1)}
    _assert_close(got, want, bits)


@pytest.mark.parametrize(
    "kind, n_max, bits", [("cos", 19, 256), ("sin", 19, 256), ("u", 19, 256), ("cos", 255, 512)]
)
def test_trig_transform_on_trig_polynomials(kind, n_max, bits):
    _check_trig(_trig_poly(n_max), _half_circle_panels(bits), n_max, bits, kind)


@pytest.mark.parametrize(
    "kind, n_max, bits", [("cos", 19, 256), ("sin", 19, 256), ("u", 19, 256), ("cos", 255, 512)]
)
def test_trig_transform_trapezoid_on_trig_polynomials(kind, n_max, bits):
    # panels None: the half-range trapezoid, exact here once it resolves the degree
    _check_trig(_trig_poly(n_max), None, n_max, bits, kind)


@pytest.mark.parametrize(
    "weight, n_max, bits", [("sin", 19, 256), ("one_plus_cos", 19, 256), ("sin", 255, 512)]
)
def test_cospower_transform_on_polynomials(weight, n_max, bits):
    _check_cospower(weight, _half_circle_panels(bits), n_max, bits)


@pytest.mark.parametrize("weight, n_max, bits", [("one_plus_cos", 19, 256), ("one_plus_cos", 255, 512)])
def test_cospower_transform_trapezoid_on_polynomials(weight, n_max, bits):
    _check_cospower(weight, None, n_max, bits)


def _check_cospower(weight, panels, n_max, bits):
    # f(t) = p(cos t) w(t) with p(x) = sum_k c_k x^k; for even m the Wallis
    # integrals are integral_0^pi cos^m t sin t dt = 2/(m+1) and
    # integral_0^pi cos^m t dt = pi binom(m, m/2) / 2^m, and both vanish for odd m
    c = {0: Fraction(1, 3), 1: Fraction(-2, 5), 4: Fraction(7, 4)}

    def cos_power(m):
        return 0 if m % 2 else mp.pi * Fraction(math.comb(m, m // 2), 2**m)

    def wallis(m):
        # integral_0^pi cos^m t w(t) dt
        if weight == "sin":
            return 0 if m % 2 else Fraction(2, m + 1)
        return cos_power(m) + cos_power(m + 1)

    def f(t):
        ct = mp.cos(t)
        p = mp.fsum(to_mp(v, mp.mp.prec) * ct**k for k, v in c.items())
        return p * (mp.sin(t) if weight == "sin" else 1 + ct)

    got = cospower_transform(f, panels, n_max, bits)
    assert got[0] is None
    with mp.workprec(bits + 64):
        want = {
            n: mp.fsum(2 ** (n - 1) * v * wallis(k + n - 1) for k, v in c.items())
            for n in range(1, n_max + 1)
        }
    _assert_close(got, want, bits)


@pytest.mark.parametrize("beta", [Fraction(3, 10), complex(-0.25, 0.125)])
def test_circle_coeffs_on_jump_t(beta):
    n_max, bits = 19, 256
    a = JumpT(beta)
    with mp.workprec(bits + GUARD):
        panels = [(mp.mpf(0), 2 * mp.pi)]
        got = circle_coeffs(a.eval_at, panels, -n_max, n_max, bits)
    want = {n: a.closed_coeff(n, bits + 64) for n in range(-n_max, n_max + 1)}
    _assert_close(got, want, bits)


@pytest.mark.parametrize("n_max, bits", [(19, 256), (255, 512)])
def test_circle_coeffs_periodic_on_complex_trig_polynomial(n_max, bits):
    c = {
        k: complex(Fraction(k + 2, 7), Fraction(1 - k, 3))
        for k in sorted({-n_max, -3, 0, 1, 5, n_max // 2, n_max})
    }
    got = circle_coeffs_periodic(_series(c, mp.expj), -n_max, n_max, bits)
    assert sorted(got) == list(range(-n_max, n_max + 1))
    with mp.workprec(bits + 64):
        want = {n: mp.mpc(c.get(n, 0)) for n in range(-n_max, n_max + 1)}
    _assert_close(got, want, bits)


coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["cos", "sin", "u"]),
    a=st.dictionaries(st.integers(0, 12), coefficients, min_size=1, max_size=5),
    n_max=st.integers(1, 16),
    cut=st.fractions(min_value=Fraction(1, 8), max_value=3, max_denominator=16),
)
def test_trig_transform_property(kind, a, n_max, cut):
    bits = 128
    with mp.workprec(bits + GUARD):
        x = to_mp(cut, bits + GUARD)
        panels = [(mp.mpf(0), x), (x, +mp.pi)]
    _check_trig(a, panels, n_max, bits, kind)


def test_unsplit_jump_raises_accuracy_error(monkeypatch):
    # a step at t = 1 inside the one panel: Gauss-Legendre converges only
    # like the subpanel width, so the doubling runs out (capped here to stay fast)
    monkeypatch.setattr(quadrature, "_MAX_SUBPANELS", 32)
    bits = 64
    with mp.workprec(bits + GUARD):
        panels = [(mp.mpf(0), +mp.pi)]
    with pytest.raises(AccuracyError) as err:
        trig_transform(lambda t: 1 if t < 1 else 0, panels, 3, bits, "cos")
    achieved = err.value.achieved
    assert isinstance(achieved, mp.mpf)
    assert achieved > mp.mpf(2) ** (-(bits - SLACK))


def test_stalled_panel_levels_raise_early(monkeypatch):
    # log(1 - x) on the sqrt_ratio weight has a log singularity at t = 0, so
    # each doubling of the panel rule gains one bit: 2^16 subpanels cannot
    # reach 2^-(bits-SLACK), and the rule gives up after STALL_LEVELS levels
    # that show it, rather than doubling on for minutes
    from sdet.symbols import MomentSymbol

    levels = []
    level_sums = quadrature._level_sums

    def counted(acc, scale, cplx):
        levels.append(len(acc))
        return level_sums(acc, scale, cplx)

    monkeypatch.setattr(quadrature, "_level_sums", counted)
    sym = MomentSymbol(lambda x: mp.log(1 - x) + 3, weight="sqrt_ratio")
    with pytest.raises(AccuracyError, match="stalled at 128 bits") as err:
        sym.moment_table(6, 128)
    # two levels give the first agreement, one more the first gain
    assert len(levels) == 2 + quadrature.STALL_LEVELS
    assert mp.mpf(2) ** -16 < err.value.achieved < mp.mpf(2) ** -8


def _levels(exponents):
    """Level sums [1 + 2^-e] for each e: level k agrees with level k - 1 to
    about 2^-min(e)."""
    return ([mp.mpf(1) + mp.mpf(2) ** -e] for e in exponents)


@pytest.mark.parametrize(
    "exponents, stalls",
    [
        # algebraic: one bit per doubling
        ([4 + k for k in range(17)], True),
        # a slow start that speeds up, as near a singularity off the panel
        ([10, 17, 24, 33, 45, 59, 78, 100, 123, 150, 180], False),
    ],
)
def test_stall_rule(exponents, stalls):
    bits = 128
    seen = []
    levels = (seen.append(s) or s for s in _levels(exponents))
    if stalls:
        with pytest.raises(AccuracyError, match="stalled"):
            quadrature._first_agreement(levels, bits, "test", count=17)
        assert len(seen) == 2 + quadrature.STALL_LEVELS
    else:
        assert quadrature._first_agreement(levels, bits, "test", count=17) == seen[-1]
