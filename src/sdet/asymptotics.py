"""Large-N determinant behavior: constants, factorizations, fits, studies.

The growth model throughout is det ~ F^N * N^Omega * E.  Constants come
from closed forms evaluated at working precision, over zeta values and the
Glaisher constant that mpmath gives (zeta_int, glaisher_constant); the
Barnes G-values themselves are built here, by two independent routes
(barnes_constants, g_half_series).  barnes_constants keeps its constants
per bits for the process, as quadrature keeps its Gauss-Legendre rules, so
a study at bits already seen reuses them.

Each study kind is one _Study row of _STUDIES, and study() runs any row
the same way: determinants, ratios, compensation, extrapolation, fits,
report.  Row builders call predict_* and barnes_constants by their module
names, so rebinding a name (as perfbench's tracer does) sees every call.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath as mp

from . import matrices, symbols
from .determinants import leading_minors
from .quadrature import SLACK, AccuracyError
from .scalars import format_scalar, to_mp
from .symbols import ArgDoubled, FHDescriptor, FHProduct, JumpT, MomentSymbol, SpeciesError


REPORT_DIGITS = 30


# -- zeta values and the Glaisher constant --------------------------------


def zeta_int(s: int, wp: int):
    """zeta(s) for integer s >= 2, mpmath's value at wp bits."""
    if s < 2:
        raise ValueError("only s >= 2 is supported")
    with mp.workprec(wp):
        return mp.zeta(s)


# 50-digit reference for the Glaisher-Kinkelin constant; the library value
# must land on it or mpmath's constant is not what this module assumes
_GLAISHER_REF = "1.2824271291006226368753425688697917277676889273250"


def glaisher_constant(bits: int):
    """The Glaisher-Kinkelin constant A: mpmath's, checked against _GLAISHER_REF."""
    with mp.workprec(bits + 32):
        a = +mp.glaisher
        agree_digits = min(48, max(10, int(bits * 0.301) - 2))
        if abs(a - mp.mpf(_GLAISHER_REF)) > mp.mpf(10) ** (-agree_digits):
            raise AccuracyError(
                "computed constant disagrees with the stored reference"
            )
    with mp.workprec(bits):
        return +a


@dataclass(frozen=True)
class BarnesConstants:
    G_half: object
    G_three_half: object
    pair_product: object
    pair_product_sq: object
    bits: int


_barnes: dict = {}
_barnes_lock = threading.Lock()


def barnes_constants(bits: int) -> BarnesConstants:
    """G at 1/2 and 3/2 by the closed product 2^{1/24} e^{1/8} pi^{-1/4} A^{-3/2}.

    G(3/2) follows from the recurrence G(z+1) = Gamma(z) G(z), which at
    z = 1/2 reads G(3/2) = sqrt(pi) * G(1/2).  Kept per bits for the
    process, as quadrature keeps its Gauss-Legendre rules, so the check of
    the Glaisher constant against _GLAISHER_REF runs on the first call at
    each bits.
    """
    if bits < 64:
        raise ValueError("bits must be >= 64")
    with _barnes_lock:
        hit = _barnes.get(bits)
    if hit is not None:
        return hit
    wp = bits + 32
    a = glaisher_constant(wp)
    with mp.workprec(wp):
        g_half = (
            mp.mpf(2) ** (mp.mpf(1) / 24)
            * mp.exp(mp.mpf(1) / 8)
            * mp.pi ** (-mp.mpf(1) / 4)
            * a ** (-mp.mpf(3) / 2)
        )
        g_three = mp.sqrt(mp.pi) * g_half
        pair = g_half * g_three
        pair_sq = pair * pair
    with mp.workprec(bits):
        consts = BarnesConstants(+g_half, +g_three, +pair, +pair_sq, bits)
    with _barnes_lock:
        return _barnes.setdefault(bits, consts)


def g_half_series(bits: int):
    """Independent route to G(1/2): the log-G Taylor series at z = -1/2.

    log G(1+z) = (z/2) log(2pi) - z(z+1)/2 - (gamma/2) z^2
                 + sum_{k>=3} (-1)^{k-1} zeta(k-1) z^k / k.
    """
    if bits < 64:
        raise ValueError("bits must be >= 64")
    wp = bits + 48
    kmax = wp + 16
    zetas = {k: zeta_int(k, wp) for k in range(2, kmax + 1)}
    with mp.workprec(wp):
        z = -mp.mpf(1) / 2
        total = (z / 2) * mp.log(2 * mp.pi) - z * (z + 1) / 2 - mp.euler * z * z / 2
        zpow = z * z
        for k in range(3, kmax + 1):
            zpow *= z
            total += (-1) ** (k - 1) * zetas[k - 1] * zpow / k
        g = mp.exp(total)
    with mp.workprec(bits):
        return +g


# -- factor data and predictions ------------------------------------------


@dataclass(frozen=True)
class FHPrediction:
    F: object
    Omega: object
    ratio_coefficient: object
    exponent_of_N: object
    E_estimated: object = None

    def to_json(self):
        def fmt(x):
            return None if x is None else format_scalar(x, REPORT_DIGITS)

        return {
            "F": fmt(self.F),
            "Omega": fmt(self.Omega),
            "ratio_coefficient": fmt(self.ratio_coefficient),
            "exponent_of_N": fmt(self.exponent_of_N),
            "E_estimated": fmt(self.E_estimated),
        }


def wh_factors(desc: FHDescriptor, theta, accuracy=None, bits: int | None = None):
    """One-sided factor values (d0_plus, d0_minus, d_plus, d_minus) at theta.

    d0_pm = exp(sum_{k>=1} l_{pm k} e^{pm i k theta}); the full factors
    append (1 - e^{pm i(theta - theta_r)})^{pm beta_r} with the principal
    branch.  theta must avoid every jump location.
    """
    bits = symbols._bits_from_accuracy(accuracy, bits)
    wp = bits + 32
    with mp.workprec(wp):
        th = to_mp(theta, wp)
        if isinstance(th, mp.mpc):
            raise TypeError("theta must be real")
        locs = [p.to_mpf() for p in desc.points]
        for loc in locs:
            d = (th - loc) / (2 * mp.pi)
            if abs(d - mp.nint(d)) * 2 * mp.pi < mp.mpf(2) ** (-(bits // 2)):
                raise symbols.JumpError("theta coincides with the jump at %s" % mp.nstr(loc, 8))
        d0p = mp.mpc(0)
        d0m = mp.mpc(0)
        for k, v in desc.log_smooth.items():
            if k > 0:
                d0p += to_mp(v, wp) * mp.expj(k * th)
            elif k < 0:
                d0m += to_mp(v, wp) * mp.expj(k * th)
        d0p = mp.exp(d0p)
        d0m = mp.exp(d0m)
        dp, dm = d0p, d0m
        for loc, (_, beta) in zip(locs, desc.jumps):
            b = to_mp(beta, wp)
            rel = th - loc
            dp *= mp.power(1 - mp.expj(rel), b)
            dm *= mp.power(1 - mp.expj(-rel), -b)
    with mp.workprec(bits):
        return (+d0p, +d0m, +dp, +dm)


def _as_real_if_clean(v, bits):
    """v's real part when its imaginary part is rounding, at most 2^-(bits-SLACK) |v|."""
    if isinstance(v, mp.mpc) and abs(v.imag) <= mp.mpf(2) ** (SLACK - bits) * abs(v):
        return v.real
    return v


def predict_szego_fh(desc: FHDescriptor, bits: int = 256) -> FHPrediction:
    """Growth data (F, Omega) read off the descriptor alone."""
    wp = bits + 32
    with mp.workprec(wp):
        l0 = to_mp(desc.log_smooth.get(0, 0), wp)
        F = mp.exp(l0)
        Omega = mp.mpf(0)
        for _, beta in desc.jumps:
            b = to_mp(beta, wp)
            Omega = Omega - b * b
    with mp.workprec(bits):
        return FHPrediction(
            F=_as_real_if_clean(+F, bits),
            Omega=_as_real_if_clean(+Omega, bits),
            ratio_coefficient=None,
            exponent_of_N=_as_real_if_clean(+Omega, bits),
        )


def predict_half_jump_ratio(desc: FHDescriptor, sign, bits: int = 256) -> FHPrediction:
    """Coefficient and exponent for det T_N(t_s d)/det T_N(d), s = +-1/2.

    The exponent of N is -1/4; the coefficient is
    G(1/2) G(3/2) d_plus(1)^s d_minus(1)^{-s}.
    """
    s = Fraction(sign)
    if s not in (Fraction(1, 2), Fraction(-1, 2)):
        raise ValueError("sign must be +1/2 or -1/2")
    bc = barnes_constants(bits + 32)
    _, _, dp, dm = wh_factors(desc, 0, bits=bits + 32)
    wp = bits + 32
    with mp.workprec(wp):
        se = to_mp(s, wp)
        coeff = bc.pair_product * mp.power(dp, se) * mp.power(dm, -se)
    with mp.workprec(bits):
        return FHPrediction(
            F=mp.mpf(1),
            Omega=Fraction(-1, 4),
            ratio_coefficient=_as_real_if_clean(+coeff, bits),
            exponent_of_N=Fraction(-1, 4),
        )


def predict_cor53(bits: int = 256) -> FHPrediction:
    """Limit data for the skewsymmetrized ratio: exponent -1/2, pi G(1/2)^4."""
    bc = barnes_constants(bits + 32)
    with mp.workprec(bits + 32):
        coeff = mp.pi * bc.G_half ** 4
    with mp.workprec(bits):
        return FHPrediction(
            F=mp.mpf(1),
            Omega=Fraction(-1, 2),
            ratio_coefficient=+coeff,
            exponent_of_N=Fraction(-1, 2),
        )


def predict_conjecture_constants(bits: int = 256):
    """(E1, E2) = (2^{-1/2}, 2^{-1/2}) for symbols with a(1/t) = a(t)."""
    with mp.workprec(bits):
        r = 1 / mp.sqrt(2)
        return (+r, +r)


# -- fitting and extrapolation --------------------------------------------


@dataclass(frozen=True)
class FitResult:
    F: object
    Omega: object
    E: object
    residuals: tuple
    N_used: tuple

    def to_json(self):
        return {
            "F": format_scalar(self.F, REPORT_DIGITS),
            "Omega": format_scalar(self.Omega, REPORT_DIGITS),
            "E": format_scalar(self.E, REPORT_DIGITS),
            "max_residual": format_scalar(max((abs(r) for r in self.residuals), default=mp.mpf(0)), 6),
        }


def fit_asymptote(data, bits: int = 256) -> FitResult:
    """Least squares for log|det| = N log F + Omega log N + log|E|.

    Needs at least four points over at least three distinct N, none zero.
    Real data must carry one common sign; complex data is fitted on moduli.
    """
    pts = [(int(n), v) for n, v in data]
    if len(pts) < 4:
        raise ValueError("at least 4 data points are required")
    if len({n for n, _ in pts}) < 3:
        raise ValueError("at least 3 distinct N are required")
    wp = bits + 32
    with mp.workprec(wp):
        vals = [to_mp(v, wp) for _, v in pts]
        if any(v == 0 for v in vals):
            raise ValueError("zero determinant in fit data")
        signs = set()
        for v in vals:
            if isinstance(v, mp.mpc):
                if v.imag == 0:
                    signs.add(1 if v.real > 0 else -1)
            else:
                signs.add(1 if v > 0 else -1)
        if len(signs) > 1:
            raise ValueError("fit data must not change sign")
        sign = signs.pop() if signs else 1
        xs = [(mp.mpf(n), mp.log(mp.mpf(n)), mp.mpf(1)) for n, _ in pts]
        ys = [mp.log(abs(v)) for v in vals]
        try:
            # least squares: lu_solve forms and solves the normal equations
            logF, omega, logE = mp.lu_solve(mp.matrix(xs), mp.matrix(ys))
        except (ValueError, ZeroDivisionError):
            raise ValueError("ill-conditioned fit") from None
        resid = tuple(
            y - (logF * row[0] + omega * row[1] + logE) for row, y in zip(xs, ys)
        )
        F = mp.exp(logF)
        E = sign * mp.exp(logE)
    with mp.workprec(bits):
        return FitResult(
            +F, +omega, +E, tuple(+r for r in resid), tuple(n for n, _ in pts)
        )


def extrapolate_limit(pairs, bits: int = 256):
    """Neville extrapolation of (N, value) data to N = infinity, in 1/N.

    Returns (limit, error_estimate); the estimate is the spread of the
    last two table columns.
    """
    pts = sorted(((int(n), v) for n, v in pairs), key=lambda p: p[0])
    if len(pts) < 2:
        raise ValueError("at least 2 points are required")
    with mp.workprec(bits + 32):
        xs = [mp.mpf(1) / n for n, _ in pts]
        tab = [to_mp(v, bits + 32) for _, v in pts]
        m = len(tab)
        prev_top = tab[0]
        for level in range(1, m):
            prev_top = tab[0]
            for i in range(m - level):
                x_i, x_j = xs[i], xs[i + level]
                tab[i] = (x_i * tab[i + 1] - x_j * tab[i]) / (x_i - x_j)
        limit = tab[0]
        err = abs(limit - prev_top)
        if m > 2:
            err = err + abs(limit - tab[1])
    with mp.workprec(bits):
        return (+limit, +err)


# -- study driver ----------------------------------------------------------


@dataclass
class AsymptoticsReport:
    kind: str
    N_list: list
    det_values: list
    compensated_values: list
    prediction: dict
    fitted: dict
    extrapolated_limit: str
    verdict: str
    flags: list
    bits: int

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "N_list": list(self.N_list),
            "det_values": list(self.det_values),
            "compensated_values": list(self.compensated_values),
            "prediction": self.prediction,
            "fitted": self.fitted,
            "extrapolated_limit": self.extrapolated_limit,
            "verdict": self.verdict,
            "flags": list(self.flags),
            "bits": self.bits,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=False) + "\n"

    def to_csv(self) -> str:
        lines = ["N,value,compensated"]
        for n, v, c in zip(self.N_list, self.det_values, self.compensated_values):
            lines.append("%d,%s,%s" % (n, v, c))
        return "\n".join(lines) + "\n"

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"


def _real_dets(M, orders, bits):
    """Leading-block determinants forced real; a genuinely complex one is a SpeciesError."""
    out = []
    for res in leading_minors(M, orders, bits):
        v = res.value
        if isinstance(v, mp.mpc):
            with mp.workprec(bits + 32):
                if abs(v.imag) > mp.mpf("1e-10") * max(abs(v), mp.mpf("1e-300")):
                    raise SpeciesError(
                        "expected a real determinant, got %s" % mp.nstr(v, 12)
                    )
            v = v.real
        out.append(v)
    return out


def _double_fit(data, bits):
    """Whole-range and tail fits; the tail suppresses pre-asymptotic bias."""
    out = {}
    try:
        out["whole"] = fit_asymptote(data, bits).to_json()
    except ValueError as exc:
        out["whole"] = {"error": str(exc)}
    tail = data[max(0, len(data) - max(4, (len(data) + 1) // 2)):]
    try:
        out["tail"] = fit_asymptote(tail, bits).to_json()
    except ValueError as exc:
        out["tail"] = {"error": str(exc)}
    return out


_RATIO_TOL = mp.mpf("0.01")
_TREND_TOL = mp.mpf("0.05")


@dataclass(frozen=True)
class _Study:
    """One row of _STUDIES: what study() needs to run one kind."""

    subject: type  # what the kind studies: FHDescriptor or MomentSymbol
    build: Callable  # (subject, bits, sign, desc) -> (prediction, num, den or None)
    matrix: str  # the matrices builder, looked up by name at call time
    scale: int  # matrix order per N
    trend: bool  # judge det/(F^N N^e) by trend and exponent, else N^-e ratio by limit
    flags: tuple = ()  # CONJECTURE makes the verdict informational


def _descriptor(subject) -> FHDescriptor:
    if not isinstance(subject, FHDescriptor):
        raise SpeciesError("an FHDescriptor is required")
    return subject


def _half_jump(subject, bits, sign, desc):
    """det T_N(t_s d) / det T_N(d): one added half-jump t_s, s = sign."""
    dsc = _descriptor(subject if subject is not None else FHDescriptor())
    pred = predict_half_jump_ratio(dsc, sign, bits)
    jump = JumpT(Fraction(sign))
    if dsc.is_trivial:
        return pred, jump, None
    base = FHProduct(dsc)
    return pred, symbols.SymbolProduct((jump, base)), base


def _skew_over_plain(subject, bits, sign, desc):
    """det T_2N(chi a) / det T_2N(a) at the doubled argument a = d(t^2)."""
    a = symbols.double_argument(FHProduct(_descriptor(subject)))
    return predict_cor53(bits), symbols.multiply_by_chi(a), a


def _skew_over_plain_palindromic(subject, bits, sign, desc):
    """The same ratio for a = d itself, which must satisfy a(1/t) = a(t)."""
    a = FHProduct(_descriptor(subject))
    if not symbols.certify_even(a):
        raise SpeciesError("a(1/t) = a(t) is required")
    return predict_cor53(bits), symbols.multiply_by_chi(a), a


def _halfangle_pullback(desc: FHDescriptor) -> MomentSymbol:
    """b with b(cos(theta/2)) = d(e^{i theta}), as a moment symbol."""
    d = FHProduct(desc)
    if not symbols.certify_even(d):
        raise SpeciesError("an even symbol is required for the pullback")
    return symbols._pullback(ArgDoubled(d), "one")


def _pullback_growth(subject, bits, sign, desc):
    """det H_N of d's half-angle pullback: d's growth, exponent Omega - 1/4."""
    dsc = _descriptor(subject)
    b = _halfangle_pullback(dsc)
    growth = predict_szego_fh(dsc, bits)
    bc = barnes_constants(bits)
    with mp.workprec(bits + 32):
        expo = to_mp(growth.Omega, bits + 32) - mp.mpf(1) / 4
    with mp.workprec(bits):
        return replace(growth, ratio_coefficient=bc.pair_product, exponent_of_N=+expo), b, None


def _sqrt_ratio_growth(subject, bits, sign, desc):
    """det H_N of the moment symbol; desc, if given, carries the growth data
    of the argument-halved smooth factor."""
    if not isinstance(subject, MomentSymbol):
        raise SpeciesError("a MomentSymbol is required")
    if subject.weight != "sqrt_ratio":
        raise SpeciesError("the sqrt((1+x)/(1-x)) weight is required")
    return predict_szego_fh(desc if desc is not None else FHDescriptor(), bits), subject, None


_STUDIES = {
    "prop52_ratio": _Study(FHDescriptor, _half_jump, "toeplitz", 1, False),
    "cor53": _Study(FHDescriptor, _skew_over_plain, "toeplitz", 2, False),
    "cor54": _Study(FHDescriptor, _pullback_growth, "hankel_moment", 1, True),
    "cor56": _Study(MomentSymbol, _sqrt_ratio_growth, "hankel_moment", 1, True),
    "conjecture_sym": _Study(
        FHDescriptor, _skew_over_plain_palindromic, "toeplitz", 2, False, ("CONJECTURE",)
    ),
}

STUDY_KINDS = tuple(_STUDIES)


def study(kind: str, subject, N_list, bits: int = 256, sign=Fraction(-1, 2), desc=None):
    """Run the study of kind, one of STUDY_KINDS, as its row in _STUDIES says.

    subject is the row's subject type (None for prop52_ratio means the
    pure jump).  Only prop52_ratio reads sign, the added jump's exponent,
    and only cor56 reads desc, the growth data it is judged against.
    """
    if kind not in _STUDIES:
        raise ValueError("unknown study kind %r" % (kind,))
    if bits < 64:
        raise ValueError("bits must be >= 64")
    Ns = sorted(set(int(n) for n in N_list))
    if not Ns or Ns[0] < 1:
        raise ValueError("N values must be >= 1")
    if len(Ns) < 4:
        raise ValueError("at least 4 sizes are required")
    row = _STUDIES[kind]
    prediction, num, den = row.build(subject, bits, sign, desc)
    orders = [row.scale * N for N in Ns]

    def dets(sym):
        M = getattr(matrices, row.matrix)(sym, max(orders), bits=bits)
        return _real_dets(M, orders, bits)

    wp = bits + 32
    values = dets(num)
    if den is not None:
        dens = dets(den)
        if 0 in dens:
            raise AccuracyError("denominator determinant vanished at N=%d" % Ns[dens.index(0)])
        with mp.workprec(wp):
            values = [+(v / d) for v, d in zip(values, dens)]
    with mp.workprec(wp):
        expv = to_mp(prediction.exponent_of_N, wp)
        if row.trend:
            Fv = to_mp(prediction.F, wp)
            comp = [v / (Fv ** N * mp.mpf(N) ** expv) for N, v in zip(Ns, values)]
        else:
            comp = [mp.mpf(N) ** (-expv) * r for N, r in zip(Ns, values)]
    limit, _ = extrapolate_limit(list(zip(Ns, comp)), bits)
    fitted = _double_fit(list(zip(Ns, values)), bits)
    with mp.workprec(wp):
        if row.trend:
            # the constant in front is not predicted: the compensated values must
            # settle (successive ratios -> 1) and the tail fit's exponent match
            steps = [abs(comp[i + 1] / comp[i] - 1) for i in range(len(comp) - 1)]
            tail = fitted.get("tail", {})
            settled = steps[-1] < _TREND_TOL and steps[-1] <= steps[0] + mp.mpf("1e-30")
            ok = settled and "Omega" in tail and (
                abs(mp.mpf(tail["Omega"]) - expv) < mp.mpf("0.02") * max(1, abs(expv))
            )
        else:
            coeff = prediction.ratio_coefficient
            ok = abs(limit - coeff) / abs(coeff) < _RATIO_TOL
    verdict = "informational" if "CONJECTURE" in row.flags else "pass" if ok else "fail"
    return AsymptoticsReport(
        kind=kind,
        N_list=list(Ns),
        det_values=[format_scalar(v, REPORT_DIGITS) for v in values],
        compensated_values=[format_scalar(c, REPORT_DIGITS) for c in comp],
        prediction=prediction.to_json(),
        fitted=fitted,
        extrapolated_limit=format_scalar(limit, REPORT_DIGITS),
        verdict=verdict,
        flags=list(row.flags),
        bits=bits,
    )
