"""Large-N determinant behavior: constants, factorizations, fits, studies.

The growth model throughout is det ~ F^N * N^Omega * E.  Constants come
from closed forms evaluated at working precision; nothing here calls a
special-function library for them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from . import matrices, symbols
from .determinants import leading_minors
from .quadrature import AccuracyError
from .scalars import format_scalar, infer_field, to_mp
from .symbols import ArgDoubled, FHDescriptor, FHProduct, JumpT, MomentSymbol, SpeciesError


REPORT_DIGITS = 30

STUDY_KINDS = ("prop52_ratio", "cor53", "cor54", "cor56", "conjecture_sym")


# -- integer zeta values via Euler-Maclaurin ------------------------------


def _zeta_em(s: int, wp: int):
    """zeta(s) for integer s >= 2, Euler-Maclaurin with Bernoulli tail."""
    with mp.workprec(wp + 32):
        M = max(40, wp // 8 + 16)
        total = mp.mpf(0)
        for n in range(1, M):
            total += mp.mpf(n) ** (-s)
        Mf = mp.mpf(M)
        total += Mf ** (1 - s) / (s - 1)
        total += Mf ** (-s) / 2
        target = mp.mpf(2) ** (-(wp + 16))
        poch = mp.mpf(s)  # rising product s(s+1)...(s+2k-2)
        mpow = Mf ** (-s - 1)
        k = 1
        while True:
            term = mp.bernoulli(2 * k) / mp.factorial(2 * k) * poch * mpow
            total += term
            if abs(term) < target:
                break
            if 2 * k > 6 * M:
                raise AccuracyError(
                    "correction terms for zeta(%d) stopped decaying" % s
                )
            poch *= (s + 2 * k - 1) * (s + 2 * k)
            mpow /= Mf * Mf
            k += 1
        return +total


def _zeta_direct(s: int, wp: int):
    # partial sums suffice once s is large; tail bound n^{1-s}/(s-1)
    with mp.workprec(wp + 16):
        total = mp.mpf(1)
        target = mp.mpf(2) ** (-(wp + 8))
        n = 2
        while True:
            t = mp.mpf(n) ** (-s)
            total += t
            if t * n / (s - 1) < target:
                break
            n += 1
        return +total


def zeta_int(s: int, wp: int):
    if s < 2:
        raise ValueError("only s >= 2 is supported")
    if s <= max(12, wp // 10):
        return _zeta_em(s, wp)
    return _zeta_direct(s, wp)


def _zeta_prime_2(wp: int):
    """d/ds zeta(s) at s=2, by differentiating the Euler-Maclaurin form."""
    with mp.workprec(wp + 32):
        M = max(40, wp // 8 + 16)
        total = mp.mpf(0)
        for n in range(2, M):
            total -= mp.log(n) / mp.mpf(n) ** 2
        Mf = mp.mpf(M)
        lM = mp.log(Mf)
        total -= (lM + 1) / Mf
        total -= lM / (2 * Mf * Mf)
        target = mp.mpf(2) ** (-(wp + 16))
        harm = mp.mpf(0)  # harmonic number H_{2k}
        mpow = mp.mpf(1)
        k = 1
        while True:
            harm += mp.mpf(1) / (2 * k - 1) + mp.mpf(1) / (2 * k)
            mpow /= Mf * Mf
            term = mp.bernoulli(2 * k) * (mpow / Mf) * (harm - 1 - lM)
            total += term
            if abs(term) < target:
                break
            if 2 * k > 6 * M:
                raise AccuracyError("correction terms stopped decaying")
            k += 1
        return +total


# 50-digit reference for the Glaisher-Kinkelin constant; recomputations
# must land on it or the series machinery is broken
_GLAISHER_REF = "1.2824271291006226368753425688697917277676889273250"


def glaisher_constant(bits: int):
    """The Glaisher-Kinkelin constant from its zeta'(2) representation."""
    wp = bits + 32
    zp2 = _zeta_prime_2(wp)
    with mp.workprec(wp):
        log_a = mp.euler / 12 + mp.log(2 * mp.pi) / 12 - zp2 / (2 * mp.pi ** 2)
        a = mp.exp(log_a)
        ref = mp.mpf(_GLAISHER_REF)
        agree_digits = min(48, max(10, int(bits * 0.301) - 2))
        if abs(a - ref) > mp.mpf(10) ** (-agree_digits):
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


def barnes_constants(bits: int) -> BarnesConstants:
    """G at 1/2 and 3/2 by the closed product 2^{1/24} e^{1/8} pi^{-1/4} A^{-3/2}.

    G(3/2) follows from the recurrence G(z+1) = Gamma(z) G(z), which at
    z = 1/2 reads G(3/2) = sqrt(pi) * G(1/2).
    """
    if bits < 64:
        raise ValueError("bits must be >= 64")
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
        return BarnesConstants(+g_half, +g_three, +pair, +pair_sq, bits)


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


def _as_real_if_clean(v):
    if isinstance(v, mp.mpc) and v.imag == 0:
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
            F=_as_real_if_clean(+F),
            Omega=_as_real_if_clean(+Omega),
            ratio_coefficient=None,
            exponent_of_N=_as_real_if_clean(+Omega),
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
            ratio_coefficient=_as_real_if_clean(+coeff),
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
    """Leading-block determinants forced real: tiny phases are asserted away, not kept."""
    out = []
    for res in leading_minors(M, orders, bits):
        v = res.value
        if isinstance(v, mp.mpc):
            with mp.workprec(bits + 32):
                if abs(v.imag) > mp.mpf("1e-10") * max(abs(v), mp.mpf("1e-300")):
                    raise AccuracyError(
                        "expected a real determinant, got %s" % mp.nstr(v, 12)
                    )
            v = v.real
        out.append(v)
    return out


def _report(kind, Ns, values, comp, limit, prediction, fitted, ok, flags, bits):
    """The study's AsymptoticsReport; a CONJECTURE study is only informational."""
    if "CONJECTURE" in flags:
        verdict = "informational"
    else:
        verdict = "pass" if ok else "fail"
    return AsymptoticsReport(
        kind=kind,
        N_list=list(Ns),
        det_values=[format_scalar(v, REPORT_DIGITS) for v in values],
        compensated_values=[format_scalar(c, REPORT_DIGITS) for c in comp],
        prediction=prediction.to_json(),
        fitted=fitted,
        extrapolated_limit=format_scalar(limit, REPORT_DIGITS),
        verdict=verdict,
        flags=list(flags),
        bits=bits,
    )


def _ratio_study(kind, num_sym, den_sym, Ns, bits, prediction, flags):
    """Common driver: ratios det(num)/det(den) at order N or 2N, compensated
    by N^(-exponent_of_N) and extrapolated to the ratio coefficient."""
    tol = mp.mpf("0.01")
    scale = 2 if kind in ("cor53", "conjecture_sym") else 1
    top = scale * max(Ns)
    orders = [scale * N for N in Ns]
    T_num = matrices.toeplitz(num_sym, top, infer_field(num_sym, bits))
    nums = _real_dets(T_num, orders, bits)
    if den_sym is None:
        dens = [mp.mpf(1)] * len(Ns)
    else:
        T_den = matrices.toeplitz(den_sym, top, infer_field(den_sym, bits))
        dens = _real_dets(T_den, orders, bits)
    ratios = []
    for N, num, den in zip(Ns, nums, dens):
        with mp.workprec(bits + 32):
            if den == 0:
                raise AccuracyError("denominator determinant vanished at N=%d" % N)
            ratios.append(+(num / den))
    with mp.workprec(bits + 32):
        power = to_mp(prediction.exponent_of_N, bits + 32)
        comp = [mp.mpf(N) ** (-power) * r for N, r in zip(Ns, ratios)]
    limit, err = extrapolate_limit(list(zip(Ns, comp)), bits)
    pred_val = prediction.ratio_coefficient
    with mp.workprec(bits + 32):
        rel_gap = abs(limit - pred_val) / abs(pred_val)
        ok = rel_gap < tol
    fitted = _double_fit(list(zip(Ns, ratios)), bits)
    return _report(kind, Ns, ratios, comp, limit, prediction, fitted, ok, flags, bits)


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


def _moment_det_study(kind, b, Ns, bits, prediction):
    """Exponent-only check on det H_N[b]: fitted Omega and compensated trend."""
    tol = mp.mpf("0.05")
    H = matrices.hankel_moment(b, max(Ns), infer_field(b, bits))
    dets = _real_dets(H, Ns, bits)
    data = list(zip(Ns, dets))
    fitted = _double_fit(data, bits)
    with mp.workprec(bits + 32):
        Fv = to_mp(prediction.F, bits + 32)
        expv = to_mp(prediction.exponent_of_N, bits + 32)
        comp = [
            v / (Fv ** N * mp.mpf(N) ** expv) for N, v in data
        ]
        # the constant in front is not predicted, so judge the trend:
        # compensated values must settle (successive ratios -> 1) and the
        # fitted exponent must land on the predicted one
        ratios = [comp[i + 1] / comp[i] for i in range(len(comp) - 1)]
        trend_ok = abs(ratios[-1] - 1) < tol and abs(ratios[-1] - 1) <= abs(
            ratios[0] - 1
        ) + mp.mpf("1e-30")
        tail = fitted.get("tail", {})
        exp_ok = False
        if "Omega" in tail:
            fitted_omega = mp.mpf(tail["Omega"])
            exp_ok = abs(fitted_omega - expv) < mp.mpf("0.02") * max(1, abs(expv))
    limit, _ = extrapolate_limit(list(zip(Ns, comp)), bits)
    return _report(kind, Ns, dets, comp, limit, prediction, fitted, trend_ok and exp_ok, [], bits)


def _halfangle_pullback(desc: FHDescriptor) -> MomentSymbol:
    """b with b(cos(theta/2)) = d(e^{i theta}), as a moment symbol."""
    d = FHProduct(desc)
    if not symbols.certify_even(d):
        raise SpeciesError("an even symbol is required for the pullback")
    return symbols._pullback(ArgDoubled(d), "one")


def study(kind: str, subject, N_list, bits: int = 256, sign=Fraction(-1, 2), desc=None):
    """Run one named determinant study and package an AsymptoticsReport.

    kind selects the preset: "prop52_ratio" (single added half-jump,
    ratio against the smooth base), "cor53" (skewsymmetrized over plain at
    doubled argument), "cor54" / "cor56" (moment-matrix growth, exponent
    checks), "conjecture_sym" (the cor53 ratio for palindromic symbols;
    informational).  subject is an FHDescriptor for the symbol kinds and a
    MomentSymbol for cor56.
    """
    if kind not in STUDY_KINDS:
        raise ValueError("unknown study kind %r" % (kind,))
    if bits < 64:
        raise ValueError("bits must be >= 64")
    Ns = sorted(set(int(n) for n in N_list))
    if not Ns or Ns[0] < 1:
        raise ValueError("N values must be >= 1")
    if len(Ns) < 4:
        raise ValueError("at least 4 sizes are required")
    if kind == "prop52_ratio":
        dsc = subject if subject is not None else FHDescriptor()
        if not isinstance(dsc, FHDescriptor):
            raise SpeciesError("an FHDescriptor is required")
        pred = predict_half_jump_ratio(dsc, sign, bits)
        jump = JumpT(Fraction(sign))
        if dsc.is_trivial:
            num, den = jump, None
        else:
            base = FHProduct(dsc)
            num, den = symbols.SymbolProduct((jump, base)), base
        return _ratio_study(kind, num, den, Ns, bits, pred, [])

    if kind in ("cor53", "conjecture_sym"):
        if not isinstance(subject, FHDescriptor):
            raise SpeciesError("an FHDescriptor is required")
        base = FHProduct(subject)
        if kind == "cor53":
            a = symbols.double_argument(base)
        else:
            a = base
            if not symbols.certify_even(a):
                raise SpeciesError("a(1/t) = a(t) is required")
        pred = predict_cor53(bits)
        flags = ["CONJECTURE"] if kind == "conjecture_sym" else []
        return _ratio_study(kind, symbols.multiply_by_chi(a), a, Ns, bits, pred, flags)

    if kind == "cor54":
        if not isinstance(subject, FHDescriptor):
            raise SpeciesError("an FHDescriptor is required")
        b = _halfangle_pullback(subject)
        growth = predict_szego_fh(subject, bits)
        bc = barnes_constants(bits)
        with mp.workprec(bits + 32):
            expo = to_mp(growth.Omega, bits + 32) - mp.mpf(1) / 4
        with mp.workprec(bits):
            pred = FHPrediction(
                F=growth.F,
                Omega=growth.Omega,
                ratio_coefficient=bc.pair_product,
                exponent_of_N=+expo,
            )
        return _moment_det_study(kind, b, Ns, bits, pred)

    # cor56: subject is the moment symbol itself; desc (optional) carries
    # the growth data of the argument-halved smooth factor
    if not isinstance(subject, MomentSymbol):
        raise SpeciesError("a MomentSymbol is required")
    if subject.weight != "sqrt_ratio":
        raise SpeciesError("the sqrt((1+x)/(1-x)) weight is required")
    growth = predict_szego_fh(desc if desc is not None else FHDescriptor(), bits)
    pred = FHPrediction(
        F=growth.F,
        Omega=growth.Omega,
        ratio_coefficient=None,
        exponent_of_N=growth.Omega,
    )
    return _moment_det_study(kind, subject, Ns, bits, pred)
