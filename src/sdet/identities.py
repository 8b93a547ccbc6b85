"""Executable determinant identities between structured matrices.

Each IdentityKind names one equality between determinants of matrices built
from a common input (an even symbol or sequence, an odd sequence, or a
moment symbol).  verify() builds each side's matrix once, at the largest
requested N, and reads every smaller size off its leading block (each
family is closed under leading blocks); determinants.leading_minors gives
the determinants of all those blocks from one pass.  Residuals are recorded
per N: in exact mode a pass means the residual is literally zero, in hp mode
the relative residual must stay below 10^(-digits_guaranteed/2) where
digits_guaranteed comes from the determinant engine's two-precision
agreement.  A record whose sides carry no guaranteed digits fails, since two
values known to no digits agree by accident.  An hp_complex side whose
imaginary part lies below its guaranteed digits is recorded as its real
part, so quadrature noise never reaches the report.

Kinds backed by moment integrals have no exact mode (generic moments are
transcendental); requesting exact there silently upgrades to hp and says so
in the report notes.  Sequence-level inputs are accepted even when no L1
symbol is known to back them; the identities are finite-matrix statements.
"""

import enum
from fractions import Fraction

import mpmath as mp

from . import symbols, transforms
from .determinants import DetResult, leading_minors, pfaffian
from .matrices import hankel_moment, toeplitz, toeplitz_plus_hankel
from .scalars import format_scalar, infer_field, is_exact_scalar, to_mp
from .symbols import (
    CoeffSeq,
    JumpT,
    MomentSymbol,
    SpeciesError,
    SymbolProduct,
    halve_argument,
    moment_to_skew_symbol,
    multiply_by_chi,
    th_to_moment_symbol,
)
from .transforms import ScalarSeq, a_to_b, a_to_c, c_to_b

DEFAULT_BITS = 256


class IdentityKind(str, enum.Enum):
    HankelCongruence = "hankel_congruence"
    THvsMoment = "th_vs_moment"
    QuarterWave = "quarter_wave"
    MomentToToeplitz = "moment_to_toeplitz"
    SkewSquare = "skew_square"
    CSeqSquare = "cseq_square"
    MomentSkewSquare = "moment_skew_square"
    ParitySplitEven = "parity_split_even"
    ParitySplitChi = "parity_split_chi"


# kinds whose right-hand data comes from integrals; no exact arithmetic
_HP_ONLY = {
    IdentityKind.THvsMoment,
    IdentityKind.MomentToToeplitz,
    IdentityKind.MomentSkewSquare,
    IdentityKind.ParitySplitChi,
}


class IdentityRecord:
    __slots__ = ("N", "lhs", "rhs", "abs_resid", "rel_resid", "mode", "bits", "digits", "ok")

    def __init__(self, N, lhs, rhs, abs_resid, rel_resid, mode, bits, digits, ok):
        self.N = N
        self.lhs = lhs
        self.rhs = rhs
        self.abs_resid = abs_resid
        self.rel_resid = rel_resid
        self.mode = mode
        self.bits = bits
        self.digits = digits
        self.ok = ok


class IdentityReport:
    __slots__ = ("kind", "mode", "bits", "records", "notes", "verdict")

    def __init__(self, kind, mode, bits, records, notes, verdict):
        self.kind = kind
        self.mode = mode
        self.bits = bits
        self.records = records
        self.notes = notes
        self.verdict = verdict

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        recs = []
        for r in self.records:
            recs.append(
                {
                    "N": r.N,
                    **_formatted_values(r),
                    "mode": r.mode,
                    "bits": r.bits,
                    "digits_guaranteed": r.digits,
                    "ok": r.ok,
                }
            )
        return {
            "kind": self.kind,
            "mode": self.mode,
            "bits": self.bits,
            "verdict": self.verdict,
            "notes": list(self.notes),
            "records": recs,
        }


def _formatted_values(r: IdentityRecord) -> dict:
    """lhs, rhs, abs_resid and rel_resid as report text; the sides print at
    their guaranteed digits, or 20 when none are known."""
    digits = r.digits if r.digits else 20
    return {
        "lhs": format_scalar(r.lhs, digits),
        "rhs": format_scalar(r.rhs, digits),
        "abs_resid": format_scalar(r.abs_resid, 8),
        "rel_resid": format_scalar(r.rel_resid, 8),
    }


def reports_to_csv(reports) -> str:
    lines = ["kind,N,lhs,rhs,abs_resid,rel_resid,mode,bits"]
    for rep in reports:
        for r in rep.records:
            lines.append(
                "%s,%d,%s,%s,%s,%s,%s,%s"
                % (rep.kind, r.N, *_formatted_values(r).values(), r.mode, r.bits if r.bits else "")
            )
    return "\n".join(lines) + "\n"


def _n_list(N_values):
    if isinstance(N_values, int):
        if N_values < 1:
            raise ValueError("N must be >= 1")
        return list(range(1, N_values + 1))
    out = sorted(set(int(n) for n in N_values))
    if not out or out[0] < 1:
        raise ValueError("N values must be >= 1")
    return out


def _input_seq(inp, symmetry: str, mode: str) -> ScalarSeq:
    """ScalarSeq view of a sequence-level input: a ScalarSeq, CoeffSeq or dict."""
    if (
        symmetry == "even"
        and isinstance(inp, CoeffSeq)
        and inp.symmetry is None
        and all(inp.entries.get(-n, 0) == v for n, v in inp.entries.items())
    ):
        inp = inp.entries  # an unflagged CoeffSeq with a_{-n} = a_n passes as even
    if isinstance(inp, (ScalarSeq, CoeffSeq)) and inp.symmetry != symmetry:
        raise SpeciesError("an %s sequence is required" % symmetry)
    if not isinstance(inp, (ScalarSeq, CoeffSeq, dict)):
        raise SpeciesError(
            "cannot interpret %r as an %s sequence" % (type(inp), symmetry)
        )
    seq = transforms._as_seq(inp, symmetry)
    if all(is_exact_scalar(v) for v in seq.entries.values()):
        return seq
    if mode == "exact":
        raise SpeciesError("exact mode needs rational coefficients")
    # float sums round at 53 bits whatever mp.workprec says, while the matrix
    # side reads the same floats exactly: give the transforms exact values
    return ScalarSeq({n: _exact_value(v) for n, v in seq.entries.items()}, symmetry)


def _exact_value(v):
    """v unchanged, with a float as its exact Fraction and a complex as an mpc."""
    if isinstance(v, float):
        return Fraction(v)
    if isinstance(v, complex):
        return mp.mpc(v)
    return v


def _even_input_seq(inp, max_index: int, mode: str, bits: int) -> ScalarSeq:
    """Even ScalarSeq view of the input, wide enough for indices |n| <= max_index."""
    if isinstance(inp, symbols.FourierSymbol) and not isinstance(inp, CoeffSeq):
        if not symbols.certify_even(inp):
            raise SpeciesError("an even symbol is required")
        if mode == "exact":
            raise SpeciesError("exact mode needs finite rational coefficients")
        return ScalarSeq(inp.coeff_table(0, max_index, bits), "even")
    return _input_seq(inp, "even", mode)


def _residuals(lhs, rhs, bits):
    if isinstance(lhs, (int, Fraction)) and isinstance(rhs, (int, Fraction)):
        d = lhs - rhs
        a = abs(d)
        scale = max(abs(lhs), abs(rhs))
        rel = a / scale if scale else Fraction(0)
        return a, rel
    with mp.workprec(2 * bits + 32):
        dl = to_mp(lhs, 2 * bits + 32)
        dr = to_mp(rhs, 2 * bits + 32)
        a = abs(dl - dr)
        scale = max(abs(dl), abs(dr))
        rel = a / scale if scale > 0 else mp.mpf(0)
    return a, rel


def _drop_noise(v, digits):
    """v, or its real part when its imaginary part is below 10^-digits of |v|.

    An hp_complex value carries quadrature noise in its imaginary part far
    below its guaranteed digits; dropping it keeps report bytes off the noise.
    """
    if digits and isinstance(v, mp.mpc) and abs(v.imag) < mp.mpf(10) ** (-digits) * abs(v):
        return v.real
    return v


def _make_record(N, lhs_res, rhs_res, mode, bits, extra_digits=()):
    lhs = lhs_res.value if isinstance(lhs_res, DetResult) else lhs_res
    rhs = rhs_res.value if isinstance(rhs_res, DetResult) else rhs_res
    if mode == "exact":
        a, rel = _residuals(lhs, rhs, bits or 64)
        return IdentityRecord(N, lhs, rhs, a, rel, mode, None, None, a == 0)
    digits = [extra for extra in extra_digits if extra]
    for res in (lhs_res, rhs_res):
        if isinstance(res, DetResult) and res.digits_guaranteed:
            digits.append(res.digits_guaranteed)
    # with no guaranteed digit on either side, agreement proves nothing
    dg = min(digits, default=0)
    lhs, rhs = _drop_noise(lhs, dg), _drop_noise(rhs, dg)
    a, rel = _residuals(lhs, rhs, bits or 64)
    ok = bool(digits) and rel < mp.mpf(10) ** (-(dg / 2))
    return IdentityRecord(N, lhs, rhs, a, rel, mode, bits, dg, ok)


# -- per-kind builders ----------------------------------------------------


def _sweep(Ns, mode, bits, lhs, rhs, squared=False):
    """One record per N: det lhs against det rhs, (det rhs)^2 when squared,
    or the product of the determinants of a pair rhs.

    Runners build each matrix once, at k * max(Ns) for k = 1 or 2; at N it
    stands for its leading block of order k * N, and leading_minors gives
    every block of one matrix from one pass.  Products are taken at
    2*bits+32, and in hp mode they keep their factors' guaranteed digits.
    """
    top = max(Ns)

    def dets(M):
        return leading_minors(M, [M.order // top * N for N in Ns], bits)

    left = dets(lhs)
    if isinstance(rhs, tuple):
        factors = list(zip(*(dets(M) for M in rhs)))
    else:
        right = dets(rhs)
        if not squared:
            return [_make_record(*rec, mode, bits) for rec in zip(Ns, left, right)]
        factors = [(r, r) for r in right]
    records = []
    for N, l, (f1, f2) in zip(Ns, left, factors):
        with mp.workprec(2 * bits + 32):
            product = f1.value * f2.value
        extra = (f1.digits_guaranteed, f2.digits_guaranteed) if mode == "hp" else ()
        records.append(_make_record(N, l, product, mode, bits, extra_digits=extra))
    return records


def _run_hankel_congruence(inp, Ns, mode, bits, notes):
    n = max(Ns)
    seq = _even_input_seq(inp, 2 * n + 2, mode, bits)
    field = infer_field(seq, bits, exact=mode == "exact")
    with mp.workprec(2 * bits + 32):
        b = a_to_b(seq, 2 * n)
    A = toeplitz_plus_hankel(seq, n, field)
    B = hankel_moment(b, n, field)
    return _sweep(Ns, mode, bits, A, B)


def _run_th_vs_moment(inp, Ns, mode, bits, notes):
    if isinstance(inp, (ScalarSeq, dict)):
        try:
            inp = CoeffSeq(dict(getattr(inp, "entries", inp)), symmetry="even")
        except ValueError as exc:
            raise SpeciesError(str(exc)) from exc
    if not isinstance(inp, symbols.FourierSymbol):
        raise SpeciesError("an even symbol is required")
    if not symbols.certify_even(inp):
        raise SpeciesError("an even symbol is required")
    b = th_to_moment_symbol(inp)
    field = infer_field(b, bits)
    n = max(Ns)
    A = toeplitz_plus_hankel(inp, n, field)
    H = hankel_moment(b, n, field)
    return _sweep(Ns, mode, bits, A, H)


def _require_even_support(inp, mode, bits, max_index):
    """The input as an even symbol whose odd coefficients vanish."""
    if isinstance(inp, (ScalarSeq, dict, CoeffSeq)):
        seq = _even_input_seq(inp, max_index, mode, bits)
        odd = [n for n in seq.entries if n % 2 and seq.entries[n] != 0]
        if odd:
            raise SpeciesError(
                "vanishing odd coefficients are required, found index %d" % odd[0]
            )
        return CoeffSeq(seq.entries, symmetry="even")
    if isinstance(inp, symbols.FourierSymbol):
        if not inp.even_support():
            raise SpeciesError("vanishing odd coefficients are required")
        return inp
    raise SpeciesError("unsupported input %r" % (type(inp),))


def _run_quarter_wave(inp, Ns, mode, bits, notes):
    n = max(Ns)
    src = _require_even_support(inp, mode, bits, 4 * n)
    field = infer_field(src, bits, exact=mode == "exact")
    A = toeplitz_plus_hankel(src, n, field)
    T = toeplitz(halve_argument(src), n, field)
    return _sweep(Ns, mode, bits, A, T)


def _run_moment_to_toeplitz(inp, Ns, mode, bits, notes):
    if not isinstance(inp, MomentSymbol):
        raise SpeciesError("a moment symbol is required")
    if inp.weight != "sqrt_ratio":
        raise SpeciesError("the sqrt((1+x)/(1-x)) weight is required")
    d = symbols._halfangle(inp)
    field = infer_field(inp, bits)
    n = max(Ns)
    H = hankel_moment(inp, n, field)
    T = toeplitz(d, n, field)
    return _sweep(Ns, mode, bits, H, T)


def _run_skew_square(inp, Ns, mode, bits, notes):
    n = max(Ns)
    seq = _even_input_seq(inp, 2 * n, mode, bits)
    field = infer_field(seq, bits, exact=mode == "exact")
    with mp.workprec(2 * bits + 32):
        c = a_to_c(seq, 2 * n - 1)
    T2 = toeplitz(c, 2 * n, field)
    A = toeplitz_plus_hankel(seq, n, field)
    return _sweep(Ns, mode, bits, T2, A, squared=True)


def _run_cseq_square(inp, Ns, mode, bits, notes):
    seq = _input_seq(inp, "odd", mode)
    note = (
        "sequence-level input: the identity is a finite-matrix statement and "
        "does not require the sequence to come from an L1 symbol"
    )
    if note not in notes:
        notes.append(note)
    n = max(Ns)
    field = infer_field(seq, bits, exact=mode == "exact")
    with mp.workprec(2 * bits + 32):
        b = c_to_b(seq, 2 * n - 1)
    T2 = toeplitz(seq, 2 * n, field)
    B = hankel_moment(b, n, field)
    return _sweep(Ns, mode, bits, T2, B, squared=True)


def _run_moment_skew_square(inp, Ns, mode, bits, notes):
    if not isinstance(inp, MomentSymbol):
        raise SpeciesError("a moment symbol is required")
    field = infer_field(inp, bits)
    n = max(Ns)
    T2 = toeplitz(moment_to_skew_symbol(inp), 2 * n, field)
    H = hankel_moment(inp, n, field)
    return _sweep(Ns, mode, bits, T2, H, squared=True)


def _run_parity_split_even(inp, Ns, mode, bits, notes):
    n = max(Ns)
    src = _require_even_support(inp, mode, bits, 4 * n)
    field = infer_field(src, bits, exact=mode == "exact")
    T2 = toeplitz(src, 2 * n, field)
    T1 = toeplitz(halve_argument(src), n, field)
    return _sweep(Ns, mode, bits, T2, T1, squared=True)


def _run_parity_split_chi(inp, Ns, mode, bits, notes):
    n = max(Ns)
    src = _require_even_support(inp, "hp", bits, 4 * n)
    d = halve_argument(src)
    d1 = SymbolProduct((JumpT(-0.5), d))
    d2 = SymbolProduct((JumpT(0.5), d))
    chi_a = multiply_by_chi(src)
    T2 = toeplitz(chi_a, 2 * n, infer_field(chi_a, bits))
    T_d1 = toeplitz(d1, n, infer_field(d1, bits))
    T_d2 = toeplitz(d2, n, infer_field(d2, bits))
    return _sweep(Ns, "hp", bits, T2, (T_d1, T_d2))


_RUNNERS = {
    IdentityKind.HankelCongruence: _run_hankel_congruence,
    IdentityKind.THvsMoment: _run_th_vs_moment,
    IdentityKind.QuarterWave: _run_quarter_wave,
    IdentityKind.MomentToToeplitz: _run_moment_to_toeplitz,
    IdentityKind.SkewSquare: _run_skew_square,
    IdentityKind.CSeqSquare: _run_cseq_square,
    IdentityKind.MomentSkewSquare: _run_moment_skew_square,
    IdentityKind.ParitySplitEven: _run_parity_split_even,
    IdentityKind.ParitySplitChi: _run_parity_split_chi,
}


def verify(kind, inp, N_values, mode: str = "exact", bits: int | None = None) -> IdentityReport:
    """Check one identity over the given matrix sizes.

    N_values may be an int (meaning 1..N) or an explicit list.  mode is
    "exact" or "hp"; integral-backed kinds run hp regardless, with a note.
    """
    kind = IdentityKind(kind)
    Ns = _n_list(N_values)
    if mode not in ("exact", "hp"):
        raise ValueError("mode must be exact or hp")
    bits = bits or DEFAULT_BITS
    if bits < 64:
        raise ValueError("bits must be >= 64")
    notes = []
    if kind in _HP_ONLY and mode == "exact":
        notes.append(
            "no exact arithmetic for integral-backed data; running hp at %d bits"
            % bits
        )
        mode = "hp"
    records = _RUNNERS[kind](inp, Ns, mode, bits, notes)
    verdict = "pass" if all(r.ok for r in records) else "fail"
    return IdentityReport(kind.value, mode, bits if mode == "hp" else None, records, notes, verdict)


def pfaffian_link(b: MomentSymbol, N_values, bits: int | None = None) -> IdentityReport:
    """Pf(T_2N(c))^2 = det T_2N(c) and |Pf(T_2N(c))| = |det H_N[b]|.

    Two records per N: the Pfaffian-square check, then the cross-family
    magnitude check against the Hankel moment determinant.
    """
    if not isinstance(b, MomentSymbol):
        raise SpeciesError("a moment symbol is required")
    Ns = _n_list(N_values)
    bits = bits or DEFAULT_BITS
    field = infer_field(b, bits)
    n = max(Ns)
    T2n = toeplitz(moment_to_skew_symbol(b), 2 * n, field)
    Hn = hankel_moment(b, n, field)
    notes = []
    records = []
    detTs = leading_minors(T2n, [2 * N for N in Ns], bits)
    detHs = leading_minors(Hn, Ns, bits)
    for N, detT, detH in zip(Ns, detTs, detHs):
        pf = pfaffian(T2n.leading(2 * N))
        with mp.workprec(2 * bits + 32):
            pf_sq = pf * pf
        records.append(
            _make_record(
                N, pf_sq, detT, "hp", bits, extra_digits=(detT.digits_guaranteed,)
            )
        )
        with mp.workprec(2 * bits + 32):
            records.append(
                _make_record(
                    N,
                    abs(pf),
                    abs(detH.value),
                    "hp",
                    bits,
                    extra_digits=(detH.digits_guaranteed,),
                )
            )
    verdict = "pass" if all(r.ok for r in records) else "fail"
    return IdentityReport("pfaffian_link", "hp", bits, records, notes, verdict)


def _applicable_kinds(inp, mode: str):
    if isinstance(inp, MomentSymbol):
        applicable = {IdentityKind.MomentSkewSquare}
        if inp.weight == "sqrt_ratio" and inp.parity == "even":
            applicable.add(IdentityKind.MomentToToeplitz)
        return applicable
    odd = (
        isinstance(inp, ScalarSeq)
        and inp.symmetry == "odd"
        or isinstance(inp, symbols.FourierSymbol)
        and inp.symmetry == "odd"
    )
    if odd:
        return {IdentityKind.CSeqSquare}
    applicable = {
        IdentityKind.HankelCongruence,
        IdentityKind.SkewSquare,
        IdentityKind.THvsMoment,
    }
    try:
        even_support = (
            inp.even_support()
            if isinstance(inp, symbols.FourierSymbol)
            else all(n % 2 == 0 for n in getattr(inp, "entries", inp))
        )
    except Exception:
        even_support = False
    if even_support:
        applicable |= {
            IdentityKind.QuarterWave,
            IdentityKind.ParitySplitEven,
            IdentityKind.ParitySplitChi,
        }
    return applicable


def verify_all(inp, N_max, mode: str = "exact", bits: int | None = None):
    """Run every applicable kind; inapplicable kinds get a skipped report."""
    bits = bits or DEFAULT_BITS
    applicable = _applicable_kinds(inp, mode)
    reports = []
    for kind in IdentityKind:
        if kind not in applicable:
            reports.append(
                IdentityReport(
                    kind.value, mode, None, [], ["species mismatch; skipped"], "skipped"
                )
            )
            continue
        if mode == "exact" and kind in _HP_ONLY:
            reports.append(
                IdentityReport(
                    kind.value,
                    mode,
                    None,
                    [],
                    ["integral-backed kind has no exact mode; skipped"],
                    "skipped",
                )
            )
            continue
        try:
            reports.append(verify(kind, inp, N_max, mode, bits))
        except SpeciesError as exc:
            reports.append(
                IdentityReport(kind.value, mode, None, [], [str(exc)], "skipped")
            )
        except Exception as exc:
            reports.append(
                IdentityReport(
                    kind.value,
                    mode,
                    bits,
                    [],
                    ["%s: %s" % (type(exc).__name__, exc)],
                    "error",
                )
            )
    return reports
