"""Executable determinant identities between structured matrices.

Each IdentityKind names one equality between products of determinants of
matrices built from a common input (an even symbol or sequence, an odd
sequence, or a moment symbol).  Its two sides are tuples of matrices whose
determinants multiply; a squared determinant names its matrix twice, as
(H, H).  verify() builds each matrix once, at the largest requested N, and
reads every smaller size off its leading block (each family is closed under
leading blocks); determinants.leading_minors gives the determinants of all
those blocks from one pass, which the matrix keeps, so a matrix named twice
still runs one pass.  verify turns its mode into bits once: exact mode is
bits None, from there down to leading_minors.  Residuals are recorded per N
between the two products, each taken at 2*bits + 32 in hp mode when it has
two or more factors: in exact mode a pass means the residual is literally
zero, in hp mode the relative residual must stay below
10^(-digits_guaranteed/2), where digits_guaranteed is the fewest the
determinant engine's two-precision agreement gives any factor.  A record whose factors carry no guaranteed
digits fails, since two values known to no digits agree by accident.  An
hp_complex side whose imaginary part lies below its guaranteed digits is
recorded as its real part, so quadrature noise never reaches the report.

Each kind is one row of a private table: its species (the input it takes:
"even", "odd" or "moment"), the gate verify_all applies (the species' gate,
which quarter_wave and the parity splits narrow to even support and
moment_to_toeplitz to the sqrt_ratio weight and even parity), whether the
kind has an exact mode, and the builder of its two sides; verify,
verify_all and pfaffian_link all read it.  Kinds backed by moment
integrals have no exact mode (generic moments are transcendental);
requesting exact there silently upgrades to hp and says so in the report
notes.  Sequence-level inputs are accepted even when no L1 symbol is known
to back them; the identities are finite-matrix statements.

Every kind reads its input through one owner (_owner, called with the row's
species before its builder), which gives the symbol its matrices are laid
out of.  A symbol is its own owner: a CoeffSeq of the kind's species (even
or odd), a quadrature-backed even symbol, or a MomentSymbol; a plain dict or
ScalarSeq gets a fresh CoeffSeq, which shares nothing.  A builder takes the
owner, the order and bits, and passes bits to each matrix builder, which
gives the matrix the field of its own source (matrices._build); the owner
carries no field.  The even kinds lay out T+H_N(a), T_2N(a) and T_N(d) of
the owner and take halve_argument and th_to_moment_symbol of it, and
cseq_square lays out T_2N(c) of its owner; the matrix builders keep each
matrix on its symbol, and leading_minors keeps its pass on the matrix, so
verify_all, pfaffian_link and repeated checks run one pass per distinct
matrix.  The
moment kinds and pfaffian_link share the moment twin's H_N[b] and its skew
symbol's T_2N(c); pfaffian_link records Pf(T_2N(c)) as a factor with no
guaranteed digits.  The transforms read the owner's exact values: a
CoeffSeq's entries, or a quadrature-backed symbol's table at bits.  The two
sides of one identity never share a matrix.  parity_split_chi's T_2N(chi a)
is tagged general, so it keeps the skew elimination: the skew block
Levinson, which serves every other hp skew Toeplitz side, would on that
checkerboard matrix run the two recursions of its right side.
"""

import enum
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from . import symbols, transforms
from .determinants import DetResult, leading_minors, pfaffian
from .matrices import StructuredMatrix, hankel_moment, toeplitz, toeplitz_plus_hankel
from .scalars import format_scalar, to_mp
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


def _bits(bits):
    """bits, or DEFAULT_BITS when it is None; ValueError below 64."""
    bits = DEFAULT_BITS if bits is None else bits
    if bits < 64:
        raise ValueError("bits must be >= 64")
    return bits


def _n_list(N_values):
    if isinstance(N_values, int):
        if N_values < 1:
            raise ValueError("N must be >= 1")
        return list(range(1, N_values + 1))
    out = sorted(set(int(n) for n in N_values))
    if not out or out[0] < 1:
        raise ValueError("N values must be >= 1")
    return out


def _owner(inp, species: str, bits: int | None):
    """The symbol that a kind on an input of species "even", "odd" or
    "moment" lays its matrices out of, at bits, or in exact mode when bits
    is None.

    A MomentSymbol is its own owner.  A CoeffSeq of the species is its own
    owner, and a plain dict or ScalarSeq gets a fresh CoeffSeq of the
    species, which shares nothing.  An even kind also takes a
    quadrature-backed even symbol as its own owner, but not in exact mode,
    which needs rational coefficients.  An input that the species does not
    take raises SpeciesError.
    """
    if species == "moment":
        if not isinstance(inp, MomentSymbol):
            raise SpeciesError("a moment symbol is required")
    elif species == "even" and isinstance(inp, symbols.FourierSymbol) and not isinstance(inp, CoeffSeq):
        if not symbols.certify_even(inp):
            raise SpeciesError("an even symbol is required")
        if bits is None:
            raise SpeciesError("exact mode needs finite rational coefficients")
    else:
        if not isinstance(inp, (ScalarSeq, CoeffSeq, dict)):
            raise SpeciesError("cannot interpret %r as an %s sequence" % (type(inp), species))
        if getattr(inp, "symmetry", species) != species:
            raise SpeciesError("an %s sequence is required" % species)
        if not isinstance(inp, CoeffSeq):
            try:
                inp = CoeffSeq(transforms._as_seq(inp, species).entries, symmetry=species)
            except ValueError as exc:  # entries that contradict the symmetry
                raise SpeciesError(str(exc)) from exc
        if bits is None and not inp.is_exact:
            raise SpeciesError("exact mode needs rational coefficients")
    return inp


def _wide(bits):
    """The context of a sum or product of hp values at bits: 2*bits+32; none
    in exact mode (bits None), where the values are rationals."""
    return nullcontext() if bits is None else mp.workprec(2 * bits + 32)


def _transform(transform, a, top: int, n: int, bits: int | None):
    """transform(seq, n) in _wide(bits) on owner a's coefficients as the
    transforms read them: a CoeffSeq's entries, with a float as its exact
    Fraction and a complex as an mpc, or a quadrature-backed symbol's table
    over 0..top at bits.

    Float sums round at 53 bits whatever mp.workprec says, while the
    matrices read the same floats exactly.
    """
    if isinstance(a, CoeffSeq):
        seq = {
            k: Fraction(v) if isinstance(v, float) else mp.mpc(v) if isinstance(v, complex) else v
            for k, v in a.entries.items()
        }
    else:
        seq = a.coeff_table(0, top, bits)
    with _wide(bits):
        return transform(seq, n)


_ZERO = Fraction(0)


def _residuals(lhs, rhs, bits):
    """(|lhs - rhs|, |lhs - rhs| / max(|lhs|, |rhs|)): Fractions for rational
    sides, mpf at 2*bits + 32 otherwise."""
    if isinstance(lhs, (int, Fraction)) and isinstance(rhs, (int, Fraction)):
        if lhs == rhs:
            return _ZERO, _ZERO
        a = abs(Fraction(lhs) - rhs)
        return a, a / max(abs(lhs), abs(rhs))
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


def _record(N, left, right, bits):
    """The record of one N: the product of the DetResults left against that
    of right, a side of one factor as its value and a product in
    _wide(bits).  In hp mode (bits not None) it claims the fewest guaranteed
    digits among the factors that have any, and fails when none has."""
    lhs, rhs = left[0].value, right[0].value
    if len(left) + len(right) > 2:
        with _wide(bits):
            for f in left[1:]:
                lhs *= f.value
            for f in right[1:]:
                rhs *= f.value
    if bits is None:
        a, rel = _residuals(lhs, rhs, bits)
        return IdentityRecord(N, lhs, rhs, a, rel, "exact", None, None, a == 0)
    digits = [f.digits_guaranteed for f in left + right if f.digits_guaranteed]
    # with no guaranteed digit on either side, agreement proves nothing
    dg = min(digits, default=0)
    lhs, rhs = _drop_noise(lhs, dg), _drop_noise(rhs, dg)
    a, rel = _residuals(lhs, rhs, bits)
    ok = bool(digits) and rel < mp.mpf(10) ** (-(dg / 2))
    return IdentityRecord(N, lhs, rhs, a, rel, "hp", bits, dg, ok)


# -- one row per identity ----------------------------------------------------


def _sweep(Ns, bits, lhs, rhs):
    """One record per N: the product of the determinants of lhs's matrices
    against that of rhs's.

    Builders make each matrix once, at k * max(Ns) for k = 1 or 2; at N it
    stands for its leading block of order k * N.  leading_minors gives every
    block of one matrix from one pass and keeps it on the matrix, so a
    matrix named twice on a side still runs one pass.
    """
    top = max(Ns)

    def dets(side):
        return zip(*(leading_minors(M, [M.order // top * N for N in Ns], bits) for M in side))

    return [_record(N, left, right, bits) for N, left, right in zip(Ns, dets(lhs), dets(rhs))]


@dataclass(frozen=True)
class _Identity:
    """One row of _IDENTITIES: species is the input the kind takes ("even",
    "odd" or "moment"), applies(inp) verify_all's gate, exact whether the
    kind has an exact mode, and build(a, n, bits, notes) gives the two sides
    at order n, laid out of the owner a at bits, or exactly when bits is
    None: (lhs, rhs), each a tuple of matrices whose determinants multiply.
    Each matrix builder takes its field from its own source at those bits
    (matrices._build)."""

    species: str
    applies: Callable
    exact: bool
    build: Callable


_IDENTITIES = {}  # IdentityKind -> _Identity, filled by @_identity


def _is_odd(inp):
    return isinstance(inp, (ScalarSeq, symbols.FourierSymbol)) and inp.symmetry == "odd"


# species -> gate; an even input is neither a moment symbol nor odd
_GATES = {
    "even": lambda inp: not isinstance(inp, MomentSymbol) and not _is_odd(inp),
    "odd": _is_odd,
    "moment": lambda inp: isinstance(inp, MomentSymbol),
}


def _identity(kind, species, exact=True, requires=None):
    """Decorator: the builder below it is kind's row, gated by its species'
    gate and, when given, by requires(inp) on an input that passes it."""
    gate = _GATES[species]
    applies = gate if requires is None else lambda inp: gate(inp) and requires(inp)

    def register(build):
        _IDENTITIES[kind] = _Identity(species, applies, exact, build)
        return build

    return register


def _even_support(inp):
    """Whether every odd-index coefficient of an even input vanishes; an
    input that is neither a symbol nor a sequence passes, so that _owner
    says what it cannot take."""
    if isinstance(inp, symbols.FourierSymbol):
        return inp.even_support()
    entries = getattr(inp, "entries", inp)
    return not isinstance(entries, dict) or all(n % 2 == 0 for n in entries)


@_identity(IdentityKind.HankelCongruence, "even")
def _hankel_congruence(a, n, bits, notes):
    b = _transform(a_to_b, a, 2 * n + 2, 2 * n, bits)
    return (toeplitz_plus_hankel(a, n, bits=bits),), (hankel_moment(b, n, bits=bits),)


@_identity(IdentityKind.THvsMoment, "even", exact=False)
def _th_vs_moment(a, n, bits, notes):
    b = th_to_moment_symbol(a)
    return (toeplitz_plus_hankel(a, n, bits=bits),), (hankel_moment(b, n, bits=bits),)


@_identity(IdentityKind.QuarterWave, "even", requires=_even_support)
def _quarter_wave(a, n, bits, notes):
    d = halve_argument(a)
    return (toeplitz_plus_hankel(a, n, bits=bits),), (toeplitz(d, n, bits=bits),)


@_identity(
    IdentityKind.MomentToToeplitz,
    "moment",
    exact=False,
    requires=lambda b: b.weight == "sqrt_ratio" and b.parity == "even",
)
def _moment_to_toeplitz(b, n, bits, notes):
    if b.weight != "sqrt_ratio":
        raise SpeciesError("the sqrt((1+x)/(1-x)) weight is required")
    return (hankel_moment(b, n, bits=bits),), (toeplitz(symbols._halfangle(b), n, bits=bits),)


@_identity(IdentityKind.SkewSquare, "even")
def _skew_square(a, n, bits, notes):
    c = _transform(a_to_c, a, 2 * n, 2 * n - 1, bits)
    T2 = toeplitz(c, 2 * n, bits=bits)
    A = toeplitz_plus_hankel(a, n, bits=bits)
    return (T2,), (A, A)


@_identity(IdentityKind.CSeqSquare, "odd")
def _cseq_square(c, n, bits, notes):
    note = (
        "sequence-level input: the identity is a finite-matrix statement and "
        "does not require the sequence to come from an L1 symbol"
    )
    if note not in notes:
        notes.append(note)
    b = _transform(c_to_b, c, 2 * n - 1, 2 * n - 1, bits)
    T2 = toeplitz(c, 2 * n, bits=bits)
    H = hankel_moment(b, n, bits=bits)
    return (T2,), (H, H)


@_identity(IdentityKind.MomentSkewSquare, "moment", exact=False)
def _moment_skew_square(b, n, bits, notes):
    T2 = toeplitz(moment_to_skew_symbol(b), 2 * n, bits=bits)
    H = hankel_moment(b, n, bits=bits)
    return (T2,), (H, H)


@_identity(IdentityKind.ParitySplitEven, "even", requires=_even_support)
def _parity_split_even(a, n, bits, notes):
    d = halve_argument(a)
    T2 = toeplitz(a, 2 * n, bits=bits)
    T = toeplitz(d, n, bits=bits)
    return (T2,), (T, T)


@_identity(IdentityKind.ParitySplitChi, "even", exact=False, requires=_even_support)
def _parity_split_chi(a, n, bits, notes):
    d = halve_argument(a)
    d1 = SymbolProduct((JumpT(-0.5), d))
    d2 = SymbolProduct((JumpT(0.5), d))
    T2 = toeplitz(multiply_by_chi(a), 2 * n, bits=bits)
    # tagged general, the left side keeps the skew elimination (docstring)
    T2 = StructuredMatrix(T2.rows, T2.field, check=False)
    return (T2,), (toeplitz(d1, n, bits=bits), toeplitz(d2, n, bits=bits))


def _sides(kind, inp, n, bits, notes):
    """kind's two sides at order n on inp, from its row's builder on the
    owner of inp at bits (None: exact); SpeciesError on an input it cannot
    take."""
    row = _IDENTITIES[kind]
    return row.build(_owner(inp, row.species, bits), n, bits, notes)


def _report(kind, mode, bits, records, notes):
    """An IdentityReport that passes when every record does."""
    verdict = "pass" if all(r.ok for r in records) else "fail"
    return IdentityReport(kind, mode, bits, records, notes, verdict)


def verify(kind, inp, N_values, mode: str = "exact", bits: int | None = None) -> IdentityReport:
    """Check one identity over the given matrix sizes.

    N_values may be an int (meaning 1..N) or an explicit list.  mode is
    "exact" or "hp"; integral-backed kinds run hp regardless, with a note.
    """
    kind = IdentityKind(kind)
    Ns = _n_list(N_values)
    if mode not in ("exact", "hp"):
        raise ValueError("mode must be exact or hp")
    bits = _bits(bits)
    row = _IDENTITIES[kind]
    notes = []
    if mode == "exact" and not row.exact:
        notes.append(
            "no exact arithmetic for integral-backed data; running hp at %d bits"
            % bits
        )
        mode = "hp"
    bits = bits if mode == "hp" else None  # exact mode from here on is bits None
    lhs, rhs = _sides(kind, inp, max(Ns), bits, notes)
    return _report(kind.value, mode, bits, _sweep(Ns, bits, lhs, rhs), notes)


def _abs(res):
    return DetResult(abs(res.value), res.method, res.digits_guaranteed)


def pfaffian_link(b: MomentSymbol, N_values, bits: int | None = None) -> IdentityReport:
    """Pf(T_2N(c))^2 = det T_2N(c) and |Pf(T_2N(c))| = |det H_N[b]|.

    Two records per N: the Pfaffian-square check, then the cross-family
    magnitude check against the Hankel moment determinant.  The matrices
    are moment_skew_square's, and so are their leading-minor passes when
    that kind ran on b at the same N and bits; pfaffian runs once per N.
    """
    Ns = _n_list(N_values)
    bits = _bits(bits)
    (T2n,), (Hn, _) = _sides(IdentityKind.MomentSkewSquare, b, max(Ns), bits, [])
    records = []
    detTs = leading_minors(T2n, [2 * N for N in Ns], bits)
    detHs = leading_minors(Hn, Ns, bits)
    for N, detT, detH in zip(Ns, detTs, detHs):
        # pfaffian gives a bare value: a factor with no guaranteed digits
        pf = DetResult(pfaffian(T2n.leading(2 * N)), "pfaffian")
        records.append(_record(N, (pf, pf), (detT,), bits))
        # the magnitude record takes abs and 10^(-dg/2) at 2*bits+32
        with mp.workprec(2 * bits + 32):
            records.append(_record(N, (_abs(pf),), (_abs(detH),), bits))
    return _report("pfaffian_link", "hp", bits, records, [])


def verify_all(inp, N_max, mode: str = "exact", bits: int | None = None):
    """Run every kind whose row takes the input; the others get a skipped report."""
    bits = _bits(bits)
    reports = []
    for kind in IdentityKind:
        row = _IDENTITIES[kind]
        skipped = None
        try:
            if not row.applies(inp):
                skipped = "species mismatch; skipped"
            elif mode == "exact" and not row.exact:
                skipped = "integral-backed kind has no exact mode; skipped"
            else:
                rep = verify(kind, inp, N_max, mode, bits)
        except SpeciesError as exc:
            skipped = str(exc)
        except Exception as exc:
            note = "%s: %s" % (type(exc).__name__, exc)
            rep = IdentityReport(kind.value, mode, bits, [], [note], "error")
        if skipped is not None:
            rep = IdentityReport(kind.value, mode, None, [], [skipped], "skipped")
        reports.append(rep)
    return reports
