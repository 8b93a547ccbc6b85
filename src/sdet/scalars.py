"""Scalar fields shared by every module: exact rationals and mpmath floats.

A "field" is a tag that travels with matrices and reports so that exact and
high-precision results are never mixed silently.  Conversion is one way:
rational data may be pushed into an hp field at full precision, never back.
"""

from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_float, from_int, fzero, mpf_div, mpf_pos

RATIONAL = "rational"
HP_REAL = "hp_real"
HP_COMPLEX = "hp_complex"


class Field:
    __slots__ = ("tag", "bits")

    def __init__(self, tag: str, bits: int | None = None):
        if tag == RATIONAL:
            if bits is not None:
                raise ValueError("rational field carries no precision")
        elif tag in (HP_REAL, HP_COMPLEX):
            if bits is None or bits < 64:
                raise ValueError("hp fields need bits >= 64")
        else:
            raise ValueError("unknown field tag %r" % (tag,))
        self.tag = tag
        self.bits = bits

    @property
    def is_exact(self) -> bool:
        return self.tag == RATIONAL

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.tag == other.tag
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash((self.tag, self.bits))

    def __repr__(self):
        if self.is_exact:
            return "Field(rational)"
        return "Field(%s, bits=%d)" % (self.tag, self.bits)


def rational() -> Field:
    return Field(RATIONAL)


def hp_real(bits: int) -> Field:
    return Field(HP_REAL, bits)


def hp_complex(bits: int) -> Field:
    return Field(HP_COMPLEX, bits)


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction))


def is_real_scalar(x) -> bool:
    if isinstance(x, (int, float, Fraction, mp.mpf)):
        return True
    if isinstance(x, (complex, mp.mpc)):
        return complex(x).imag == 0.0
    return False


def infer_field(source, bits: int, exact: bool = False) -> Field:
    """The field that holds the coefficients or moments of source.

    source is a coefficient dict, anything with an ``entries`` map (ScalarSeq,
    CoeffSeq), or a symbol with a ``real`` flag.  The result is rational when
    exact is asked for and every entry is rational; otherwise hp_real at bits
    when every coefficient is real, hp_complex when not.  A symbol counts as
    real when the coefficients it computes are real numbers (closed forms, or
    quadrature in real arithmetic).
    """
    entries = source if isinstance(source, dict) else getattr(source, "entries", None)
    if entries is None:
        real = getattr(source, "real", None)
        if not isinstance(real, bool):
            raise TypeError("cannot infer a field for %r" % (type(source),))
    else:
        if exact and all(is_exact_scalar(v) for v in entries.values()):
            return rational()
        real = all(is_real_scalar(v) for v in entries.values())
    return Field(HP_REAL if real else HP_COMPLEX, bits)


def to_mp(x, bits: int):
    """Convert a scalar to mpf/mpc, rounded to nearest at bits.

    The value is the one mp.mpf / mp.mpc give under mp.workprec(bits) (a
    Fraction rounds its numerator and its denominator, then their quotient),
    built from mpmath's raw libmp calls, so no precision context is entered
    and mp.prec is left as it was.
    """
    if isinstance(x, Fraction):
        num = from_int(x.numerator, bits, "n")
        return mp.make_mpf(mpf_div(num, from_int(x.denominator, bits, "n"), bits, "n"))
    if isinstance(x, int):
        return mp.make_mpf(from_int(x, bits, "n"))
    if isinstance(x, complex):
        return mp.make_mpc((from_float(x.real, bits, "n"), from_float(x.imag, bits, "n")))
    if isinstance(x, mp.mpf):
        return mp.make_mpf(mpf_pos(x._mpf_, bits, "n"))
    if isinstance(x, mp.mpc):
        re, im = x._mpc_
        return mp.make_mpc((mpf_pos(re, bits, "n"), mpf_pos(im, bits, "n")))
    if isinstance(x, float):
        return mp.make_mpf(from_float(x, bits, "n"))
    raise TypeError("cannot convert %r to mp scalar" % (type(x),))


def coerce(x, field: Field):
    """Coerce a scalar into the field; rational targets reject inexact input."""
    if field.is_exact:
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, Fraction):
            return x
        raise TypeError("inexact scalar %r cannot enter the rational field" % (x,))
    v = to_mp(x, field.bits)
    if field.tag == HP_REAL:
        if isinstance(v, mp.mpc):
            if v.imag != 0:
                raise TypeError("complex scalar cannot enter hp_real")
            v = v.real
    elif isinstance(v, mp.mpf):
        v = mp.make_mpc((v._mpf_, fzero))
    return v


def format_scalar(x, digits: int = 20) -> str:
    """Decimal string with a fixed digit count; rationals stay exact ("p/q")."""
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return "%d/%d" % (x.numerator, x.denominator)
    if isinstance(x, complex):
        x = mp.mpc(x)
    if isinstance(x, mp.mpc):
        if x.imag == 0:
            return mp.nstr(x.real, digits)
        return "(%s%s%sj)" % (
            mp.nstr(x.real, digits),
            "+" if x.imag >= 0 else "-",
            mp.nstr(abs(x.imag), digits),
        )
    if isinstance(x, mp.mpf):
        # mp.mpf(x) would round to the ambient 53 bits
        return mp.nstr(x, digits)
    return mp.nstr(mp.mpf(x), digits)
