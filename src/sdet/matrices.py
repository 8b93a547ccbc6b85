"""Finite structured matrices built from symbols and sequences.

Builders produce dense StructuredMatrix values over an explicit field (exact
rationals or high-precision reals/complexes), laid out of one coefficient
table per matrix.  _build is where a matrix's field is decided, and the
one caller of scalars.infer_field in the package: the caller's field when
given, else the field of the matrix's own source at the caller's bits,
rational when bits is None and every entry is.  Each index of the table is
coerced once, so the diagonals (or anti-diagonals) are constant by
construction: each row of a Toeplitz or Hankel matrix is a slice of one
line of the table.  A rational matrix is
held as integer rows over one positive common denominator: a builder clears
its table once by transforms._over_one_den (den is the lcm of the table's
denominators) and lays out the numerators, so a Toeplitz+Hankel entry is an
int sum.  Fractions appear only when a caller reads rows.  Every matrix goes
through one private constructor over held entries (integer rows over den,
or mp rows), StructuredMatrix._held: a builder's layout, a leading block, a
checkerboard half, and the caller's rows once StructuredMatrix() has
validated them and cleared their denominators the same way.  The
constructor checks the claimed structure of a matrix built from a caller's
own rows, and toeplitz checks the symmetry that the source promises on the
table: an even symbol gives a symmetric matrix, an odd one a skewsymmetric
one.  An hp matrix asked for with neither bits nor a field takes 256 bits;
hankel_moment passes max(128, 12N) as the bits of a MomentSymbol.  Storage
is dense; determinants.leading_minors reads only the first row and column
of an hp Toeplitz matrix and eliminates a copy of the others.

A matrix is read-only: its rows (and a rational matrix's ints) are tuples,
and tolist() gives a mutable copy.  So a matrix can be shared: called with
a symbol, toeplitz, hankel, toeplitz_plus_hankel and hankel_moment build
the matrix once per (family, N, field) and keep it on the symbol, with
symbols' other derived values, and determinants.leading_minors keeps the
passes it ran on the matrix.  Both go when the symbol goes; nothing is kept
process-wide.  A plain dict or ScalarSeq has no such store and gets a new
matrix per call.

The leading k x k block of a size-N Toeplitz, Hankel, Toeplitz+Hankel or
Hankel moment matrix is the size-k matrix of the same source, so a walk over
N builds once at the largest size and reads the rest with
StructuredMatrix.leading; tables are filled once.
"""

from contextlib import nullcontext
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import fzero, mpf_neg

from . import scalars, symbols, transforms
from .scalars import Field, coerce, infer_field, rational, to_mp


class StructureError(ValueError):
    """Entries contradict the claimed matrix structure."""


_TAGS = (
    "toeplitz",
    "hankel",
    "hankel_moment",
    "toeplitz_plus_hankel",
    "flip",
    "general",
)


def _bound_for(field: Field, values):
    """Largest entry difference that structure checks forgive.

    0 over exact fields; otherwise 2^-(bits/2) times the larger of 1
    and the largest of the values.
    """
    if field.is_exact:
        return 0
    scale = max(abs(v) for v in values)
    return mp.mpf(2) ** (-(field.bits // 2)) * max(scale, 1)


def _negated(x, y):
    """x == -y exactly: rationals as they are, mp values on their raw
    (real, imaginary) tuples, since mp negation rounds."""
    if isinstance(x, mp.mpf) and isinstance(y, mp.mpf):
        return x._mpf_ == mpf_neg(y._mpf_)
    if isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction)):
        return x == -y
    x, y = [(v._mpf_, fzero) if isinstance(v, mp.mpf) else getattr(v, "_mpc_", v) for v in (x, y)]
    return x == (tuple(map(mpf_neg, y)) if isinstance(y, tuple) else -y)


def _is_skew(rows, bits=None, toeplitz=False):
    """a_ji = -a_ij for every i <= j: the one skewsymmetry rule.

    Rationals (bits None) compare exactly; hp values compare after both are
    rounded to bits, as scalars.to_mp rounds, so guard bits do not count.
    Equal values stay equal at any precision, so each pair is compared
    exactly first, and only a mismatch is rounded.  On a Toeplitz matrix
    (toeplitz true) every pair is one of its first row and column, so only
    those are compared.
    """
    if toeplitz:
        pairs = zip(rows[0], (row[0] for row in rows))
    else:
        pairs = ((row[j], rows[j][i]) for i, row in enumerate(rows) for j in range(i, len(rows)))
    return all(_negated(x, y) or bits and _negated(to_mp(x, bits), to_mp(y, bits)) for x, y in pairs)


class StructuredMatrix:
    """A square matrix over a field, tagged with its structure.

    Over the rationals the entries are held as integer rows ints over one
    positive common denominator den: entry (j, k) is ints[j][k] / den.  rows
    is a read-only view of the entries, as Fractions over the rationals
    (made on first read and kept) and as mp values over hp fields, where
    ints and den are None.  rows and ints are tuples of tuples; _minors
    holds the leading-minor passes that determinants.leading_minors ran.
    """

    __slots__ = ("order", "field", "structure", "ints", "den", "_rows", "_minors")

    def __init__(self, rows, field: Field, structure: str = "general", check: bool = True):
        """A matrix of the caller's rows, checked against structure when check
        is true; rational rows are cleared to integer rows over one den."""
        if structure not in _TAGS:
            raise ValueError("unknown structure tag %r" % (structure,))
        order = len(rows)
        if order < 1 or any(len(r) != order for r in rows):
            raise ValueError("matrix must be square and nonempty")
        den = None
        if field.is_exact:
            if not all(scalars.is_exact_scalar(v) for r in rows for v in r):
                raise TypeError("a rational matrix needs int or Fraction entries")
            ints, den = transforms._over_one_den([v for r in rows for v in r])
            rows = [ints[j : j + order] for j in range(0, order * order, order)]
        self._hold(rows, field, structure, den, check)

    @classmethod
    def _held(cls, grid, field: Field, structure: str, den: int | None, check: bool = False):
        """The matrix of entries already held: integer rows over den for a
        rational field, mp rows otherwise; unchecked unless check."""
        m = cls.__new__(cls)
        m._hold(grid, field, structure, den, check)
        return m

    def _hold(self, grid, field, structure, den, check):
        grid = tuple(map(tuple, grid))
        self.order = len(grid)
        self.field = field
        self.structure = structure
        self.ints, self.den, self._rows = (grid, den, None) if field.is_exact else (None, None, grid)
        self._minors = {}
        if check:
            self._check_structure()

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            den = self.den
            self._rows = tuple(tuple(Fraction(x, den) for x in r) for r in self.ints)
        return self._rows

    def _grid(self) -> tuple:
        """The entries as held: ints over the rationals, rows otherwise."""
        return self.rows if self.ints is None else self.ints

    def _entry_bound(self):
        """_bound_for over the entries of this matrix."""
        return _bound_for(self.field, (v for row in self._grid() for v in row))

    def _check_structure(self):
        n = self.order
        rows = self._grid()
        bound = self._entry_bound()
        if self.structure in ("toeplitz",):
            for i in range(1, n):
                for j in range(1, n):
                    if abs(rows[i][j] - rows[i - 1][j - 1]) > bound:
                        raise StructureError("not constant along diagonals")
        elif self.structure in ("hankel", "hankel_moment"):
            for i in range(n - 1):
                for j in range(1, n):
                    if abs(rows[i][j] - rows[i + 1][j - 1]) > bound:
                        raise StructureError("not constant along anti-diagonals")

    def leading(self, n: int) -> "StructuredMatrix":
        """The leading n x n block, over the same field and unchecked, since
        this matrix has its structure.  A flip's block is general; the other
        families are closed under leading blocks and keep their tag.
        """
        if not 1 <= n <= self.order:
            raise ValueError("leading block order must be in 1..%d" % self.order)
        structure = "general" if self.structure == "flip" else self.structure
        return StructuredMatrix._held((row[:n] for row in self._grid()[:n]), self.field, structure, self.den)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def tolist(self) -> list:
        return [list(r) for r in self.rows]

    def is_symmetric(self) -> bool:
        n = self.order
        rows = self._grid()
        bound = self._entry_bound()
        return all(
            abs(rows[i][j] - rows[j][i]) <= bound
            for i in range(n)
            for j in range(i + 1, n)
        )

    def is_skew(self) -> bool:
        """_is_skew at the field's bits: the rule by which leading_minors picks
        its skew engines and pfaffian accepts a matrix."""
        return _is_skew(self._grid(), self.field.bits)

    def to_json(self) -> dict:
        """Each entry as [real, imaginary] text, by scalars.format_scalar:
        rationals exactly, hp values to the field's decimal digits."""
        if self.field.is_exact:
            digits = 0
            tag = "rational"
        else:
            digits = int(self.field.bits * 0.30103) + 3
            tag = {"bits": self.field.bits, "tag": self.field.tag}
        entries = []
        for row in self.rows:
            for v in row:
                parts = (v.real, v.imag) if isinstance(v, (complex, mp.mpc)) else (v, 0)
                entries.append([scalars.format_scalar(p, digits) for p in parts])
        return {"order": self.order, "field": tag, "entries": entries}

    def __repr__(self):
        return "StructuredMatrix(order=%d, %s, %r)" % (
            self.order,
            self.field,
            self.structure,
        )


def _drop_tiny_imag(v, bits: int):
    if isinstance(v, mp.mpc):
        bound = mp.mpf(2) ** (-(bits // 2)) * max(abs(v), mp.mpf(1))
        if abs(v.imag) > bound:
            raise TypeError("entry %s is not real" % (mp.nstr(v, 12),))
        return v.real
    return v


def _coeff_table(a, lo: int, hi: int, field: Field) -> dict:
    """{n: a_n} for lo <= n <= hi in the target field, each coerced once.

    Sequences store both signs of an even or odd sequence already.
    """
    entries = a if isinstance(a, dict) else getattr(a, "entries", None)
    if entries is not None:
        # ScalarSeq indexing also rejects indices below 1 of a one_sided sequence
        get = a.__getitem__ if isinstance(a, transforms.ScalarSeq) else lambda n: entries.get(n, 0)
        return {n: coerce(get(n), field) for n in range(lo, hi + 1)}
    moments = isinstance(a, symbols.MomentSymbol)
    if not (moments or isinstance(a, symbols.FourierSymbol)):
        raise TypeError("cannot read coefficients from %r" % (type(a),))
    if field.is_exact:
        source = "moment integrals" if moments else "quadrature-backed symbols"
        raise TypeError("%s cannot fill a rational matrix" % source)
    if moments:
        table = a.moment_table(hi, field.bits)
    else:
        table = a.coeff_table(lo, hi, field.bits)
    # mp constructors round to the ambient precision, so widen first
    with mp.workprec(field.bits + 32):
        if field.tag == scalars.HP_REAL:
            table = {n: _drop_tiny_imag(v, field.bits) for n, v in table.items()}
        else:
            table = {n: mp.mpc(v) for n, v in table.items()}
    return table


def _build(a, N: int, field, bits, lo: int, hi: int, structure: str, layout, check=None):
    """The N x N matrix with rows layout(c, N) of c, the table of a over
    [lo, hi] (over the rationals, the table's numerators over the matrix's
    den), once check(c, field), if given, has passed.  A symbol keeps the
    matrix, one per structure, N and field (symbols._once)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    field = field or infer_field(a, 256 if bits is None else bits, exact=bits is None)

    def build():
        c = _coeff_table(a, lo, hi, field)
        den = None
        if field.is_exact:
            # the table over one denominator: entry sums are int sums
            ints, den = transforms._over_one_den(list(c.values()))
            c = dict(zip(c, ints))
        if check:
            check(c, field)
        # constant along (anti-)diagonals by construction, so unchecked; sums
        # of hp entries (T+H) must not round at ambient precision
        with mp.workprec(field.bits + 32) if den is None else nullcontext():
            rows = layout(c, N)
        return StructuredMatrix._held(rows, field, structure, den)

    if isinstance(a, (symbols.FourierSymbol, symbols.MomentSymbol)):
        return symbols._once(a, (structure, N, field), build)
    return build()


def _toeplitz_rows(c, N: int):
    """(c_{j-k}): row j is a slice of the line c_{N-1}, ..., c_{-(N-1)}."""
    line = tuple(c[n] for n in range(N - 1, -N, -1))
    return [line[N - 1 - j : 2 * N - 1 - j] for j in range(N)]


def _hankel_rows(c, N: int):
    """(c_{j+k+1}): row j is a slice of the line c_1, ..., c_{2N-1}."""
    line = tuple(c[n] for n in range(1, 2 * N))
    return [line[j : j + N] for j in range(N)]


def toeplitz(a, N: int, field: Field | None = None, bits: int | None = None) -> StructuredMatrix:
    """T_N(a) = (a_{j-k}), j,k = 0..N-1.

    Without field or bits the matrix is exact when the entries are rational;
    otherwise the field comes from scalars.infer_field at bits (default 256).
    hankel, toeplitz_plus_hankel and hankel_moment use the same rule, except
    that hankel_moment of a MomentSymbol defaults to max(128, 12N) bits.
    """
    sym = getattr(a, "symmetry", None)

    def check(c, field):
        bound = _bound_for(field, c.values())
        if sym == "even" and any(abs(c[-n] - c[n]) > bound for n in range(1, N)):
            raise StructureError("even symbol must give a symmetric Toeplitz matrix")
        if sym == "odd" and any(abs(c[-n] + c[n]) > bound for n in range(N)):
            raise StructureError("odd symbol must give a skewsymmetric Toeplitz matrix")

    return _build(a, N, field, bits, -(N - 1), N - 1, "toeplitz", _toeplitz_rows, check=check)


def hankel(a, N: int, field: Field | None = None, bits: int | None = None) -> StructuredMatrix:
    """H_N(a) = (a_{j+k+1}), using coefficient indices 1..2N-1."""
    return _build(a, N, field, bits, 1, 2 * N - 1, "hankel", _hankel_rows)


def toeplitz_plus_hankel(
    a, N: int, field: Field | None = None, bits: int | None = None
) -> StructuredMatrix:
    """A_N = (a_{j-k} + a_{j+k+1}); requires an even symbol."""
    if isinstance(a, dict):
        a = transforms.ScalarSeq(a, "even")
    sym = getattr(a, "symmetry", None)
    if sym != "even":
        if not (
            isinstance(a, symbols.FourierSymbol) and symbols.certify_even(a)
        ):
            raise symbols.SpeciesError("toeplitz_plus_hankel needs an even symbol")
    return _build(
        a, N, field, bits, -(N - 1), 2 * N - 1, "toeplitz_plus_hankel",
        lambda c, N: [[c[j - k] + c[j + k + 1] for k in range(N)] for j in range(N)],
    )


def hankel_moment(b, N: int, field: Field | None = None, bits: int | None = None) -> StructuredMatrix:
    """H_N[b] = (b_{1+j+k}) from a MomentSymbol or explicit moments."""
    if isinstance(b, symbols.MomentSymbol) and field is None and bits is None:
        bits = max(128, 12 * N)
    return _build(b, N, field, bits, 1, 2 * N - 1, "hankel_moment", _hankel_rows)


def flip(N: int, field: Field | None = None) -> StructuredMatrix:
    """The reversal permutation W_N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    field = field or rational()
    one = coerce(1, field) if field.is_exact else scalars.to_mp(1, field.bits)
    zero = coerce(0, field) if field.is_exact else scalars.to_mp(0, field.bits)
    rows = [[one if j == N - 1 - k else zero for k in range(N)] for j in range(N)]
    return StructuredMatrix(rows, field, "flip")


def checkerboard_split(M: StructuredMatrix, parity: str):
    """Parity rearrangement of a T_{2N} whose other coefficient class vanishes.

    parity names the surviving class.  "even_entries" returns the two
    diagonal blocks (both equal to T_N of the argument-halved symbol);
    "odd_entries" returns the anti-diagonal blocks D1 = (c_{2(j-k)+1}) and
    D2 = (c_{2(j-k)-1}), with det T_{2N} = (-1)^N det D1 det D2.
    """
    if M.structure != "toeplitz":
        raise ValueError("checkerboard_split needs a Toeplitz matrix")
    if M.order % 2:
        raise ValueError("checkerboard_split needs even order")
    if parity not in ("even_entries", "odd_entries"):
        raise ValueError("parity must be even_entries or odd_entries")
    N = M.order // 2
    rows = M._grid()
    bound = M._entry_bound()
    # coefficient c_d sits at any (j, k) with j - k = d
    want_zero_residue = 1 if parity == "even_entries" else 0
    for d in range(-(2 * N - 1), 2 * N):
        if d % 2 != want_zero_residue % 2:
            continue
        j, k = (d, 0) if d >= 0 else (0, -d)
        if abs(rows[j][k]) > bound:
            raise StructureError(
                "coefficient c_%d should vanish but is %s"
                % (d, scalars.format_scalar(M.rows[j][k], 8))
            )
    if parity == "even_entries":
        offsets = ((0, 0), (1, 1))
    else:
        offsets = ((1, 0), (0, 1))
    blocks = ([[rows[2 * j + r][2 * k + q] for k in range(N)] for j in range(N)] for r, q in offsets)
    return tuple(StructuredMatrix._held(b, M.field, "toeplitz", M.den, check=True) for b in blocks)
