"""Finite structured matrices built from symbols and sequences.

Builders produce dense row-major StructuredMatrix values over an explicit
field (exact rationals or high-precision reals/complexes), laid out of one
coefficient table per matrix, with each index coerced once, so their
diagonals (or anti-diagonals) are constant by construction.  The constructor
checks the claimed structure of a matrix built from a caller's own rows, and
toeplitz checks the symmetry that the source promises on the table: an even
symbol gives a symmetric matrix, an odd one a skewsymmetric one.  Storage is dense; determinants.leading_minors reads only the first
row and column of an hp Toeplitz matrix and eliminates a copy of the others.

The leading k x k block of a size-N Toeplitz, Hankel, Toeplitz+Hankel or
Hankel moment matrix is the size-k matrix of the same source, so a walk over
N builds once at the largest size and reads the rest with
StructuredMatrix.leading; tables are filled once.
"""

from fractions import Fraction

import mpmath as mp

from . import scalars, symbols, transforms
from .scalars import Field, coerce, infer_field, rational


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


class StructuredMatrix:
    __slots__ = ("order", "field", "structure", "rows")

    def __init__(self, rows, field: Field, structure: str = "general", check: bool = True):
        if structure not in _TAGS:
            raise ValueError("unknown structure tag %r" % (structure,))
        order = len(rows)
        if order < 1 or any(len(r) != order for r in rows):
            raise ValueError("matrix must be square and nonempty")
        self.order = order
        self.field = field
        self.structure = structure
        self.rows = [list(r) for r in rows]
        if check:
            self._check_structure()

    def _entry_bound(self):
        """_bound_for over the entries of this matrix."""
        return _bound_for(self.field, (v for row in self.rows for v in row))

    def _check_structure(self):
        n = self.order
        rows = self.rows
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
        rows = [row[:n] for row in self.rows[:n]]
        return StructuredMatrix(rows, self.field, structure, check=False)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def tolist(self) -> list:
        return [list(r) for r in self.rows]

    def is_symmetric(self) -> bool:
        n = self.order
        bound = self._entry_bound()
        return all(
            abs(self.rows[i][j] - self.rows[j][i]) <= bound
            for i in range(n)
            for j in range(i + 1, n)
        )

    def is_skew(self) -> bool:
        n = self.order
        bound = self._entry_bound()
        return all(
            abs(self.rows[i][j] + self.rows[j][i]) <= bound
            for i in range(n)
            for j in range(i, n)
        )

    def to_json(self) -> dict:
        if self.field.is_exact:
            digits = 0
            tag = "rational"
        else:
            digits = int(self.field.bits * 0.30103) + 3
            tag = {"bits": self.field.bits, "tag": self.field.tag}
        entries = []
        for row in self.rows:
            for v in row:
                if isinstance(v, (int, Fraction)):
                    entries.append([scalars.format_scalar(v), "0"])
                elif isinstance(v, mp.mpc):
                    entries.append(
                        [mp.nstr(v.real, digits), mp.nstr(v.imag, digits)]
                    )
                else:
                    entries.append([mp.nstr(v, digits), "0"])
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


def _build(a, N: int, field, bits, lo: int, hi: int, structure: str, entry, default_bits=256):
    """The N x N matrix (entry(c, j, k)) and c, the table of a over [lo, hi]."""
    if N < 1:
        raise ValueError("N must be >= 1")
    field = field or infer_field(a, bits or default_bits, exact=bits is None)
    c = _coeff_table(a, lo, hi, field)
    # sums of entries (T+H) must not round at ambient precision
    with mp.workprec((field.bits or 0) + 32):
        rows = [[entry(c, j, k) for k in range(N)] for j in range(N)]
    # constant along (anti-)diagonals by construction, so unchecked
    return StructuredMatrix(rows, field, structure, check=False), c


def toeplitz(a, N: int, field: Field | None = None, bits: int | None = None) -> StructuredMatrix:
    """T_N(a) = (a_{j-k}), j,k = 0..N-1.

    Without field or bits the matrix is exact when the entries are rational;
    otherwise the field comes from scalars.infer_field at bits (default 256).
    hankel, toeplitz_plus_hankel and hankel_moment use the same rule.
    """
    m, c = _build(a, N, field, bits, -(N - 1), N - 1, "toeplitz", lambda c, j, k: c[j - k])
    sym = getattr(a, "symmetry", None)
    bound = _bound_for(m.field, c.values())
    if sym == "even" and any(abs(c[-n] - c[n]) > bound for n in range(1, N)):
        raise StructureError("even symbol must give a symmetric Toeplitz matrix")
    if sym == "odd" and any(abs(c[-n] + c[n]) > bound for n in range(N)):
        raise StructureError("odd symbol must give a skewsymmetric Toeplitz matrix")
    return m


def hankel(a, N: int, field: Field | None = None, bits: int | None = None) -> StructuredMatrix:
    """H_N(a) = (a_{j+k+1}), using coefficient indices 1..2N-1."""
    return _build(a, N, field, bits, 1, 2 * N - 1, "hankel", lambda c, j, k: c[j + k + 1])[0]


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
        lambda c, j, k: c[j - k] + c[j + k + 1],
    )[0]


def hankel_moment(b, N: int, field: Field | None = None, bits: int | None = None) -> StructuredMatrix:
    """H_N[b] = (b_{1+j+k}) from a MomentSymbol or explicit moments."""
    default_bits = max(128, 12 * N) if isinstance(b, symbols.MomentSymbol) else 256
    return _build(
        b, N, field, bits, 1, 2 * N - 1, "hankel_moment", lambda c, j, k: c[1 + j + k],
        default_bits,
    )[0]


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
    rows = M.rows
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
                % (d, scalars.format_scalar(rows[j][k], 8))
            )
    if parity == "even_entries":
        b1 = [[rows[2 * j][2 * k] for k in range(N)] for j in range(N)]
        b2 = [[rows[2 * j + 1][2 * k + 1] for k in range(N)] for j in range(N)]
        return (
            StructuredMatrix(b1, M.field, "toeplitz"),
            StructuredMatrix(b2, M.field, "toeplitz"),
        )
    d1 = [[rows[2 * j + 1][2 * k] for k in range(N)] for j in range(N)]
    d2 = [[rows[2 * j][2 * k + 1] for k in range(N)] for j in range(N)]
    return (
        StructuredMatrix(d1, M.field, "toeplitz"),
        StructuredMatrix(d2, M.field, "toeplitz"),
    )
