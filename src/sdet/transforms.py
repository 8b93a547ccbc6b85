"""Exact sequence transforms between the a-, b- and c-sequences.

All three transforms are finite sums with binomial weights, evaluated
exactly when the input entries are rational.  Indices out of a sequence's
finite support read as zero.

On rational input, a_to_b and c_to_b clear the input's denominators once:
they sum integer numerators over the lcm of its denominators and build one
Fraction per output.  Any other input (mpf, say) is summed as it is, term
by term in the order of the formula.
"""

from fractions import Fraction
from math import comb, lcm


class ScalarSeq:
    """Sparse sequence with a symmetry flag (even, odd or one_sided)."""

    __slots__ = ("entries", "symmetry")

    def __init__(self, entries: dict, symmetry: str):
        if symmetry not in ("even", "odd", "one_sided"):
            raise ValueError("symmetry must be even, odd or one_sided")
        store = {}
        for n, v in entries.items():
            n = int(n)
            if symmetry == "one_sided" and n < 1:
                raise ValueError("one_sided sequences are indexed from 1")
            if v == 0:
                continue
            store[n] = v
        _complete_symmetric(store, symmetry, "s")
        self.entries = store
        self.symmetry = symmetry

    def __getitem__(self, n):
        n = int(n)
        if self.symmetry == "one_sided" and n < 1:
            raise IndexError("one_sided sequence has no index %d" % n)
        return self.entries.get(n, 0)

    def support(self) -> int:
        return max((abs(n) for n in self.entries), default=0)

    def values(self, n_max: int) -> list:
        return [self[n] for n in range(1, n_max + 1)]

    def __eq__(self, other):
        if not isinstance(other, ScalarSeq):
            return NotImplemented
        keys = set(self.entries) | set(other.entries)
        return self.symmetry == other.symmetry and all(
            self.entries.get(k, 0) == other.entries.get(k, 0) for k in keys
        )

    def __repr__(self):
        items = ", ".join(
            "%d: %s" % (n, self.entries[n]) for n in sorted(self.entries)
        )
        return "ScalarSeq({%s}, %r)" % (items, self.symmetry)


def _complete_symmetric(store: dict, symmetry, letter: str) -> None:
    """Fill in the negative indices of an even or odd sequence, in place.

    Entries given on both sides must agree with the symmetry; letter names
    the sequence in the error messages.
    """
    if symmetry not in ("even", "odd"):
        return
    odd = symmetry == "odd"
    if odd and store.get(0, 0) != 0:
        raise ValueError("odd sequence needs %s_0 = 0" % letter)
    for n, v in list(store.items()):
        want = -v if odd else v
        m = store.get(-n)
        if m is None:
            store[-n] = want
        elif m != want:
            raise ValueError(
                "%s sequence needs %s_{-n} = %s%s_n"
                % (symmetry, letter, "-" if odd else "", letter)
            )


def _as_seq(a, symmetry: str) -> ScalarSeq:
    """a as a ScalarSeq of the given symmetry (from a ScalarSeq, CoeffSeq or dict)."""
    if isinstance(a, ScalarSeq):
        if a.symmetry != symmetry:
            raise ValueError("an %s sequence is required" % symmetry)
        return a
    return ScalarSeq(dict(getattr(a, "entries", a)), symmetry)


def _over_one_den(values):
    """(ints, den) with values[i] = ints[i] / den, den the lcm of the
    denominators, when every value is rational (an int or Fraction); (values,
    1) as they are otherwise."""
    try:
        den = lcm(*[v.denominator for v in values])
    except AttributeError:  # a float, complex or mp value has no denominator
        return values, 1
    return [v.numerator * (den // v.denominator) for v in values], den


def a_to_b(a, n_max: int) -> ScalarSeq:
    """b_n = sum_{k=0}^{n-1} C(n-1,k) (a_{1-n+2k} + a_{2-n+2k}), n >= 1."""
    a = _as_seq(a, "even")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    # v[i + n_max - 1] = a_i for 1 - n_max <= i <= n_max
    v, den = _over_one_den([a[i] for i in range(1 - n_max, n_max + 1)])
    # s[i + n_max - 1] = a_i + a_{i+1} for 1 - n_max <= i < n_max
    s = [x + y for x, y in zip(v, v[1:])]
    out = {}
    for n in range(1, n_max + 1):
        total = sum(comb(n - 1, k) * s[n_max - n + 2 * k] for k in range(n))
        out[n] = Fraction(total, den) if den > 1 else total
    return ScalarSeq(out, "one_sided")


def a_to_c(a, n_max: int) -> ScalarSeq:
    """c_n = sum_{k=-n+1}^{n} a_k for n >= 1, c_0 = 0, odd extension."""
    a = _as_seq(a, "even")
    out = {}
    running = 0
    for n in range(1, n_max + 1):
        # widen the window by a_{-n+1} and a_n relative to c_{n-1}
        running += a[-n + 1] + a[n]
        out[n] = running
    return ScalarSeq(out, "odd")


def c_to_b(c, n_max: int) -> ScalarSeq:
    """b_n = sum_{k=0}^{floor(n/2)} (C(n-1,k) - C(n-1,k-1)) c_{n-2k}."""
    c = _as_seq(c, "odd")
    # v[m] = c_m for 1 <= m <= n_max, and c_0 = 0
    v, den = _over_one_den(c.values(n_max))
    v = [0] + v
    out = {}
    for n in range(1, n_max + 1):
        total = 0
        for k in range(n // 2 + 1):
            w = comb(n - 1, k) - (comb(n - 1, k - 1) if k >= 1 else 0)
            total += w * v[n - 2 * k]
        out[n] = Fraction(total, den) if den > 1 else total
    return ScalarSeq(out, "one_sided")


def recover_even_from_c(c, n_max: int) -> ScalarSeq:
    """An even a with a_to_c(a) = c, using a_n + a_{n-1} = c_n - c_{n-1}.

    The solution is unique only up to the choice of a_0; a_0 = c_1/2 makes
    a_1 = c_1/2 as well and keeps the sequence rational for rational c.
    """
    c = _as_seq(c, "odd")
    half = Fraction(1, 2) if isinstance(c[1], (int, Fraction)) else 0.5
    out = {0: c[1] * half}
    prev = out[0]
    for n in range(1, n_max + 1):
        prev = (c[n] - c[n - 1]) - prev
        out[n] = prev
    return ScalarSeq(out, "even")


class BinomialD:
    """Upper-triangular congruence matrix with xi(n, k) = C(n, floor(k/2)).

    Column n holds xi(n, k) at row n - k, so the diagonal is xi(n, 0) = 1.
    """

    __slots__ = ("size",)

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size

    @staticmethod
    def xi(n: int, k: int) -> int:
        return comb(n, k // 2)

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise IndexError("index out of range")
        if i > j:
            return 0
        return self.xi(j, j - i)

    def rows(self) -> list:
        return [
            [self.entry(i, j) for j in range(self.size)] for i in range(self.size)
        ]

    def __repr__(self):
        return "BinomialD(%d)" % self.size


def build_D(N: int) -> BinomialD:
    return BinomialD(N)


def congruence_check(a, N: int):
    """Max |B_N - D_N^T A_N D_N| entry; exactly zero for exact inputs.

    A_N has entries a_{j-k} + a_{j+k+1} and B_N is the Hankel matrix of the
    transformed sequence, B_N[j][k] = b_{1+j+k}.
    """
    a = _as_seq(a, "even")
    if N < 1:
        raise ValueError("N must be >= 1")
    b = a_to_b(a, 2 * N)
    A = [[a[j - k] + a[j + k + 1] for k in range(N)] for j in range(N)]
    B = [[b[1 + j + k] for k in range(N)] for j in range(N)]
    D = build_D(N).rows()
    # E = A D, then R = D^T E
    E = [
        [sum(A[i][l] * D[l][j] for l in range(N)) for j in range(N)]
        for i in range(N)
    ]
    worst = 0
    for i in range(N):
        for j in range(N):
            r = B[i][j] - sum(D[l][i] * E[l][j] for l in range(N))
            if abs(r) > abs(worst):
                worst = r
    return abs(worst)
