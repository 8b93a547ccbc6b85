"""Determinant and Pfaffian engines over exact and high-precision fields.

leading_minors(M, orders, bits) is the determinant entry point: one pass
over the largest requested block gives det of every requested leading block,
and det_auto is its one-order case.  The engine follows the entries:

- a skewsymmetric block: skewsymmetric elimination in pairs, without the
  partner search of pfaffian.  After k steps the pivot is Pf of the leading
  2k block, so det = Pf^2, and odd orders are exactly 0;
- an hp Toeplitz block: the nonsymmetric Levinson-Trench recursion in
  O(N^2) (Trench, J. SIAM 12, 1964; Bareiss, Numer. Math. 13, 1969).  It
  reads the first row and column, and its k-th step ratio is
  det T_k / det T_{k-1};
- anything else: one fraction-free Bareiss pass without pivoting, whose k-th
  pivot is the k-th leading minor.

Rational matrices are cleared of denominators row by row and eliminated over
the integers, so their minors are exact.  Over hp fields every engine keeps
det_lu's contract: it runs at bits and at 2*bits on the same entries, each
order's value is the 2*bits result rounded to bits, and digits_guaranteed
comes from the drift between the two.  An engine breaks down on a zero pivot,
on an hp pivot (or Levinson ratio) below 2^(-bits/2) times the largest entry,
or on a drift above 2^(-bits/4); that order and every later one then take the
reference path, det_bareiss or det_lu on the leading block.

det_bareiss is pivoted fraction-free elimination.  det_lu runs
partial-pivoted elimination at bits and at 2*bits.  It calls the matrix
singular (value 0, no digits) when a pivot of the 2*bits pass falls below
2^(-3*bits/2) times the largest entry, a size the bits pass cannot resolve,
and raises PrecisionError rather than return a silently wrong value when the
two passes drift apart by more than 2^(-bits/4).  Singularity is never read
off the size of the determinant itself.  The Pfaffian uses skewsymmetric
elimination with the convention Pf([[0, m], [-m, 0]]) = m.
"""

import math
from fractions import Fraction
from itertools import accumulate
from operator import floordiv, mul, truediv

import mpmath as mp

from .matrices import StructuredMatrix
from .scalars import to_mp


class PrecisionError(ArithmeticError):
    """The two-precision recheck disagreed; rerun with more bits."""

    def __init__(self, message, recommended_bits=None):
        super().__init__(message)
        self.recommended_bits = recommended_bits


class DetResult:
    __slots__ = ("value", "method", "condition", "bits", "digits_guaranteed")

    def __init__(self, value, method, condition=None, bits=None, digits_guaranteed=None):
        self.value = value
        self.method = method
        self.condition = condition
        self.bits = bits
        self.digits_guaranteed = digits_guaranteed

    def __repr__(self):
        return "DetResult(%r, method=%r, digits=%r)" % (
            self.value,
            self.method,
            self.digits_guaranteed,
        )


def _integer_rows(rows):
    """Each row times the lcm of its denominators: (integer rows, the lcms)."""
    out = []
    scales = []
    for row in rows:
        fracs = [Fraction(v) for v in row]
        l = 1
        for f in fracs:
            l = l * f.denominator // math.gcd(l, f.denominator)
        scales.append(l)
        out.append([int(f * l) for f in fracs])
    return out, scales


def det_bareiss(M: StructuredMatrix) -> DetResult:
    """Exact determinant of a rational-field matrix."""
    if not M.field.is_exact:
        raise TypeError("det_bareiss needs a rational-field matrix")
    n = M.order
    a, scales = _integer_rows(M.rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return DetResult(Fraction(0), "bareiss")
        for i in range(k + 1, n):
            aik = a[i][k]
            akk = a[k][k]
            rowi = a[i]
            rowk = a[k]
            for j in range(k + 1, n):
                rowi[j] = (akk * rowi[j] - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = a[k][k]
    return DetResult(Fraction(sign * a[n - 1][n - 1], math.prod(scales)), "bareiss")


def _lu_pass(rows, n, prec):
    """One elimination at the given precision: (det, max_piv, min_piv)."""
    with mp.workprec(prec):
        a = [[to_mp(v, prec) for v in row] for row in rows]
        det = mp.mpf(1) if all(isinstance(v, mp.mpf) for r in a for v in r) else mp.mpc(1)
        piv_max = mp.mpf(0)
        piv_min = mp.inf
        for k in range(n):
            r_best, v_best = k, abs(a[k][k])
            for r in range(k + 1, n):
                v = abs(a[r][k])
                if v > v_best:
                    r_best, v_best = r, v
            if v_best == 0:
                return mp.mpf(0) * det, piv_max, mp.mpf(0)
            if r_best != k:
                a[k], a[r_best] = a[r_best], a[k]
                det = -det
            piv = a[k][k]
            det *= piv
            piv_max = max(piv_max, abs(piv))
            piv_min = min(piv_min, abs(piv))
            for i in range(k + 1, n):
                f = a[i][k] / piv
                if f == 0:
                    continue
                rowi = a[i]
                rowk = a[k]
                for j in range(k + 1, n):
                    rowi[j] -= f * rowk[j]
        return det, piv_max, piv_min


def _max_entry(rows, prec):
    with mp.workprec(prec):
        best = mp.mpf(0)
        for row in rows:
            for v in row:
                a = abs(to_mp(v, prec))
                if a > best:
                    best = a
        return best


def _drift(d1, d2, bits):
    """Relative distance of the bits value d1 from the 2*bits value d2."""
    with mp.workprec(2 * bits):
        return abs(d1 - d2) / abs(d2) if d1 != d2 else mp.mpf(0)


def _hp_result(d2, drift, bits, method, condition=None):
    """d2 rounded to bits, with the digits that the drift guarantees."""
    cap = int(bits * 0.30103)
    with mp.workprec(2 * bits):
        digits = cap if drift == 0 else max(1, min(cap, int(-mp.log10(drift))))
    with mp.workprec(bits):
        value = +d2
    return DetResult(value, method, condition=condition, bits=bits, digits_guaranteed=digits)


def det_lu(M: StructuredMatrix, bits: int | None = None) -> DetResult:
    """Determinant with a doubled-precision recheck on the same entries."""
    if bits is None:
        if M.field.is_exact:
            bits = 256
        else:
            bits = M.field.bits
    if bits < 64:
        raise ValueError("det_lu needs at least 64 bits")
    n = M.order
    d1, piv_max, piv_min = _lu_pass(M.rows, n, bits)
    d2, _, fine_min = _lu_pass(M.rows, n, 2 * bits)
    cond = mp.inf if piv_min == 0 else piv_max / piv_min
    with mp.workprec(2 * bits):
        # a pivot the bits pass cannot resolve, relative to the largest entry
        if fine_min <= mp.mpf(2) ** (-(3 * bits // 2)) * _max_entry(M.rows, bits):
            return DetResult(mp.mpf(0), "lu", condition=cond, bits=bits, digits_guaranteed=0)
    rel = _drift(d1, d2, bits)
    if rel > mp.mpf(2) ** (-(bits // 4)):
        raise PrecisionError(
            "determinant unstable at %d bits (relative drift %s); "
            "retry with at least %d bits" % (bits, mp.nstr(rel, 5), 2 * bits),
            recommended_bits=2 * bits,
        )
    return _hp_result(d2, rel, bits, "lu", cond)


def _bareiss_pivots(a, div, tiny):
    """Fraction-free elimination of a without pivoting, in place.

    The k-th pivot is the leading (k+1) x (k+1) minor of a.  The pass stops
    before the first pivot p with tiny(p, previous pivot).
    """
    n = len(a)
    pivots = []
    prev = 1
    for k in range(n):
        p = a[k][k]
        if tiny(p, prev):
            break
        pivots.append(p)
        rowk = a[k]
        for i in range(k + 1, n):
            rowi = a[i]
            aik = rowi[k]
            for j in range(k + 1, n):
                rowi[j] = div(p * rowi[j] - aik * rowk[j], prev)
        prev = p
    return pivots


def _skew_pivots(a, div, tiny):
    """Fraction-free skewsymmetric elimination of a in pairs, in place.

    Only the upper triangle is read.  The k-th pivot is Pf of the leading
    2(k+1) block of a; every updated entry is a Pfaffian of a bordered
    leading block, so the division by the previous pivot is exact over the
    integers.  The pass stops before the first pivot p with
    tiny(p, previous pivot).
    """
    n = len(a)
    pivots = []
    prev = 1
    for k in range(0, n - 1, 2):
        p = a[k][k + 1]
        if tiny(p, prev):
            break
        pivots.append(p)
        rowk, rowk1 = a[k], a[k + 1]
        for i in range(k + 2, n):
            rowi = a[i]
            u, v = rowk1[i], rowk[i]
            for j in range(i + 1, n):
                rowi[j] = div(p * rowi[j] + u * rowk[j] - v * rowk1[j], prev)
        prev = p
    return pivots


def _levinson_ratios(col, row, tiny):
    """det T_k / det T_{k-1}, k = 1, 2, ..., for T = (t_{i-j}).

    col = (t_0, ..., t_{n-1}) and row = (t_0, t_{-1}, ..., t_{-(n-1)}).  The
    forward vector f and backward vector b solve T_k f = eps_k e_1 and
    T_k b = eps_k e_k with f_0 = b_{k-1} = 1; by Cramer's rule eps_k is the
    ratio of consecutive leading minors.  Stops before the first eps with
    tiny(eps, 1).
    """
    eps = col[0]
    if tiny(eps, 1):
        return []
    ratios = [eps]
    f = [mp.mpf(1)]
    b = list(f)
    for k in range(1, len(col)):
        gamma = mp.fdot(col[k:0:-1], f)  # row k of T_{k+1} against (f, 0)
        delta = mp.fdot(row[1 : k + 1], b)  # row 0 of T_{k+1} against (0, b)
        g = gamma / eps
        d = delta / eps
        f, b = (
            [x - g * y for x, y in zip(f + [0], [0] + b)],
            [y - d * x for x, y in zip(f + [0], [0] + b)],
        )
        eps -= g * delta
        if tiny(eps, 1):
            break
        ratios.append(eps)
    return ratios


def _is_skew(rows, bits):
    """Skewsymmetric as seen at bits; exactly, over the rationals.

    hp entries may carry guard bits beyond the field's precision, and mp
    negation rounds to the working precision, so both sides are read at bits.
    """
    n = len(rows)
    with mp.workprec(bits or 53):  # rational signs are exact at any setting
        return all(+rows[i][j] == -rows[j][i] for i in range(n) for j in range(i, n))


def _is_toeplitz(rows):
    return all(rows[i][1:] == rows[i - 1][:-1] for i in range(1, len(rows)))


def _one_pass(method, a, div, tiny, zero):
    """Leading minors of orders 1..m (m <= len(a)) from one pass over a.

    a is the matrix, or for levinson its first column and row.  A skew pass
    gives Pf^2 for even orders and zero for odd ones.
    """
    if method == "levinson":
        return list(accumulate(_levinson_ratios(*a, tiny), mul))
    if method != "pfaffian":
        return _bareiss_pivots(a, div, tiny)
    out = []
    for pf in _skew_pivots(a, div, tiny):
        out += [zero, pf * pf]
    if len(out) < len(a):
        out.append(zero)  # the next order is odd
    return out


def _exact_minors(rows, method):
    """Exact leading minors of orders 1..m (m <= len(rows)) of rational rows."""
    a, scales = _integer_rows(rows)
    power = 1
    if method == "pfaffian":
        # D A D with D = diag(scales) stays skewsymmetric, and its Pf of
        # order 2k carries the first 2k scales
        a = [[v * s for v, s in zip(row, scales)] for row in a]
        power = 2
    minors = _one_pass(method, a, floordiv, lambda p, prev: p == 0, 0)
    weights = accumulate(scales, mul)
    return [DetResult(Fraction(m, w**power), method) for m, w in zip(minors, weights)]


def _hp_minors(rows, method, bits):
    """Leading minors of orders 1..m (m <= len(rows)) at bits, checked at 2*bits."""
    passes = []
    bar = None
    for prec in (bits, 2 * bits):
        with mp.workprec(prec):
            if method == "levinson":
                data = ([to_mp(r[0], prec) for r in rows], [to_mp(v, prec) for v in rows[0]])
                entries = data[0] + data[1]
            else:
                data = [[to_mp(v, prec) for v in r] for r in rows]
                entries = [v for r in data for v in r]
            if bar is None:
                bar = mp.mpf(2) ** (-(bits // 2)) * max(abs(v) for v in entries)

            def tiny(p, prev):
                return abs(p) <= bar * abs(prev)

            minors = _one_pass(method, data, truediv, tiny, mp.mpf(0))
        passes.append(minors)
        if not minors:
            return []
        rows = [r[: len(minors)] for r in rows[: len(minors)]]
    out = []
    for d1, d2 in zip(*passes):
        rel = _drift(d1, d2, bits)
        if rel > mp.mpf(2) ** (-(bits // 4)):
            break
        out.append(_hp_result(d2, rel, bits, method))
    return out


def leading_minors(M: StructuredMatrix, orders, bits: int | None = None) -> list[DetResult]:
    """det of the leading n x n block of M for every n in orders, from one pass.

    orders may come unsorted and may repeat; the results follow them.  A
    rational matrix gives exact values and ignores bits; an hp matrix runs at
    bits (default: its field's) and at 2*bits, as det_lu does.  An order that
    the engine cannot serve, and every later one, comes from det_bareiss or
    det_lu on the leading block, so their errors propagate unchanged.
    """
    orders = [int(n) for n in orders]
    if any(not 1 <= n <= M.order for n in orders):
        raise ValueError("leading block orders must be in 1..%d" % M.order)
    if not orders:
        return []
    exact = M.field.is_exact
    if exact:
        bits = None
    else:
        bits = bits or M.field.bits
        if bits < 64:
            raise ValueError("leading_minors needs at least 64 bits")
    top = max(orders)
    rows = [row[:top] for row in M.rows[:top]]
    if _is_skew(rows, bits):
        method = "pfaffian"
    elif not exact and M.structure == "toeplitz" and _is_toeplitz(rows):
        method = "levinson"
    else:
        method = "bareiss" if exact else "lu"
    if exact:
        found = _exact_minors(rows, method)
    else:
        found = _hp_minors(rows, method, bits)

    def reference(n):
        block = M.leading(n)
        return det_bareiss(block) if exact else det_lu(block, bits)

    return [found[n - 1] if n <= len(found) else reference(n) for n in orders]


def det_auto(M: StructuredMatrix, bits: int | None = None) -> DetResult:
    """det M: the one-order case of leading_minors."""
    return leading_minors(M, [M.order], bits)[0]


def pfaffian(M: StructuredMatrix, bits: int | None = None):
    """Pfaffian of a skewsymmetric matrix of even order.

    Exact over rationals; over hp fields the elimination pivots on the
    largest available off-diagonal entry.  Row and column swaps happen
    together, each flipping the sign.
    """
    if M.order % 2:
        raise ValueError("pfaffian needs even order")
    if not M.is_skew():
        raise ValueError("pfaffian needs a skewsymmetric matrix")
    n = M.order
    exact = M.field.is_exact
    if exact:
        a = [[Fraction(v) for v in row] for row in M.rows]
        result = Fraction(1)
    else:
        prec = (bits or M.field.bits) + 32
        with mp.workprec(prec):
            a = [[to_mp(v, prec) for v in row] for row in M.rows]
            result = mp.mpf(1) if all(
                isinstance(v, mp.mpf) for r in a for v in r
            ) else mp.mpc(1)
    sign = 1

    def run():
        nonlocal sign, result
        for k in range(0, n - 1, 2):
            # choose the partner row maximizing |a[k][j]|, j > k
            j_best, v_best = k + 1, abs(a[k][k + 1])
            for j in range(k + 2, n):
                v = abs(a[k][j])
                if v > v_best:
                    j_best, v_best = j, v
            if v_best == 0:
                # row k is zero beyond position k: the matrix is singular
                result = result * 0
                return
            if j_best != k + 1:
                for row in a:
                    row[k + 1], row[j_best] = row[j_best], row[k + 1]
                a[k + 1], a[j_best] = a[j_best], a[k + 1]
                sign = -sign
            p = a[k][k + 1]
            result = result * p
            for i in range(k + 2, n):
                for j in range(i + 1, n):
                    upd = a[i][j] + (a[k + 1][i] * a[k][j] - a[k][i] * a[k + 1][j]) / p
                    a[i][j] = upd
                    a[j][i] = -upd

    if exact:
        run()
        return sign * result
    with mp.workprec((bits or M.field.bits) + 32):
        run()
        return sign * result
