"""Determinant and Pfaffian engines over exact and high-precision fields.

leading_minors(M, orders, bits) is the determinant entry point: one pass
over the largest requested block gives det of every requested leading block,
and det_auto is its one-order case.  DetResult.method names the engine that
served each order:

- "pfaffian", a skewsymmetric block not tagged Toeplitz: elimination in
  pairs, without pfaffian's partner search, whose k-th pivot is Pf of the
  leading 2k block (over hp fields, its ratio to the one before); det =
  Pf^2, and odd orders are exactly 0;
- "skew_levinson", an hp skewsymmetric Toeplitz block: the 2 x 2 block
  Levinson recursion in O(N^2) (Whittle, Biometrika 50, 1963; Akaike, SIAM
  J. Appl. Math. 24, 1973), whose k-th step ratio is Pf T_2k / Pf T_{2k-2},
  the skew elimination's k-th pivot ratio (below), so it stops at the
  orders where that one would;
- "ff_skew_levinson", a rational skewsymmetric Toeplitz block: the same
  recursion made fraction-free (below), whose k-th value is Pf T_2k;
- "levinson", an hp Toeplitz block: the nonsymmetric Levinson-Trench
  recursion in O(N^2) (Trench, J. SIAM 12, 1964; Bareiss, Numer. Math. 13,
  1969), whose k-th step ratio is det T_k / det T_{k-1};
- "ff_levinson", a rational Toeplitz block: Levinson-Trench made
  fraction-free (Bareiss, 1969; Beckermann & Labahn, SIAM J. Matrix Anal.
  Appl. 22, 2000), whose k-th value is det T_k;
- "elimination" over hp fields and "bareiss" over the rationals, any other
  block: one pass without pivoting, whose k-th pivot is the k-th minor
  (over hp fields, its ratio to the one before).  "bareiss" also serves a
  rational Toeplitz block from the first order at which its engine stops;
- "lu": the reference path, det_lu on the leading block.

A Toeplitz block is one tagged Toeplitz (StructuredMatrix.structure) whose
entries are Toeplitz too; it is skewsymmetric when its first row is its
first column negated.

One table, _ENGINES, names the engines of a block by (skew, Toeplitz): the
hp method, the fixed-point kernel of a real block, the mpf engine of a
complex one, the exact method and the exact engine, looked up by name when
a pass runs.  One reader, _read, gives each what it reads.  The hp kernels
return ratios of consecutive minors (Pfaffians, for the skew ones), which
one pass multiplies up at prec + GUARD, squaring Pfaffians, and rounds
once each to prec.

leading_minors keeps what it ran on the matrix (StructuredMatrix._minors):
the pass per bits and largest order, and each det_lu fallback per bits and
order.  A matrix is read-only, so a later request, from the same caller or
from another that shares the matrix, reads them; they go with the matrix,
and nothing is kept process-wide.  det_lu, det_bareiss and pfaffian keep
nothing.

A block is skewsymmetric when a_ji = -a_ij for every i <= j: exactly over
the rationals, and over hp fields after both entries are rounded to bits.
That one rule, matrices._is_skew, also guards pfaffian, so both sides of
det T_2N = Pf(T_2N)^2 call the same matrices skewsymmetric.  The exact pass
tests it on the matrix's integer rows, whose one common denominator keeps a
skew matrix skew.

A real hp matrix runs these engines, and pfaffian its elimination with
partner search, on Python ints, as quadrature's kernels do: a vector or row
is held as ints x with value x / 2^s, its largest entry within GUARD/2 bits
of W = prec + GUARD bits.  Levinson-Trench holds the entries at one scale
and f and b at another, and the block Levinson its entries and F so too.
Elimination scales each column once by the power of two that brings its
largest entry to [1/2, 1), then holds each row at its own scale.  The skew
elimination and pfaffian hold D A D, D = diag(2^-e_i) with e_i the exponent
of row i's largest entry, its upper triangle at per-row scales between
which pfaffian's swaps move entries.  Products are
shifted down with floor rounding, so an update errs by at most a unit in its
row's last place: a normwise error, as Levinson's own is (Cybenko, SIAM J.
Sci. Stat. Comput. 1, 1980), which the drift between the two passes sees
like any rounding.  Multipliers are int quotients rounded to nearest at W
bits, as mpf_div rounds them; Levinson's eps, g and d stay mpf at prec.  A
matrix with any mpc entry runs the mpf engines, the reference the kernels
are tested against, at W too, so that it claims the digits of the same
real matrix: complex ints would double every vector for a path that no
study runs at size.

Levinson-Trench never updates its entries, so it holds them at the scale of
their lowest set bit when that is coarser than W's: the check pass on
entries rounded to bits multiplies ints about bits wide into W-bit ones,
and every sum is the one at W times a power of two.  The block Levinson
holds its entries the same way.

The block Levinson reads T = (t_{i-j}), t_{-m} = -t_m, from its first
column, as 2 x 2 blocks A_{I-J}, A_m = [[t_2m, t_{2m-1}], [t_{2m+1}, t_2m]].
The forward vector F = (F_0, ..., F_{k-1}), F_0 = I, solves
T_2k F = (E_k, 0, ..., 0).  J T_2k J = -T_2k for the reversal J, so the
backward vector, which solves T_2k B = (0, ..., 0, E_k) with B_{k-1} = I, is
F reversed, B_i = J_2 F_{k-1-i} J_2 with J_2 = [[0, 1], [1, 0]], and only F
is updated.  E_k is the inverse of the leading 2 x 2 block of T_2k^-1,
which is skewsymmetric: E_k = [[0, p], [-p, 0]], and p = Pf T_2k / Pf
T_{2k-2} (Pf of the Schur complement of the trailing T_{2k-2}), so
det T_2k / det T_{2k-2} = p^2.  One step takes Gamma = sum_j A_{k-j} F_j,
X = E_k^-1 Gamma and F_i <- F_i - J_2 F_{k-i} J_2 X (F_k = 0), and
p <- p + (Gamma_01 Gamma_10 - Gamma_00^2) / p: about 16k int products,
where the skew elimination updates ~n^3/6 entries in all.  Gamma, X and p
are mpf at W, not at prec as Levinson-Trench's eps, g and d are: worked at
prec, they cost the claims a digit or two.

A rational matrix runs on its integer rows ints, held over one common
denominator den (see matrices), so its minors are exact: the k-th is the
integer minor of ints over den^k.  The fraction-free Levinson engines hold
their vectors scaled to integers, so that every division is exact.  With
D_k = det T_k (D_0 = 1), Levinson-Trench holds f~ = D_(k-1) f and
b~ = D_(k-1) b, which are columns of the adjugate of T_k (Cramer's rule).
With gamma~ and delta~ the sums gamma and delta taken on f~ and b~, a step
is f~' = (D_k (f~, 0) - gamma~ (0, b~)) / D_(k-1), b~' = (D_k (0, b~) -
delta~ (f~, 0)) / D_(k-1) and D_(k+1) = (D_k^2 - gamma~ delta~) / D_(k-1).
With Pf_k = Pf T_2k (Pf_0 = 1), the block Levinson holds F~ = Pf_(k-1) F,
whose entries are, up to sign, entries of Pf_k T_2k^-1 (Pfaffians of
submatrices).  With Gamma~ taken on F~ and X~ = (-Gamma~_10,
-Gamma~_11, Gamma~_00, Gamma~_01), a step is F~'_i = (Pf_k F~_i -
J_2 F~_(k-i) J_2 X~) / Pf_(k-1) and Pf_(k+1) = (Pf_k^2 + Gamma~_01
Gamma~_10 - Gamma~_00^2) / Pf_(k-1); its flip term reads F~ as it was
before the step, not scaled by Pf_k.  Each step divides by the last minor
(Pfaffian), so an engine stops at the first zero one, and the general
pass serves that order and every later one, rerun on the whole block from
order 1.  The general pass steps over a zero pivot with Bareiss's
multistep look-ahead (see _integer_minors), and a skew elimination that
meets a zero Pfaffian pivot hands the later orders to it too.  On a
symmetric matrix (a Hankel, Toeplitz+Hankel or even Toeplitz one) the pass
updates one triangle up to its first zero pivot, and the look-ahead takes
over from there on the whole block; both kinds of step name the method
"bareiss".

Over hp fields every engine runs at bits and again, as a check, at
bits + ceil(bits/2) on the same entries (an mpf entry that already fits a
pass's precision goes in as it is; wider ones, such as T+H sums, round).
Each value is the check pass's result rounded to bits, and
digits_guaranteed is int(-log10(drift)) for the drift between the two,
capped at the digits that bits carry.  The drift measures the error of the
bits pass, and so the claim.  The check pass's own error is about drift
times 2^(-bits/2), and an engine gives up on a drift above 2^(-bits/4), so
that error stays below 2^(-3*bits/4), far under any claimed digit: a check
at 2*bits would buy nothing the claim can use.  The logarithm is taken in
floats from the drift's mantissa and exponent; mp.log10 at 2*bits decides
only when the float lies within 1e-9 of an integer, so the digits are those
of mp.log10.  An engine breaks down on a pivot ratio at or below
2^(-bits/2) times the largest entry, or on a drift above 2^(-bits/4); that
order and every later one then take det_lu.

det_bareiss, the exact reference, is pivoted fraction-free elimination.
det_lu, the hp reference, runs partial-pivoted elimination at bits and at
2*bits, not at the engines' check precision, since its singular rule reads
the 2*bits pivots.  When the two drift apart by more than 2^(-bits/4) and a
pivot of the 2*bits pass fell below 2^(-3*bits/2) times the largest entry,
a size the bits pass cannot resolve, it runs a third pass at 4*bits: if
that agrees with the 2*bits pass within 2^(-bits/4), it returns that value
with the digits of their drift, and otherwise it calls the matrix singular
(value 0, no digits).  Any other drift raises PrecisionError.  A tiny
pivot that both passes agree on belongs to a small, nonsingular
determinant: singularity is never read off the determinant's size.
pfaffian uses the convention Pf([[0, m], [-m, 0]]) = m.
"""

import math
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, chain
from operator import mul

import mpmath as mp
from mpmath.libmp import from_man_exp, fzero, to_fixed

from .matrices import StructuredMatrix, _is_skew
from .scalars import to_mp


class PrecisionError(ArithmeticError):
    """The two-precision recheck disagreed; rerun with more bits."""

    def __init__(self, message, recommended_bits=None):
        super().__init__(message)
        self.recommended_bits = recommended_bits


class DetResult:
    __slots__ = ("value", "method", "digits_guaranteed")

    def __init__(self, value, method, digits_guaranteed=None):
        self.value = value
        self.method = method
        self.digits_guaranteed = digits_guaranteed

    def __repr__(self):
        return "DetResult(%r, method=%r, digits=%r)" % (
            self.value,
            self.method,
            self.digits_guaranteed,
        )


def det_bareiss(M: StructuredMatrix) -> DetResult:
    """Exact determinant of a rational-field matrix: pivoted Bareiss on its
    integer rows M.ints, over M.den^n."""
    if not M.field.is_exact:
        raise TypeError("det_bareiss needs a rational-field matrix")
    n = M.order
    a = [list(row) for row in M.ints]
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
    return DetResult(Fraction(sign * a[n - 1][n - 1], M.den**n), "bareiss")


def _lu_pass(rows, n, prec):
    """One elimination at the given precision: (det, smallest |pivot|)."""
    with mp.workprec(prec):
        a = [[to_mp(v, prec) for v in row] for row in rows]
        det = mp.mpf(1) if all(isinstance(v, mp.mpf) for r in a for v in r) else mp.mpc(1)
        piv_min = mp.inf
        for k in range(n):
            r_best, v_best = k, abs(a[k][k])
            for r in range(k + 1, n):
                v = abs(a[r][k])
                if v > v_best:
                    r_best, v_best = r, v
            if v_best == 0:
                return mp.mpf(0) * det, mp.mpf(0)
            if r_best != k:
                a[k], a[r_best] = a[r_best], a[k]
                det = -det
            piv = a[k][k]
            det *= piv
            piv_min = min(piv_min, abs(piv))
            for i in range(k + 1, n):
                f = a[i][k] / piv
                if f == 0:
                    continue
                rowi = a[i]
                rowk = a[k]
                for j in range(k + 1, n):
                    rowi[j] -= f * rowk[j]
        return det, piv_min


def _drift(d1, d2, bits):
    """Relative distance of the bits value d1 from the check value d2 (an
    engine's at bits + ceil(bits/2), det_lu's at 2*bits), worked out at
    2*bits."""
    with mp.workprec(2 * bits):
        return abs(d1 - d2) / abs(d2) if d1 != d2 else mp.mpf(0)


_LOG10_2 = math.log10(2)


def _drift_digits(drift, bits):
    """int(-log10(drift)) for a nonzero mpf drift, as mp.log10 at 2*bits gives
    it.  The float form errs by under 1e-12 for any exponent an hp pass
    reaches, so it decides the integer part unless it lies within 1e-9 of an
    integer, where mp.log10 decides."""
    _, man, exp, _ = drift._mpf_
    x = -(math.log10(man) + exp * _LOG10_2)
    if abs(x - round(x)) < 1e-9:
        with mp.workprec(2 * bits):
            return int(-mp.log10(drift))
    return int(x)


def _hp_result(d2, drift, bits, method):
    """d2 rounded to bits, with the digits that the drift guarantees."""
    cap = int(bits * 0.30103)
    digits = cap if drift == 0 else max(1, min(cap, _drift_digits(drift, bits)))
    return DetResult(to_mp(d2, bits), method, digits)


def det_lu(M: StructuredMatrix, bits: int | None = None) -> DetResult:
    """Determinant with a doubled-precision recheck on the same entries."""
    if bits is None:
        bits = 256 if M.field.is_exact else M.field.bits
    if bits < 64:
        raise ValueError("det_lu needs at least 64 bits")
    n = M.order
    d1, _ = _lu_pass(M.rows, n, bits)
    d2, fine_min = _lu_pass(M.rows, n, 2 * bits)
    rel = _drift(d1, d2, bits) if d2 else mp.inf
    agree = mp.mpf(2) ** (-(bits // 4))
    if rel > agree:
        # the bits pass does not match a pivot below what it resolves,
        # relative to the largest entry
        with mp.workprec(bits):
            top = max(abs(to_mp(v, bits)) for row in M.rows for v in row)
            tiny = fine_min <= mp.mpf(2) ** (-(3 * bits // 2)) * top
        if tiny:
            # a small nonsingular determinant that 2*bits already resolves
            d4, _ = _lu_pass(M.rows, n, 4 * bits)
            rel = _drift(d2, d4, 2 * bits) if d4 else mp.inf
            if rel <= agree:
                return _hp_result(d4, rel, bits, "lu")
            return DetResult(mp.mpf(0), "lu", 0)
        raise PrecisionError(
            "determinant unstable at %d bits (relative drift %s); "
            "retry with at least %d bits" % (bits, mp.nstr(rel, 5), 2 * bits),
            recommended_bits=2 * bits,
        )
    return _hp_result(d2, rel, bits, "lu")


def _integer_minors(a, symmetric=False):
    """Leading minors of orders 1..n of the integer matrix a, in place.

    Bareiss elimination without pivoting, with his multistep look-ahead
    (Bareiss, Math. Comp. 22, 1968) past a zero pivot.  After k steps with
    previous pivot prev = det A_k, let C_s be the leading s x s block of the
    trailing entries (bordered minors of A_k).  By Sylvester's identity
    det C_s = prev^(s-1) det A_{k+s}, so the step eliminates the trailing
    block with row pivots from the rows of C_s, admitting one more row and
    column each time C_s proves singular.  At the first nonsingular C_s,
    orders k+1..k+s-1 are 0, order k+s is det C_s / prev^(s-1), and the last
    elimination divides the trailing entries exactly by prev^s, which leaves
    the entries of a plain Bareiss pass at step k+s.  With s = 1 this is the
    plain Bareiss step.  If no C_s is nonsingular, every later minor is 0.

    A plain step keeps a symmetric trailing block symmetric, so for a
    symmetric a (symmetric=True) the steps update only its upper triangle,
    reading the multiplier a_ik from the pivot row as a_ki.  At each zero
    pivot the upper triangle is copied into the lower one, and the
    look-ahead goes on from that step with the same prev; it leaves a plain
    Bareiss pass's entries, which are symmetric again, so the steps after it
    update one triangle too.
    """
    n = len(a)
    minors = []
    prev = 1
    k = 0
    while k < n:
        if symmetric:
            p = a[k][k]
            if p:
                rowk = a[k]
                for i in range(k + 1, n):
                    rowi = a[i]
                    aki = rowk[i]
                    for j in range(i, n):
                        rowi[j] = (p * rowi[j] - aki * rowk[j]) // prev
                minors.append(p)
                prev = p
                k += 1
                continue
            for i in range(k, n):
                for j in range(i + 1, n):
                    a[j][i] = a[i][j]
        t, end, sign, div = k, k + 1, 1, 1
        while t < end:
            r = next((r for r in range(t, end) if a[r][t]), None)
            if r is None:
                if end == n:
                    return minors + [0] * (n - k)
                end += 1
                continue
            if r != t:
                a[r], a[t] = a[t], a[r]
                sign = -sign
            p = a[t][t]
            d = sign * div * prev ** (end - k) if t == end - 1 else div
            rowt = a[t]
            for i in range(t + 1, n):
                rowi = a[i]
                ait = rowi[t]
                for j in range(t + 1, n):
                    rowi[j] = (p * rowi[j] - ait * rowt[j]) // d
            div = p
            t += 1
        minors += [0] * (end - k - 1)
        prev = sign * div // prev ** (end - k - 1)
        minors.append(prev)
        k = end
    return minors


def _general_minors(a):
    """_integer_minors of the integer matrix a, in place, on one triangle
    while a is symmetric."""
    return _integer_minors(a, a == [list(c) for c in zip(*a)])


def _skew_pivots(a):
    """Pf of the leading even blocks of the integer skewsymmetric a, up to
    the first zero one: fraction-free elimination in pairs, in place.

    Only the upper triangle is read.  The k-th pivot is Pf of the leading
    2(k+1) block of a; every updated entry is a Pfaffian of a bordered
    leading block, so the division by the previous pivot is exact.
    """
    n = len(a)
    pivots = []
    prev = 1
    for k in range(0, n - 1, 2):
        p = a[k][k + 1]
        if not p:
            break
        pivots.append(p)
        rowk, rowk1 = a[k], a[k + 1]
        for i in range(k + 2, n):
            rowi = a[i]
            u, v = rowk1[i], rowk[i]
            for j in range(i + 1, n):
                rowi[j] = (p * rowi[j] + u * rowk[j] - v * rowk1[j]) // prev
        prev = p
    return pivots


# the hp kernels, mpf ones for complex matrices and then fixed-point ones for
# real matrices, all work at W = prec + GUARD bits (see the module docstring)
GUARD = 32


def _elimination_ratios(a, prec, tiny):
    """Pivot ratios det A_k / det A_(k-1) of elimination without pivoting,
    in place.  Stops before the first ratio p with tiny(p)."""
    n = len(a)
    ratios = []
    with mp.workprec(prec + GUARD):
        for k in range(n):
            p = a[k][k]
            if tiny(p):
                break
            ratios.append(p)
            rowk = a[k]
            for i in range(k + 1, n):
                rowi = a[i]
                f = rowi[k] / p
                for j in range(k + 1, n):
                    rowi[j] -= f * rowk[j]
    return ratios


def _skew_ratios(a, prec, tiny):
    """Pfaffian ratios Pf A_2(k+1) / Pf A_2k of skewsymmetric elimination in
    pairs, in place; only the upper triangle is read.  Stops before the
    first ratio p with tiny(p)."""
    n = len(a)
    ratios = []
    with mp.workprec(prec + GUARD):
        for k in range(0, n - 1, 2):
            p = a[k][k + 1]
            if tiny(p):
                break
            ratios.append(p)
            rowk, rowk1 = a[k], a[k + 1]
            for i in range(k + 2, n):
                # a_ij += (a_(k+1)i a_kj - a_ki a_(k+1)j) / a_k(k+1), j > i
                rowi = a[i]
                u, v = rowk1[i] / p, rowk[i] / p
                for j in range(i + 1, n):
                    rowi[j] += u * rowk[j] - v * rowk1[j]
    return ratios


def _levinson_ratios(col, row, prec, tiny):
    """det T_k / det T_{k-1}, k = 1, 2, ..., for T = (t_{i-j}).

    col = (t_0, ..., t_{n-1}) and row = (t_0, t_{-1}, ..., t_{-(n-1)}).  The
    forward vector f and backward vector b solve T_k f = eps_k e_1 and
    T_k b = eps_k e_k with f_0 = b_{k-1} = 1; by Cramer's rule eps_k is the
    ratio of consecutive leading minors.  Stops before the first eps with
    tiny(eps).
    """
    with mp.workprec(prec + GUARD):
        eps = col[0]
        if tiny(eps):
            return []
        ratios = [eps]
        f = [mp.mpf(1)]
        b = list(f)
        for k in range(1, len(col)):
            gamma = mp.fdot(col[k:0:-1], f)  # row k of T_{k+1} against (f, 0)
            delta = mp.fdot(row[1 : k + 1], b)  # row 0 of T_{k+1} against (0, b)
            g = gamma / eps
            f, b = _trench_update(f, b, g, delta / eps, lambda x, y, c: [u - c * v for u, v in zip(x, y)])
            eps -= g * delta
            if tiny(eps):
                break
            ratios.append(eps)
    return ratios


def _trench_update(f, b, g, d, comb):
    """The Levinson-Trench update of f and b from x = (f, 0) and y = (0, b):
    f' = comb(x, y, g) and b' = comb(y, x, d), comb a whole-list
    combination (x - g y in the mpf engine)."""
    x, y = f + [0], [0] + b
    return comb(x, y, g), comb(y, x, d)


def _gamma(F, alpha, beta, gamma, dot):
    """Entries 00, 01, 10 and 11 of Gamma = sum_j A_(k-j) F_j, A_m =
    [[t_2m, t_(2m-1)], [t_(2m+1), t_2m]], from the lists of t_2m, t_(2m-1)
    and t_(2m+1) for m = k, ..., 1."""
    P, Q, R, U = F
    return (
        dot(alpha, P) + dot(beta, R),
        dot(alpha, Q) + dot(beta, U),
        dot(gamma, P) + dot(alpha, R),
        dot(gamma, Q) + dot(alpha, U),
    )


def _flip_update(F, X, comb):
    """The block Levinson update F_i - J F_(k-i) J X for i = 0..k, with
    F_k = 0 and J = [[0, 1], [1, 0]], on F's entry lists (P, Q, R, U) of
    F_i = [[P_i, Q_i], [R_i, U_i]] and X = (x00, x01, x10, x11).  Each
    entry list of J F_(k-i) J X is A x0 + B x1 for two lists A and B of F's
    entries, and the new list is comb(old, A, B, x0, x1), a whole-list
    combination (old - (A x0 + B x1), entry by entry, in the mpf engine).
    old, A and B all read F as given."""
    P, Q, R, U = (v + [0] for v in F)
    x00, x01, x10, x11 = X
    # J F_r J = [[U_r, R_r], [Q_r, P_r]], r = k - i
    Pr, Qr, Rr, Ur = P[::-1], Q[::-1], R[::-1], U[::-1]
    rows = ((P, Ur, Rr, x00, x10), (Q, Ur, Rr, x01, x11), (R, Qr, Pr, x00, x10), (U, Qr, Pr, x01, x11))
    return [comb(old, A, B, x0, x1) for old, A, B, x0, x1 in rows]


def _skew_levinson_ratios(col, prec, tiny):
    """Pf T_2k / Pf T_(2k-2), k = 1, 2, ..., for the skewsymmetric Toeplitz
    T = (t_(i-j)), col = (t_0, ..., t_(n-1)), by the 2 x 2 block Levinson
    recursion of the module docstring.  Stops before the first ratio p with
    tiny(p)."""
    ev, od = col[0::2], col[1::2]
    with mp.workprec(prec + GUARD):
        p = -od[0] if od else 0
        if tiny(p):
            return []
        ratios = [p]
        F = [[mp.mpf(1)], [mp.mpf(0)], [mp.mpf(0)], [mp.mpf(1)]]
        for k in range(1, len(od)):
            g00, g01, g10, g11 = _gamma(F, ev[k:0:-1], od[k - 1 :: -1], od[k:0:-1], mp.fdot)
            X = (-g10 / p, -g11 / p, g00 / p, g01 / p)
            F = _flip_update(
                F, X, lambda old, A, B, x0, x1: [f - (a * x0 + b * x1) for f, a, b in zip(old, A, B)]
            )
            p += (g01 * g10 - g00 * g00) / p
            if tiny(p):
                break
            ratios.append(p)
    return ratios


def _exponent(x):
    """e with 2^(e-1) <= |x| < 2^e for an mpf x; None for 0."""
    _, man, exp, bc = x._mpf_
    return exp + bc if man else None


def _top(values):
    """Largest _exponent among values, or 0 when all are zero."""
    return max((e for e in map(_exponent, values) if e is not None), default=0)


def _mpf(man, exp, prec):
    """man * 2^exp rounded to prec bits."""
    return mp.make_mpf(from_man_exp(man, exp, prec, "n"))


def _quotient(num, den, prec):
    """num / den for ints, den nonzero, rounded to nearest at prec bits with
    ties to even, as a raw mpf tuple: mpf_div(from_int(num), from_int(den),
    prec, "n"), computed on ints."""
    if not num:
        return fzero
    a, b = abs(num), abs(den)
    s = prec + 1 - a.bit_length() + b.bit_length()
    q, r = divmod(a << s, b) if s >= 0 else divmod(a, b << -s)
    # 2^prec <= q < 2^(prec+2): keep prec bits, and r decides a tie
    extra = q.bit_length() - prec
    m, low, half = q >> extra, q & ((1 << extra) - 1), 1 << (extra - 1)
    if low > half or low == half and (r or m & 1):
        m += 1
    tz = (m & -m).bit_length() - 1
    m >>= tz
    return (int((num ^ den) < 0), m, extra + tz - s, m.bit_length())


def _mantissas(coeffs, shift):
    """Ints m and sh >= 0 with c * 2^shift = m / 2^sh exactly, for raw mpf
    tuples c."""
    parts = [(-m if s else m, e + shift) for s, m, e, _ in coeffs]
    sh = max(0, -min(e for _, e in parts))
    return [m << (e + sh) for m, e in parts], sh


def _renorm(vecs, scale, width):
    """Shift int vectors together so their largest entry has ~width bits;
    (vectors, new scale).  Shifts of at most GUARD/2 bits are skipped."""
    top = max((max(max(v), -min(v)) for v in vecs if v), default=0).bit_length()
    sh = top - width
    if not top or abs(sh) <= GUARD // 2:
        return vecs, scale
    if sh > 0:
        return [[x >> sh for x in v] for v in vecs], scale - sh
    return [[x << -sh for x in v] for v in vecs], scale - sh


def _fixed_levinson(col, row, prec, tiny):
    """_levinson_ratios on ints: the entries share one scale, and f and b
    share another, which follows them as they grow or shrink."""
    eps = col[0]
    if tiny(eps):
        return []
    W = prec + GUARD
    # the entries are never updated, so each int needs no bits below its
    # entry's last one: at most the scale that holds every entry exactly
    E = min(W - _top(col + row), -min(v._mpf_[2] for v in col + row if v))
    tc = [to_fixed(v._mpf_, E) for v in col]
    tr = [to_fixed(v._mpf_, E) for v in row]
    ratios = [eps]
    f, b, S = [1 << W], [1 << W], W
    for k in range(1, len(col)):
        gamma = _mpf(sum(map(mul, tc[k:0:-1], f)), -(E + S), prec)
        delta = _mpf(sum(map(mul, tr[1 : k + 1], b)), -(E + S), prec)
        g = gamma / eps
        (gi, di), sh = _mantissas((g._mpf_, (delta / eps)._mpf_), 0)
        f, b = _trench_update(f, b, gi, di, lambda x, y, c: [u - ((c * v) >> sh) for u, v in zip(x, y)])
        eps -= g * delta
        if tiny(eps):
            break
        ratios.append(eps)
        (f, b), S = _renorm((f, b), S, W)
    return ratios


def _int_dot(a, b):
    return sum(map(mul, a, b))


def _fixed_skew_levinson(col, prec, tiny):
    """_skew_levinson_ratios on ints: the entries share one scale, as in
    _fixed_levinson, and the entries of F share another; Gamma, X and the
    ratios are mpf at W."""
    ev, od = col[0::2], col[1::2]
    p = -od[0] if od else 0
    if tiny(p):
        return []
    W = prec + GUARD
    E = min(W - _top(col), -min(v._mpf_[2] for v in col if v))
    te = [to_fixed(v._mpf_, E) for v in ev]
    to = [to_fixed(v._mpf_, E) for v in od]
    with mp.workprec(W):
        ratios = [p]
        F, S = [[1 << W], [0], [0], [1 << W]], W
        for k in range(1, len(od)):
            sums = _gamma(F, te[k:0:-1], to[k - 1 :: -1], to[k:0:-1], _int_dot)
            g00, g01, g10, g11 = (_mpf(g, -(E + S), W) for g in sums)
            X, sh = _mantissas(((-g10 / p)._mpf_, (-g11 / p)._mpf_, (g00 / p)._mpf_, (g01 / p)._mpf_), 0)
            F = _flip_update(
                F, X, lambda old, A, B, x0, x1: [f - ((a * x0 + b * x1) >> sh) for f, a, b in zip(old, A, B)]
            )
            p += (g01 * g10 - g00 * g00) / p
            if tiny(p):
                break
            ratios.append(p)
            F, S = _renorm(F, S, W)
    return ratios


def _fixed_row(values, shifts, W):
    """values[j] * 2^shifts[j] as ints whose largest has W bits: (ints, scale)."""
    top = max((e + t for e, t in zip(map(_exponent, values), shifts) if e is not None), default=0)
    s = W - top
    return [to_fixed(v._mpf_, s + t) for v, t in zip(values, shifts)], s


def _fixed_elimination(a, prec, tiny):
    """Pivot ratios det A_k / det A_(k-1) of elimination without pivoting,
    on ints with per-row scales, after scaling column j by 2^c_j so that its
    largest entry lies in [1/2, 1).  Stops before the first tiny ratio."""
    n = len(a)
    W = prec + GUARD
    c = [-_top(col) for col in zip(*a)]
    held, s = map(list, zip(*(_fixed_row(r, c, W) for r in a)))
    ratios = []
    for k in range(n):
        rowk = held[k]
        ratio = _mpf(rowk[0], -(s[k] + c[k]), W)
        if tiny(ratio):
            break
        ratios.append(ratio)
        tail = rowk[1:]
        for i in range(k + 1, n):
            # the scales of rows i and k cancel in the multiplier
            (q,), sh = _mantissas((_quotient(held[i][0], rowk[0], W),), 0)
            row = [x - ((q * y) >> sh) for x, y in zip(held[i][1:], tail)]
            (held[i],), s[i] = _renorm((row,), s[i], W)
    return ratios


def _fixed_skew(a, prec, tiny):
    """Pfaffian ratios Pf A_2(k+1) / Pf A_2k of skewsymmetric elimination in
    pairs, on ints: D A D with D = diag(2^d_i), d_i minus the exponent of
    row i's largest entry, stays skewsymmetric, and its upper triangle is
    held with per-row scales.  Stops before the first tiny ratio."""
    n = len(a)
    W = prec + GUARD
    d = [-_top(r) for r in a]
    # held[i] holds columns i+1..n-1 of row i
    upper = (_fixed_row(r[i + 1 :], [d[i] + t for t in d[i + 1 :]], W) for i, r in enumerate(a))
    held, s = map(list, zip(*upper))
    ratios = []
    for k in range(0, n - 1, 2):
        rowk, rowk1 = held[k], held[k + 1]
        ratio = _mpf(rowk[0], -(s[k] + d[k] + d[k + 1]), W)
        if tiny(ratio):
            break
        ratios.append(ratio)
        for i in range(k + 2, n):
            # a_ij += (a_(k+1)i a_kj - a_ki a_(k+1)j) / a_k(k+1), j > i
            u = _quotient(rowk1[i - k - 2], rowk[0], W)
            v = _quotient(rowk[i - k - 1], rowk[0], W)
            (u, v), sh = _mantissas((u, v), s[i] - s[k + 1])
            terms = zip(held[i], rowk[i - k :], rowk1[i - k - 1 :])
            row = [x + ((u * y - v * z) >> sh) for x, y, z in terms]
            (held[i],), s[i] = _renorm((row,), s[i], W)
    return ratios


def _is_toeplitz(rows):
    return all(rows[i][1:] == rows[i - 1][:-1] for i in range(1, len(rows)))


def _skew_minors(pfs, n, zero):
    """Minors of orders 1..m of a skewsymmetric matrix from Pf of its leading
    even blocks: zero for odd orders, Pf^2 for even ones."""
    out = []
    for pf in pfs:
        out += [zero, pf * pf]
    if len(out) < n:
        out.append(zero)  # the next order is odd
    return out


def _ff_levinson(col, row):
    """det T_k, k = 1, 2, ..., of the integer Toeplitz T = (t_(i-j)), col and
    row as in _levinson_ratios, up to the first zero one: the fraction-free
    Levinson-Trench recursion of the module docstring."""
    d, prev = col[0], 1
    f, b = [1], [1]
    minors = []
    for k in range(1, len(col)):
        if not d:
            return minors
        minors.append(d)
        gamma = _int_dot(col[k:0:-1], f)
        delta = _int_dot(row[1 : k + 1], b)
        f, b = _trench_update(
            f, b, gamma, delta, lambda x, y, c: [(d * u - c * v) // prev for u, v in zip(x, y)]
        )
        d, prev = (d * d - gamma * delta) // prev, d
    return minors + [d] if d else minors


def _ff_skew_levinson(col):
    """Pf T_2k, k = 1, 2, ..., of the integer skewsymmetric Toeplitz
    T = (t_(i-j)), col = (t_0, ..., t_(n-1)), up to the first zero one: the
    fraction-free block Levinson recursion of the module docstring."""
    ev, od = col[0::2], col[1::2]
    p, prev = -od[0] if od else 0, 1
    F = [[1], [0], [0], [1]]
    pfs = []
    for k in range(1, len(od)):
        if not p:
            return pfs
        pfs.append(p)
        g00, g01, g10, g11 = _gamma(F, ev[k:0:-1], od[k - 1 :: -1], od[k:0:-1], _int_dot)
        # (Pf_k F - J F J X) / Pf_(k-1), X = (-g10, -g11, g00, g01)
        F = _flip_update(
            F,
            (-g10, -g11, g00, g01),
            lambda old, A, B, x0, x1: [(p * f - a * x0 - b * x1) // prev for f, a, b in zip(old, A, B)],
        )
        p, prev = (p * p + g01 * g10 - g00 * g00) // prev, p
    return pfs + [p] if p else pfs


# the engines of a block by (skew, Toeplitz), as the module docstring says
_Engines = namedtuple("_Engines", "hp fixed mpf exact exact_engine")
_ENGINES = {
    (True, True): _Engines(
        "skew_levinson", "_fixed_skew_levinson", "_skew_levinson_ratios", "ff_skew_levinson", "_ff_skew_levinson"
    ),
    (True, False): _Engines("pfaffian", "_fixed_skew", "_skew_ratios", "pfaffian", "_skew_pivots"),
    (False, True): _Engines("levinson", "_fixed_levinson", "_levinson_ratios", "ff_levinson", "_ff_levinson"),
    (False, False): _Engines("elimination", "_fixed_elimination", "_elimination_ratios", "bareiss", "_general_minors"),
}


def _read(rows, skew, toeplitz, read):
    """What the engines of a block read, each list of its entries passed
    through read: the first column of a skew Toeplitz block, the first
    column and row of another Toeplitz block, or a copy of any other block.
    Returns the engines' arguments and an iterator over the entries read."""
    if not toeplitz:
        a = [read(r) for r in rows]
        return (a,), chain.from_iterable(a)
    col = read([r[0] for r in rows])
    data = (col,) if skew else (col, read(rows[0]))
    return data, chain(*data)


def _exact_minors(rows, den, kind):
    """Exact leading minors of orders 1..len(rows) of the matrix rows / den,
    for integer rows, which stay as they are: minor k is m_k / den^k.

    The exact engine of the block's kind (skew, Toeplitz) serves the orders
    up to its first zero minor or Pfaffian; that order and every later one
    come from the general engine, rerun on the whole block."""
    n = len(rows)
    found = []
    for skew, toeplitz in (kind, (False, False)):
        if len(found) < n:
            engine = _ENGINES[skew, toeplitz]
            data, _ = _read(rows, skew, toeplitz, list)
            minors = globals()[engine.exact_engine](*data)
            if skew:
                minors = _skew_minors(minors, n, 0)
            k0 = len(found)
            found += [DetResult(Fraction(m, den**k), engine.exact) for k, m in enumerate(minors[k0:], k0 + 1)]
    return found


def _at_prec(v, prec):
    """to_mp(v, prec), except that an mpf whose mantissa fits prec is kept
    as it is: rounding it would rebuild an equal value."""
    return v if isinstance(v, mp.mpf) and v._mpf_[3] <= prec else to_mp(v, prec)


def _hp_minors(rows, kind, bits):
    """Leading minors of orders 1..m (m <= len(rows)) at bits of a block of
    kind (skew, Toeplitz), checked at bits + ceil(bits/2): enough, as the
    module docstring shows, to defend every digit the drift allows."""
    engine = _ENGINES[kind]
    passes = []
    for prec in (bits, bits + (bits + 1) // 2):
        with mp.workprec(prec):
            data, entries = _read(rows, *kind, lambda r: [_at_prec(v, prec) for v in r])
            if not passes:
                entries = list(entries)
                bar = mp.mpf(2) ** (-(bits // 2)) * max(abs(v) for v in entries)
                kernel = engine.fixed if all(isinstance(v, mp.mpf) for v in entries) else engine.mpf
            ratios = globals()[kernel](*data, prec, lambda p: abs(p) <= bar)
            with mp.workprec(prec + GUARD):
                minors = list(accumulate(ratios, mul))
                if kind[0]:
                    minors = _skew_minors(minors, len(rows), mp.mpf(0))
            minors = [+m for m in minors]
        passes.append(minors)
        if not minors:
            return []
        rows = [r[: len(minors)] for r in rows[: len(minors)]]
    out = []
    for d1, d2 in zip(*passes):
        rel = _drift(d1, d2, bits)
        if rel > mp.mpf(2) ** (-(bits // 4)):
            break
        out.append(_hp_result(d2, rel, bits, engine.hp))
    return out


def _engine_minors(M: StructuredMatrix, top: int, bits):
    """The engine's minors of orders 1..m (m <= top) of M's leading top x top
    block: all of them over the rationals (bits None), up to the first order
    the engine cannot serve over hp fields."""
    rows = [row[:top] for row in (M.rows if bits else M.ints)[:top]]
    toeplitz = M.structure == "toeplitz" and _is_toeplitz(rows)
    # one common den keeps the rule on the ints
    kind = _is_skew(rows, bits, toeplitz), toeplitz
    return _hp_minors(rows, kind, bits) if bits else _exact_minors(rows, M.den, kind)


def leading_minors(M: StructuredMatrix, orders, bits: int | None = None) -> list[DetResult]:
    """det of the leading n x n block of M for every n in orders, from one pass.

    orders may come unsorted and may repeat; the results follow them.  A
    rational matrix gives exact values and ignores bits: orders past a zero
    minor come from look-ahead steps of the same pass.  An hp matrix runs at
    bits (default: its field's; at least 64) and is checked at
    bits + ceil(bits/2); an order that the engine cannot serve, and every
    later one, comes from det_lu on the leading block (checked at 2*bits),
    so its errors propagate unchanged.

    M keeps what a call ran: the pass per bits and largest order (the
    engine reads the whole leading block of that order), and each det_lu
    fallback per bits and order.  A later call reads them and runs only
    what it lacks; a call that raises keeps nothing.
    """
    orders = [int(n) for n in orders]
    if any(not 1 <= n <= M.order for n in orders):
        raise ValueError("leading block orders must be in 1..%d" % M.order)
    if not orders:
        return []
    top = max(orders)
    if M.field.is_exact:
        bits = None
    else:
        bits = M.field.bits if bits is None else bits
        if bits < 64:
            raise ValueError("leading_minors needs at least 64 bits")
    held = M._minors
    found = held.get((bits, top))
    if found is None:
        found = _engine_minors(M, top, bits)
    lu = {}
    for n in orders:
        if n > len(found) and n not in lu:
            lu[n] = held.get((bits, "lu", n)) or det_lu(M.leading(n), bits)
    held.setdefault((bits, top), found)
    for n, res in lu.items():
        held.setdefault((bits, "lu", n), res)
    return [found[n - 1] if n <= len(found) else lu[n] for n in orders]


def det_auto(M: StructuredMatrix, bits: int | None = None) -> DetResult:
    """det M: the one-order case of leading_minors."""
    return leading_minors(M, [M.order], bits)[0]


def _plain_pfaffian(a, one):
    """Pf by skewsymmetric elimination of a in place, on Fractions or on mpc
    at the ambient precision: the partner row maximizes |a[k][j]|, j > k,
    the first on ties, and row and column swaps happen together, each
    flipping the sign."""
    n = len(a)
    sign = 1
    result = one
    for k in range(0, n - 1, 2):
        j_best, v_best = k + 1, abs(a[k][k + 1])
        for j in range(k + 2, n):
            v = abs(a[k][j])
            if v > v_best:
                j_best, v_best = j, v
        if v_best == 0:
            # row k is zero beyond position k: the matrix is singular
            return result * 0
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
    return sign * result


def _shifted(x, sh):
    """x * 2^sh for an int x, floored."""
    return x << sh if sh >= 0 else x >> -sh


def _fixed_pfaffian(a, prec):
    """_plain_pfaffian of a real matrix on ints, with its partner search and
    sign flips.  D A D is held as in _fixed_skew, upper triangle at per-row
    scales, so a swap of indices p < q moves entries between rows: row p
    gathers -a_cq (p < c < q), -a_pq and row q at one new scale, row q
    takes row p's tail, and a_rq = -a_pr (p < r < q) enters row r without
    losing bits.  The pivots multiply up at prec + GUARD to a result
    rounded once to prec.  The update repeats _fixed_skew's rather than
    share it, since Pf is the independent side of pfaffian_link."""
    n = len(a)
    W = prec + GUARD
    d = [-_top(r) for r in a]
    # held[i] holds columns i+1..n-1 of row i
    upper = (_fixed_row(r[i + 1 :], [d[i] + t for t in d[i + 1 :]], W) for i, r in enumerate(a))
    held, s = map(list, zip(*upper))
    sign = 1
    pivots = []
    for k in range(0, n - 1, 2):
        rowk = held[k]
        # |a_kj| is |rowk[j-k-1]| 2^-d_j up to a factor common to the row
        m = max(d[k + 1 :])
        mags = [abs(x) << (m - t) for x, t in zip(rowk, d[k + 1 :])]
        best = max(mags)
        if not best:
            return mp.mpf(0)  # row k is zero beyond position k
        p, q = k + 1, k + 1 + mags.index(best)
        if q != p:
            rowk[0], rowk[q - p] = rowk[q - p], rowk[0]
            # the new row p: -a_cq for p < c < q, -a_pq, then row q
            moved = [(-held[c][q - c - 1], s[c]) for c in range(p + 1, q)]
            moved += [(-held[p][q - p - 1], s[p])] + [(x, s[q]) for x in held[q]]
            for r in range(p + 1, q):
                # -a_pr becomes a_rq; row r widens rather than drop its bits
                if s[r] < s[p] and held[p][r - p - 1]:
                    held[r], s[r] = [x << (s[p] - s[r]) for x in held[r]], s[p]
                held[r][q - r - 1] = _shifted(-held[p][r - p - 1], s[r] - s[p])
            held[q], s[q] = held[p][q - p :], s[p]
            s[p] = W - max((x.bit_length() - t for x, t in moved if x), default=0)
            held[p] = [_shifted(x, s[p] - t) for x, t in moved]
            d[p], d[q] = d[q], d[p]
            sign = -sign
        rowk1 = held[p]
        pivots.append(_mpf(rowk[0], -(s[k] + d[k] + d[p]), W))
        for i in range(k + 2, n):
            # a_ij += (a_(k+1)i a_kj - a_ki a_(k+1)j) / a_k(k+1), j > i
            u = _quotient(rowk1[i - k - 2], rowk[0], W)
            v = _quotient(rowk[i - k - 1], rowk[0], W)
            (u, v), sh = _mantissas((u, v), s[i] - s[p])
            terms = zip(held[i], rowk[i - k :], rowk1[i - k - 1 :])
            row = [x + ((u * y - v * z) >> sh) for x, y, z in terms]
            (held[i],), s[i] = _renorm((row,), s[i], W)
    with mp.workprec(W):
        pf = sign * math.prod(pivots)
    with mp.workprec(prec):
        return +pf


def pfaffian(M: StructuredMatrix, bits: int | None = None):
    """Pfaffian of a skewsymmetric matrix of even order.

    The matrix must be skewsymmetric by the rule of leading_minors, read at
    bits (default: the field's; at least 64).  Exact over rationals; over hp
    fields the result is rounded to bits + 32 bits, and a real matrix runs
    on the fixed-point ints of _fixed_pfaffian.  The elimination pivots on
    the largest available off-diagonal entry; row and column swaps happen
    together, each flipping the sign.
    """
    if M.order % 2:
        raise ValueError("pfaffian needs even order")
    if M.field.is_exact:
        bits = None
    else:
        bits = M.field.bits if bits is None else bits
        if bits < 64:
            raise ValueError("pfaffian needs at least 64 bits")
    if not _is_skew(M.rows, bits):
        raise ValueError("pfaffian needs a skewsymmetric matrix")
    if bits is None:
        return _plain_pfaffian([[Fraction(v) for v in row] for row in M.rows], Fraction(1))
    prec = bits + 32
    # mpf entries go in unrounded; the kernel reads prec + GUARD bits of each row
    a = [[v if isinstance(v, mp.mpf) else to_mp(v, prec) for v in row] for row in M.rows]
    if all(isinstance(v, mp.mpf) for r in a for v in r):
        return _fixed_pfaffian(a, prec)
    with mp.workprec(prec):
        return _plain_pfaffian(a, mp.mpc(1))
