import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_int, from_man_exp, mpf_div

import sdet.determinants as determinants
import sdet.matrices as matrices
from sdet.determinants import (
    PrecisionError,
    det_auto,
    det_bareiss,
    det_lu,
    leading_minors,
    pfaffian,
)
from sdet.matrices import StructuredMatrix, toeplitz
from sdet.scalars import hp_complex, hp_real, infer_field, rational, to_mp
from sdet.symbols import (
    CoeffSeq,
    FHDescriptor,
    FHProduct,
    moment_to_skew_symbol,
    th_to_moment_symbol,
)
from sdet.transforms import ScalarSeq

from conftest import rand_fraction


def rational_matrix(rows):
    return StructuredMatrix(rows, rational(), "general")


def hp_matrix(rows, bits=128):
    return StructuredMatrix(rows, hp_real(bits), "general")


def random_skew(rng, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rand_fraction(rng)
            rows[i][j] = v
            rows[j][i] = -v
    return rational_matrix(rows)


def permutation_matrix(perm):
    n = len(perm)
    return [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def conjugate(P, M):
    n = len(P)
    PM = [
        [sum(P[i][l] * M[l][j] for l in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return [
        [sum(PM[i][l] * P[j][l] for l in range(n)) for j in range(n)]
        for i in range(n)
    ]


class TestBareiss:
    def test_identity(self):
        assert det_bareiss(rational_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).value == 1

    def test_small_moment_matrix(self):
        m = rational_matrix([[1, Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3)]])
        assert det_bareiss(m).value == Fraction(1, 12)

    def test_pivoting_through_zero_corner(self):
        assert det_bareiss(rational_matrix([[0, -1], [1, 0]])).value == 1

    def test_singular(self):
        assert det_bareiss(rational_matrix([[1, 2], [2, 4]])).value == 0

    def test_rejects_hp_field(self):
        with pytest.raises(TypeError):
            det_bareiss(hp_matrix([[1, 0], [0, 1]]))

    def test_result_is_exact_fraction(self, rng):
        rows = [[rand_fraction(rng) for _ in range(5)] for _ in range(5)]
        value = det_bareiss(rational_matrix(rows)).value
        assert isinstance(value, Fraction)


class TestLU:
    def test_identity_is_exact(self):
        res = det_lu(hp_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
        assert res.value == 1
        assert res.digits_guaranteed >= 30

    def test_agrees_with_bareiss_on_random_rationals(self, rng):
        for n in (3, 6, 10):
            rows = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
            exact = det_bareiss(rational_matrix(rows)).value
            res = det_lu(hp_matrix(rows, 256), 256)
            with mp.workprec(320):
                if exact == 0:
                    assert abs(res.value) < mp.mpf(2) ** -64
                else:
                    rel = abs(res.value - exact) / abs(mp.mpf(exact.numerator) / exact.denominator)
                    assert rel < mp.mpf(10) ** (-min(res.digits_guaranteed, 60))

    def test_rank_deficient_matrix_reports_zero(self):
        res = det_lu(hp_matrix([[1, 1], [1, 1]]))
        assert res.value == 0
        assert res.digits_guaranteed == 0

    def test_small_determinant_is_not_zero(self):
        # det = 10^-80 sits far below 2^-128 times the largest entry, but
        # every pivot is 1/100: singularity is read off the pivots
        T = toeplitz(CoeffSeq({0: Fraction(1, 100)}), 40, bits=256)
        res = det_lu(T)
        assert res.digits_guaranteed > 0
        with mp.workprec(256):
            assert abs(res.value / mp.mpf(10) ** -80 - 1) < mp.mpf(10) ** -70

    def test_tiny_pivot_matched_by_both_passes_is_not_singular(self):
        # lower bidiagonal, det = t_0^4 exactly: partial pivoting gathers the
        # four small factors into one last pivot of ~2^-255, below the
        # 2^-192 bar, but both passes find it exactly
        t0 = Fraction(-3, 2**66)
        T = toeplitz({0: t0, 1: Fraction(1, 2)}, 4, bits=128)
        res = det_lu(T, 128)
        assert res.digits_guaranteed > 0
        assert res.value == to_mp(t0**4, 128)
        assert res.value == leading_minors(T, [4], 128)[0].value

    def test_small_determinant_beyond_the_bits_pass_is_not_zero(self):
        # lower banded, det = t_0^4 = 81/2^264: the bits pass drifts, the
        # 2*bits pass has a pivot below 2^-192, and the 4*bits pass agrees
        # with it
        t0 = Fraction(-3, 2**66)
        T = toeplitz({0: t0, 1: Fraction(1, 2), 2: Fraction(2, 3)}, 4, bits=128)
        res = det_lu(T, 128)
        assert res.digits_guaranteed > 30
        with mp.workprec(256):
            assert abs(res.value / to_mp(t0**4, 256) - 1) < mp.mpf(10) ** -res.digits_guaranteed
        assert det_lu(toeplitz({0: t0, 1: Fraction(1, 2), 2: Fraction(2, 3)}, 4), 128).value == res.value

    def test_rationally_singular_block_reports_zero(self):
        # row 3 = row 1 + row 2 over the rationals; the entries round
        # differently at bits and at 2*bits, so the passes disagree on the
        # tiny last pivot
        r1 = [Fraction(1, 3), Fraction(1, 7), Fraction(2, 5)]
        r2 = [Fraction(2, 5), Fraction(3, 11), Fraction(-1, 9)]
        M = StructuredMatrix([r1, r2, [a + b for a, b in zip(r1, r2)]], hp_real(128), check=False)
        res = det_lu(M, 128)
        assert res.value == 0
        assert res.digits_guaranteed == 0

    def test_minimum_bits(self):
        with pytest.raises(ValueError):
            det_lu(hp_matrix([[1]]), 32)

    def test_unstable_cancellation_raises(self):
        # an O(1) determinant reachable only through 71-bit cancellation:
        # at 64 bits the pivot update rounds to zero, at 128 bits it does not
        big = 2**40
        rows = [[big, big + 2**5], [big - 2**5, big]]
        m = hp_matrix(rows, 64)
        with pytest.raises(PrecisionError) as info:
            det_lu(m, 64)
        assert info.value.recommended_bits == 128
        res = det_lu(m, 128)
        with mp.workprec(160):
            assert abs(res.value - 1024) < mp.mpf(2) ** -40

    def test_auto_dispatch(self):
        exact = det_auto(rational_matrix([[2, 0], [0, 2]]))
        assert exact.method == "bareiss" and exact.value == 4
        hp = det_auto(hp_matrix([[2, 0], [0, 2]]))
        assert hp.method == "elimination"
        assert hp.value == 4


def test_quotient_rounds_as_mpf_div():
    rng = random.Random(7)
    for case in range(12000):
        prec = rng.choice([64, 96, 160, 288, 544])
        num = rng.getrandbits(rng.randint(1, 2 * prec)) * rng.choice([1, -1])
        den = rng.getrandbits(rng.randint(1, 2 * prec)) or 1
        kind = case % 4
        if kind == 1:
            den = 1 << rng.randint(0, 300)
        elif kind == 2:
            num = den * rng.getrandbits(rng.randint(1, prec + 4)) * rng.choice([1, -1])
        elif kind == 3:
            # prec + 1 significant bits ending in 1: halfway between two
            # prec-bit values
            num = ((rng.getrandbits(prec) | 1 << prec | 1) * den) << rng.randint(0, 4)
        den *= rng.choice([1, -1])
        want = mpf_div(from_int(num), from_int(den), prec, "n")
        assert determinants._quotient(num, den, prec) == want, (num, den, prec)


def log10_digits(drift, bits):
    with mp.workprec(2 * bits):
        return int(-mp.log10(drift))


@settings(max_examples=300, deadline=None)
@given(
    bits=st.integers(64, 1024),
    man=st.integers(1, 2**2048),
    exp=st.integers(-4500, 50),
)
def test_drift_digits_equal_log10(bits, man, exp):
    drift = mp.make_mpf(from_man_exp(man, exp - man.bit_length(), 2 * bits, "n"))
    assert determinants._drift_digits(drift, bits) == log10_digits(drift, bits)


@settings(max_examples=300, deadline=None)
@given(
    bits=st.integers(64, 1024),
    k=st.integers(1, 600),
    rel=st.sampled_from([1e-12, -1e-12, 3e-9, -3e-9, 1e-6, -1e-6]),
)
def test_drift_digits_near_powers_of_ten(bits, k, rel):
    # 10^-k (1 + rel): the float form lies within 1e-9 of k for |rel| 1e-12
    # and just outside it for |rel| 3e-9
    with mp.workprec(2 * bits):
        drift = mp.mpf(10) ** -k * (1 + mp.mpf(rel))
    assert determinants._drift_digits(drift, bits) == log10_digits(drift, bits)


def test_drift_digits_use_floats_away_from_integers(monkeypatch):
    calls = []
    log10 = mp.log10
    monkeypatch.setattr(mp, "log10", lambda x: calls.append(x) or log10(x))
    drift = mp.make_mpf(from_man_exp(3, -500, 512, "n"))
    assert determinants._drift_digits(drift, 256) == 150  # -log10(3 * 2^-500) = 150.03
    assert calls == []
    determinants._drift_digits(mp.make_mpf(from_int(1)), 256)  # -log10(1) = 0
    assert len(calls) == 1


class TestPfaffian:
    def test_sign_convention(self):
        assert pfaffian(rational_matrix([[0, -1], [1, 0]])) == -1
        assert pfaffian(rational_matrix([[0, Fraction(-3, 2)], [Fraction(3, 2), 0]])) == Fraction(-3, 2)

    def test_block_multiplicativity(self):
        rows = [
            [0, 2, 0, 0],
            [-2, 0, 0, 0],
            [0, 0, 0, Fraction(1, 3)],
            [0, 0, Fraction(-1, 3), 0],
        ]
        assert pfaffian(rational_matrix(rows)) == Fraction(2, 3)

    def test_square_equals_determinant(self, rng):
        for n in (2, 4, 6, 8, 10):
            m = random_skew(rng, n)
            pf = pfaffian(m)
            assert pf * pf == det_bareiss(m).value

    def test_congruence_by_permutation(self, rng):
        for _ in range(10):
            n = rng.choice((4, 6, 8))
            m = random_skew(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            P = permutation_matrix(perm)
            conj = rational_matrix(conjugate(P, m.tolist()))
            assert pfaffian(conj) == perm_sign(perm) * pfaffian(m)

    def test_odd_order_rejected(self):
        rows = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
        with pytest.raises(ValueError):
            pfaffian(rational_matrix(rows))

    def test_non_skew_rejected(self):
        with pytest.raises(ValueError):
            pfaffian(rational_matrix([[0, 1], [1, 0]]))

    def test_singular_skew(self):
        rows = [[Fraction(0)] * 4 for _ in range(4)]
        rows[0][1], rows[1][0] = Fraction(1), Fraction(-1)
        assert pfaffian(rational_matrix(rows)) == 0

    def test_hp_square_matches_lu_determinant(self, rng):
        n = 6
        m = random_skew(rng, n)
        with mp.workprec(256):
            rows = [[to_mp(v, 192) for v in row] for row in m.tolist()]
            hp = hp_matrix(rows, 192)
            pf = pfaffian(hp, 192)
            det = det_lu(hp, 192).value
            assert abs(pf * pf - det) < mp.mpf(2) ** -120 * max(abs(det), 1)

    def test_skew_toeplitz_pfaffian(self):
        c = ScalarSeq({1: Fraction(3, 2)}, "odd")
        T = toeplitz(c, 2)
        assert pfaffian(T) == Fraction(-3, 2)


def exact_rows(M):
    """The rational values of an hp matrix's mpf entries."""
    def exact(v):
        sign, man, exp, _ = v._mpf_
        return Fraction(-man if sign else man) * Fraction(2) ** exp

    return [[exact(v) for v in row] for row in M.rows]


def skew_from_upper(upper, n, field=None):
    """The skewsymmetric matrix with upper[(i, j)] above the diagonal, over
    field (rational by default, else with entries rounded to its bits)."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), v in upper.items():
        rows[i][j], rows[j][i] = Fraction(v), -Fraction(v)
    if field is None:
        return rational_matrix(rows)
    return StructuredMatrix([[to_mp(v, field.bits) for v in r] for r in rows], field)


def assert_close(got, exact, rel, prec):
    with mp.workprec(prec):
        want = to_mp(exact, prec)
        assert abs(got - want) <= rel * abs(want)


@pytest.fixture
def pfaffian_paths(monkeypatch):
    """Calls of pfaffian's two elimination paths, by name."""
    calls = []
    fixed, plain = determinants._fixed_pfaffian, determinants._plain_pfaffian

    def counted_fixed(a, prec):
        calls.append("fixed")
        return fixed(a, prec)

    def counted_plain(a, one):
        calls.append("plain")
        return plain(a, one)

    monkeypatch.setattr(determinants, "_fixed_pfaffian", counted_fixed)
    monkeypatch.setattr(determinants, "_plain_pfaffian", counted_plain)
    return calls


def pfaffian_link_symbols():
    """The moment symbols of the hp pfaffian_link checks, whose T_2N(c) the
    tests build."""
    exp_cos = FHProduct(FHDescriptor({1: 0.15, -1: 0.15}))
    cos_sym = CoeffSeq({-1: Fraction(1, 2), 0: 1, 1: Fraction(1, 2)}, symmetry="even")
    return [th_to_moment_symbol(exp_cos), th_to_moment_symbol(cos_sym)]


class TestFixedPointPfaffian:
    """A real hp matrix runs pfaffian's elimination on fixed-point ints."""

    @pytest.mark.parametrize("bits", [128, 256])
    def test_against_exact_and_double_precision(self, bits, pfaffian_paths):
        for b in pfaffian_link_symbols():
            T = toeplitz(moment_to_skew_symbol(b), 20, infer_field(b, bits))
            R = StructuredMatrix(exact_rows(T), rational(), "toeplitz")
            exact = [pfaffian(R.leading(2 * N)) for N in range(1, 11)]
            pfaffian_paths.clear()
            for N, pf in zip(range(1, 11), exact):
                got = pfaffian(T.leading(2 * N))
                assert_close(got, pf, mp.mpf(2) ** -(bits + 16), 4 * bits)
                assert_close(got, pfaffian(T.leading(2 * N), 2 * bits), mp.mpf(2) ** -(bits + 16), 4 * bits)
            assert pfaffian_paths == ["fixed"] * 20

    def test_graded_rows_that_shrink_by_160_bits(self):
        # a_01 = 2^82 and rows 0, 1 of size 2^80 clear the trailing entries,
        # 2^78 (x_i y_j - y_i x_j) + s_ij, exactly down to s_ij ~ 2^-80, so the
        # trailing rows shrink by 160 bits before the next, inexact steps
        rng = random.Random(5)
        n, bits = 10, 256
        x = [0, 0] + [rng.choice([-3, -1, 1, 2, 3]) for _ in range(n - 2)]
        y = [0, 0] + [rng.choice([-3, -1, 1, 2, 3]) for _ in range(n - 2)]
        upper = {(0, 1): Fraction(2**82)}
        for j in range(2, n):
            upper[0, j], upper[1, j] = Fraction(2**80 * x[j]), Fraction(2**80 * y[j])
            for i in range(2, j):
                s = Fraction(rng.choice([-7, -5, -3, -1, 1, 3, 5, 7]), 2**83)
                upper[i, j] = 2**78 * (x[i] * y[j] - y[i] * x[j]) + s
        M = skew_from_upper(upper, n, hp_real(bits))
        exps = [determinants._exponent(v) for row in M.rows for v in row if v]
        assert min(exps) <= -80 and max(exps) >= 80
        exact = pfaffian(rational_matrix(exact_rows(M)))
        assert exact != 0
        assert_close(pfaffian(M), exact, mp.mpf(2) ** -(bits - 16), 4 * bits)

    def test_partner_search_swaps(self):
        # a_01 = 0, so the first step must bring row 3 (|a_03| largest) up,
        # across row 2
        upper = {(0, 2): 1, (0, 3): -5, (0, 4): 2, (0, 5): 3, (1, 2): Fraction(1, 3)}
        upper.update({(1, 3): 7, (1, 4): Fraction(-2, 7), (2, 3): 4, (2, 4): Fraction(5, 3)})
        upper.update({(2, 5): -6, (3, 5): Fraction(1, 5), (4, 5): 9, (1, 5): 1})
        for bits in (128, 256):
            M = skew_from_upper(upper, 6, hp_real(bits))
            exact = pfaffian(rational_matrix(exact_rows(M)))
            assert_close(pfaffian(M), exact, mp.mpf(2) ** -(bits + 16), 4 * bits)
        # relabelling indices 0 and 1 is a transposition, which flips Pf
        relabel = {0: 1, 1: 0}
        swapped = {}
        for (i, j), v in upper.items():
            i, j = relabel.get(i, i), relabel.get(j, j)
            swapped[min(i, j), max(i, j)] = v if i < j else -v
        got = pfaffian(skew_from_upper(swapped, 6, hp_real(bits)))
        assert_close(got, -exact, mp.mpf(2) ** -(bits + 16), 4 * bits)

    def test_swap_moves_an_entry_into_a_row_without_entries(self):
        # the partner of row 0 is 3, so a_12 becomes an entry of row 2, whose
        # part right of the diagonal was zero; it must keep all its bits
        upper = {(0, 1): 1, (0, 3): 3 * 2**80, (1, 2): Fraction(5, 3), (1, 3): 2**80}
        for bits in (128, 256):
            M = skew_from_upper(upper, 4, hp_real(bits))
            exact = pfaffian(rational_matrix(exact_rows(M)))
            assert_close(pfaffian(M), exact, mp.mpf(2) ** -(bits + 16), 4 * bits)

    def test_zero_row_gives_zero(self):
        upper = {(0, 1): 1, (0, 3): 2, (1, 3): Fraction(1, 3), (3, 4): 5, (3, 5): -1, (4, 5): 2}
        res = pfaffian(skew_from_upper(upper, 6, hp_real(128)))
        assert isinstance(res, mp.mpf) and res == 0
        assert pfaffian(skew_from_upper(upper, 6)) == 0

    def test_odd_order_and_non_skew_raise(self):
        with pytest.raises(ValueError):
            pfaffian(skew_from_upper({(0, 1): 1, (1, 2): 2}, 3, hp_real(128)))
        with pytest.raises(ValueError):
            pfaffian(hp_matrix([[to_mp(0, 128), to_mp(1, 128)], [to_mp(1, 128), to_mp(0, 128)]]))

    def test_complex_entries_keep_the_mpf_path(self, pfaffian_paths):
        bits = 128
        upper = {(0, 1): 2, (0, 2): 1, (0, 3): -1, (1, 2): 3, (1, 3): Fraction(1, 2), (2, 3): 5}
        field = hp_complex(bits)
        rows = [[to_mp(complex(v), bits) for v in r] for r in skew_from_upper(upper, 4).rows]
        rows[0][1], rows[1][0] = to_mp(2 + 1j, bits), to_mp(-2 - 1j, bits)
        got = pfaffian(StructuredMatrix(rows, field))
        assert pfaffian_paths == ["plain"]
        # Pf = a01 a23 - a02 a13 + a03 a12
        assert isinstance(got, mp.mpc)
        with mp.workprec(2 * bits):
            assert abs(got - ((2 + 1j) * 5 - 1 * mp.mpf(1) / 2 + (-1) * 3)) < mp.mpf(2) ** -(bits - 8)
        pfaffian_paths.clear()
        pfaffian(skew_from_upper(upper, 4, hp_real(bits)))
        assert pfaffian_paths == ["fixed"]

    def test_never_runs_the_leading_minor_engines(self, monkeypatch):
        # Pf is the independent side of pfaffian_link; det T_2N there comes
        # from leading_minors, so the two must not share a kernel
        calls = []
        engines = ("_fixed_skew", "_fixed_skew_levinson", "_skew_ratios", "_skew_levinson_ratios")
        engines += ("_skew_pivots", "_ff_skew_levinson")
        for name in ("leading_minors", "_hp_minors", *engines):
            original = getattr(determinants, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(determinants, name, counted)
        b = pfaffian_link_symbols()[0]
        for field in (hp_real(128), hp_complex(128)):
            pfaffian(toeplitz(moment_to_skew_symbol(b), 8, field))
        pfaffian(toeplitz(ScalarSeq({1: 1, 2: Fraction(1, 3)}, "odd"), 8))
        assert calls == []


def odd_toeplitz_block(bits, rel):
    """The general-tagged hp block (t_(j-k)), n = 8, with t_k = k/(k^2 + 3) for
    k > 0 at bits, t_0 = 0 and t_(-k) = -t_k (1 + rel), at bits + 64."""
    n = 8
    t = {k: to_mp(Fraction(k, k * k + 3), bits) for k in range(1, n)}
    t[0] = to_mp(0, bits)
    with mp.workprec(bits + 64):
        t.update({-k: -t[k] * (1 + rel) for k in range(1, n)})
    return StructuredMatrix([[t[j - k] for k in range(n)] for j in range(n)], hp_real(bits))


class TestOneSkewRule:
    """leading_minors' skew engine, pfaffian and is_skew read skewsymmetry by
    one rule: a_ji = -a_ij after both are rounded to bits."""

    def test_guard_bits_do_not_count(self):
        bits = 128
        M = odd_toeplitz_block(bits, mp.mpf(2) ** -(bits + 20))
        with mp.workprec(2 * bits):
            assert M.rows[1][0] != -M.rows[0][1]
        assert M.is_skew()
        got = leading_minors(M, range(1, 9))
        assert {r.method for r in got} == {"pfaffian"}
        exact = odd_toeplitz_block(bits, 0)
        assert_close(pfaffian(M), pfaffian(exact), mp.mpf(2) ** -(bits + 16), 4 * bits)

    def test_a_difference_at_bits_is_not_skew(self):
        bits = 128
        M = odd_toeplitz_block(bits, mp.mpf(2) ** -(bits - 8))
        assert not M.is_skew()
        # odd orders are ~2^-120 here, which det_lu cannot resolve at bits
        assert {r.method for r in leading_minors(M, [2, 4, 6, 8])} <= {"elimination", "lu"}
        with pytest.raises(ValueError):
            pfaffian(M)

    def test_pfaffian_reads_no_entry_bound(self, monkeypatch):
        M = odd_toeplitz_block(128, 0)
        calls = []
        bound_for, entry_bound = matrices._bound_for, StructuredMatrix._entry_bound
        monkeypatch.setattr(matrices, "_bound_for", lambda *a: calls.append("_bound_for") or bound_for(*a))
        monkeypatch.setattr(StructuredMatrix, "_entry_bound", lambda m: calls.append("_entry_bound") or entry_bound(m))
        pfaffian(M)
        pfaffian(M, 256)
        assert calls == []


# zero-rich, so that zero rows and zero Pfaffians occur
fractions = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)) | st.just(Fraction(0))


@settings(max_examples=30, deadline=None)
@given(half=st.integers(1, 6), values=st.lists(fractions, min_size=66, max_size=66))
def test_hp_pfaffian_within_the_hadamard_bound(half, values):
    n, bits = 2 * half, 128
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    upper = dict(zip(pairs, values))
    R = skew_from_upper(upper, n)
    exact = pfaffian(R)
    got = pfaffian(skew_from_upper(upper, n, hp_real(bits)))
    with mp.workprec(4 * bits):
        # |Pf| <= prod ||row_i||^(1/2), since Pf^2 = det
        hadamard = math.prod(mp.sqrt(mp.sqrt(to_mp(sum(v * v for v in r), 4 * bits))) for r in R.rows)
        # where the exact Pf is 0, got is 0 or below the bound too
        assert abs(got - to_mp(exact, 4 * bits)) <= mp.mpf(2) ** -(bits - 16) * hadamard
