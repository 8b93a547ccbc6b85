"""Matrices built once per symbol, and leading-minor passes kept per matrix.

A builder called with a symbol keeps the matrix on it, one per family, N and
field; leading_minors keeps its pass on the matrix, per bits and largest
order.  A repeated request must read exactly what a fresh symbol's first
pass gives, and the two sides of an identity must stay distinct matrices
with passes of their own.
"""

from fractions import Fraction

import mpmath as mp
import pytest

import sdet.determinants as determinants
import sdet.identities as identities
from sdet.determinants import PrecisionError, det_bareiss, leading_minors
from sdet.identities import IdentityKind, pfaffian_link, verify, verify_all
from sdet.matrices import hankel, hankel_moment, toeplitz, toeplitz_plus_hankel
from sdet.scalars import hp_complex, hp_real, rational
from sdet.symbols import CoeffSeq, FHDescriptor, FHProduct, MomentSymbol, th_to_moment_symbol
from sdet.transforms import ScalarSeq

BITS = 128
N = 6


@pytest.fixture
def passes(monkeypatch):
    """Leading-minor passes run, as the matrices' leading blocks of the
    largest order each pass read (rows for hp, integer rows for exact)."""
    calls = []
    for name in ("_hp_minors", "_exact_minors"):
        original = getattr(determinants, name)

        def counted(a, *args, _original=original):
            calls.append(len(a))
            return _original(a, *args)

        monkeypatch.setattr(determinants, name, counted)
    return calls


def _complexify(entries):
    return {n: complex(v) + 1j / (7 + n * n) for n, v in entries.items()}


def _general():
    return {n: Fraction(1 if n > 0 else -1, 3 + n * n) if n else Fraction(2) for n in range(-11, 12)}


# family -> (builder, coefficient map, symmetry); the builders read the
# coefficients of a CoeffSeq, so each family can take every field
FAMILIES = {
    "toeplitz": (toeplitz, _general, None),
    "skew": (toeplitz, lambda: {1: 1, 2: Fraction(1, 3), 3: Fraction(-1, 5)}, "odd"),
    "hankel_moment": (hankel_moment, lambda: {n: Fraction(1, n + 1) for n in range(1, 12)}, None),
    "t_plus_h": (toeplitz_plus_hankel, lambda: {0: 3, 1: 1, 2: Fraction(1, 2)}, "even"),
}
FIELDS = {"rational": rational(), "hp_real": hp_real(BITS), "hp_complex": hp_complex(BITS)}


def make_symbol(family, field_name):
    _, entries, symmetry = FAMILIES[family]
    entries = entries()
    if field_name == "hp_complex":
        entries = _complexify({n: v for n, v in entries.items() if n >= 0 or symmetry is None})
    return CoeffSeq(entries, symmetry=symmetry)


def summary(results):
    return [(r.value, r.method, r.digits_guaranteed) for r in results]


class TestMatrixMemo:
    @pytest.mark.parametrize("field_name", sorted(FIELDS))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_repeat_reads_the_first_pass(self, family, field_name, passes):
        build, field = FAMILIES[family][0], FIELDS[field_name]
        sym = make_symbol(family, field_name)
        M = build(sym, N, field)
        assert M.field == field
        orders = list(range(1, N + 1))
        first = leading_minors(M, orders)
        assert passes == [N]
        assert build(sym, N, field) is M
        again = leading_minors(build(sym, N, field), orders[::-1])
        assert passes == [N]
        assert all(x is y for x, y in zip(again, first[::-1]))
        fresh = leading_minors(build(make_symbol(family, field_name), N, field), orders)
        assert passes == [N, N]
        assert summary(first) == summary(fresh)
        if field_name == "rational":
            assert [r.value for r in first] == [det_bareiss(M.leading(n)).value for n in orders]

    def test_another_bits_field_or_size_starts_a_new_pass(self, passes):
        sym = make_symbol("toeplitz", "hp_real")
        M = toeplitz(sym, N, hp_real(BITS))
        leading_minors(M, [N])
        leading_minors(M, [N], BITS + 64)
        assert len(passes) == 2
        leading_minors(M, [N - 2])  # another largest order reads another block
        assert passes[2:] == [N - 2]
        for other in (hp_real(BITS + 64), hp_complex(BITS), rational()):
            assert toeplitz(sym, N, other) is not M
            leading_minors(toeplitz(sym, N, other), [N])
        assert hankel(sym, N, hp_real(BITS)).rows != M.rows  # another family
        bigger = toeplitz(sym, N + 2, hp_real(BITS))
        assert bigger is not M
        leading_minors(bigger, [N + 2])
        assert passes[3:] == [N, N, N, N + 2]
        # every one of them is kept: a second round runs nothing
        del passes[:]
        leading_minors(M, [N])
        leading_minors(M, [N], BITS + 64)
        leading_minors(toeplitz(sym, N, rational()), [N])
        leading_minors(bigger, [N + 2])
        assert passes == []

    def test_a_plain_sequence_keeps_no_matrix(self):
        seq = ScalarSeq({0: 3, 1: 1}, "even")
        assert toeplitz(seq, N) is not toeplitz(seq, N)
        assert toeplitz_plus_hankel({0: 3, 1: 1}, N) is not toeplitz_plus_hankel({0: 3, 1: 1}, N)

    def test_a_build_that_raises_keeps_nothing(self):
        sym = FHProduct(FHDescriptor({1: 0.15, -1: 0.15}))
        with pytest.raises(TypeError):
            toeplitz(sym, 4, rational())
        assert not any(isinstance(key, tuple) and key[0] == "toeplitz" for key in sym._derived)

    def test_a_pass_that_raises_keeps_nothing(self, passes, monkeypatch):
        M = toeplitz(make_symbol("toeplitz", "hp_real"), N, hp_real(BITS))
        engine = determinants._hp_minors

        def broken(rows, kind, bits):
            engine(rows, kind, bits)
            raise PrecisionError("forced")

        with monkeypatch.context() as patch:
            patch.setattr(determinants, "_hp_minors", broken)
            with pytest.raises(PrecisionError):
                leading_minors(M, [N])
        assert M._minors == {}
        fresh = toeplitz(make_symbol("toeplitz", "hp_real"), N, hp_real(BITS))
        assert summary(leading_minors(M, [N])) == summary(leading_minors(fresh, [N]))

    def test_det_lu_fallbacks_are_kept(self, monkeypatch):
        # det T_1 = 0: the engine serves no order, so every one takes det_lu
        M = toeplitz(CoeffSeq({1: 1, -1: 2, 2: Fraction(1, 3)}), 3, hp_real(BITS))
        first = leading_minors(M, [1, 2, 3])
        assert [r.method for r in first] == ["lu"] * 3
        lu = []
        monkeypatch.setattr(determinants, "det_lu", lambda *args: lu.append(args))
        assert leading_minors(M, [3, 1]) == [first[2], first[0]]
        assert lu == []


def acceptance_2_cases():
    """The acceptance-2 hp set at nmax 10 and 256 bits, on fresh symbols."""
    exp_cos = FHProduct(FHDescriptor({1: 0.15, -1: 0.15}))
    cos_sym = CoeffSeq({-1: Fraction(1, 2), 0: 1, 1: Fraction(1, 2)}, symmetry="even")
    exp_profile = MomentSymbol(
        lambda x: mp.exp((mp.mpf(3) / 5) * x * x - mp.mpf(3) / 10), weight="sqrt_ratio", parity="even"
    )
    poly_profile = MomentSymbol.from_poly({2: 2}, weight="sqrt_ratio")
    hp = {"mode": "hp", "bits": 256}
    return [
        lambda: verify(IdentityKind.THvsMoment, exp_cos, 10, **hp),
        lambda: verify(IdentityKind.THvsMoment, cos_sym, 10, **hp),
        lambda: verify(IdentityKind.MomentSkewSquare, th_to_moment_symbol(exp_cos), 10, **hp),
        lambda: verify(IdentityKind.MomentSkewSquare, th_to_moment_symbol(cos_sym), 10, **hp),
        lambda: verify(IdentityKind.MomentToToeplitz, exp_profile, 10, **hp),
        lambda: verify(IdentityKind.MomentToToeplitz, poly_profile, 10, **hp),
        lambda: pfaffian_link(th_to_moment_symbol(exp_cos), 10, bits=256),
        lambda: pfaffian_link(th_to_moment_symbol(cos_sym), 10, bits=256),
    ]


class TestSharedPasses:
    def test_acceptance_2_runs_one_pass_per_distinct_matrix(self, passes):
        # per moment twin: T+H_10(a), H_10[b] and T_20(c), where each verify
        # and pfaffian_link on its own would run 2: 10 passes in place of 16
        reports = [case() for case in acceptance_2_cases()]
        assert all(rep.passed for rep in reports)
        assert sorted(passes) == [10] * 8 + [20] * 2

    @pytest.mark.parametrize(
        "entries, symmetry, distinct",
        [
            # T+H_N(a), H_N[b] and T_2N(c)
            ({0: 2, 1: Fraction(1, 3), 2: Fraction(-1, 4)}, "even", 3),
            # the same, plus T_N(d) and T_2N(a) for the quarter wave and the parity split
            ({0: 2, 2: Fraction(1, 3), 4: Fraction(-1, 4)}, "even", 5),
            # T_2N(c) and H_N[b]
            ({1: 1, 2: Fraction(1, 3)}, "odd", 2),
        ],
    )
    def test_verify_all_exact_runs_one_pass_per_distinct_matrix(self, entries, symmetry, distinct, passes):
        sym = CoeffSeq(entries, symmetry=symmetry)
        reports = verify_all(sym, 5, "exact")
        assert {rep.verdict for rep in reports} == {"pass", "skipped"}
        assert len(passes) == distinct
        # the same reports from a plain sequence, which shares nothing
        del passes[:]
        plain = verify_all(ScalarSeq(entries, symmetry), 5, "exact")
        assert [rep.to_json() for rep in plain] == [rep.to_json() for rep in reports]
        assert len(passes) == 2 * sum(rep.verdict == "pass" for rep in reports)


def _even():
    return CoeffSeq({0: 2, 1: Fraction(1, 3), 2: Fraction(-1, 4)}, symmetry="even")


def _even_support():
    return CoeffSeq({0: 2, 2: Fraction(1, 3), 4: Fraction(-1, 4)}, symmetry="even")


def _cos_twin():
    return th_to_moment_symbol(CoeffSeq({-1: Fraction(1, 2), 0: 1, 1: Fraction(1, 2)}, symmetry="even"))


def _fh_even_support():
    return FHProduct(FHDescriptor({2: 0.1, -2: 0.1}))


def _odd():
    return CoeffSeq({1: 1, 2: Fraction(1, 3)}, symmetry="odd")


class TestOneOwner:
    """Every kind lays its matrices out of the input itself when it is a
    symbol, so the kinds and repeated checks on one input share each matrix
    and its pass."""

    @pytest.mark.parametrize("make", [_fh_even_support, _even_support], ids=["fh", "coeffs"])
    def test_verify_all_hp_runs_one_pass_per_distinct_matrix(self, make, passes):
        # T+H_8(a), H_8[b] of a_to_b, the twin's H_8[b], T_8(d) and the two
        # T_8(t_{-+1/2} d); T_16(c), T_16(a) and T_16(chi a)
        reports = verify_all(make(), 8, "hp", BITS)
        assert {rep.verdict for rep in reports} == {"pass", "skipped"}
        assert sorted(passes) == [8] * 6 + [16] * 3

    @pytest.mark.parametrize("make", [_fh_even_support, _even_support], ids=["fh", "coeffs"])
    def test_even_kinds_build_one_t_plus_h(self, make):
        inp = make()
        kinds = [IdentityKind.HankelCongruence, IdentityKind.THvsMoment, IdentityKind.QuarterWave]
        built = [identities._sides(kind, inp, N, BITS, [])[0][0] for kind in kinds]
        built.append(identities._sides(IdentityKind.SkewSquare, inp, N, BITS, [])[1][0])
        assert built[0].structure == "toeplitz_plus_hankel"
        assert all(M is built[0] for M in built)

    @pytest.mark.parametrize("mode", ["exact", "hp"])
    def test_odd_sequence_keeps_its_t_2n(self, mode, passes):
        # T_2N(c) stays on c with its pass; H_N[b] of c_to_b is built afresh
        c = _odd()
        first = verify(IdentityKind.CSeqSquare, c, N, mode, BITS)
        second = verify(IdentityKind.CSeqSquare, c, N, mode, BITS)
        assert first.passed and second.to_json() == first.to_json()
        assert passes == [2 * N, N, N]


# every kind on an input it takes, as a fresh symbol per call
GUARD_INPUTS = {
    IdentityKind.HankelCongruence: _even,
    IdentityKind.THvsMoment: _even,
    IdentityKind.QuarterWave: _even_support,
    IdentityKind.MomentToToeplitz: lambda: MomentSymbol.from_poly({2: 2}, weight="sqrt_ratio"),
    IdentityKind.SkewSquare: _even,
    IdentityKind.CSeqSquare: _odd,
    IdentityKind.MomentSkewSquare: _cos_twin,
    IdentityKind.ParitySplitEven: _even_support,
    IdentityKind.ParitySplitChi: _even_support,
}


class TestGuardRail:
    """The two sides of one identity never share a matrix or a pass."""

    @pytest.mark.parametrize("mode", ["exact", "hp"])
    @pytest.mark.parametrize("kind", list(IdentityKind), ids=lambda k: k.value)
    def test_sides_are_distinct_matrices_with_own_passes(self, kind, mode, passes):
        row = identities._IDENTITIES[kind]
        if mode == "exact" and not row.exact:
            pytest.skip("no exact mode")
        n = 4
        inp = GUARD_INPUTS[kind]()
        assert row.applies(inp)
        lhs, rhs = identities._sides(kind, inp, n, None if mode == "exact" else BITS, [])
        # a squared side names its matrix twice; the two sides share none,
        # and parity_split_chi's two right factors are distinct matrices
        assert not {id(M) for M in lhs} & {id(M) for M in rhs}
        if kind == IdentityKind.ParitySplitChi:
            assert rhs[0] is not rhs[1]
        distinct = list({id(M): M for M in lhs + rhs}.values())
        assert all(M._minors == {} for M in distinct)
        records = identities._sweep(list(range(1, n + 1)), None if mode == "exact" else BITS, lhs, rhs)
        assert all(r.ok for r in records)
        # one pass per distinct matrix, each kept on its own matrix
        assert sorted(passes) == sorted(M.order for M in distinct)
        bits = None if mode == "exact" else BITS
        assert all(list(M._minors) == [(bits, M.order)] for M in distinct)
        # and verify on a fresh input runs one pass per distinct matrix as well
        del passes[:]
        assert verify(kind, GUARD_INPUTS[kind](), n, mode, BITS).passed
        assert len(passes) == len(distinct)

    def test_pfaffian_link_runs_pfaffian_once_per_n(self, passes, monkeypatch):
        calls = []
        pfaffian = identities.pfaffian

        def counted(M, *args):
            calls.append(M.order)
            return pfaffian(M, *args)

        monkeypatch.setattr(identities, "pfaffian", counted)
        b = _cos_twin()
        assert pfaffian_link(b, 4, bits=BITS).passed
        assert calls == [2, 4, 6, 8] and sorted(passes) == [4, 8]
        # after moment_skew_square on the same b, the link reads its passes
        # but still takes every Pfaffian afresh
        del calls[:], passes[:]
        b = _cos_twin()
        assert verify(IdentityKind.MomentSkewSquare, b, 4, "hp", BITS).passed
        assert pfaffian_link(b, 4, bits=BITS).passed
        assert calls == [2, 4, 6, 8] and sorted(passes) == [4, 8]


@pytest.fixture
def hp_engines(monkeypatch):
    """(order, method) of every hp leading-minor pass, and the skew block
    Levinson kernels run, fixed-point or mpf."""
    calls, kernels = [], []
    hp_minors = determinants._hp_minors

    def counted(rows, kind, bits):
        calls.append((len(rows), determinants._ENGINES[kind].hp))
        return hp_minors(rows, kind, bits)

    def kernel(name, original):
        def run(*args):
            kernels.append(name)
            return original(*args)

        return run

    monkeypatch.setattr(determinants, "_hp_minors", counted)
    monkeypatch.setattr(determinants, "_fixed_skew_levinson", kernel("fixed", determinants._fixed_skew_levinson))
    monkeypatch.setattr(determinants, "_skew_levinson_ratios", kernel("mpf", determinants._skew_levinson_ratios))
    return calls, kernels


class TestSkewBlockLevinsonGuardRail:
    """The skew block Levinson serves the hp skew Toeplitz sides, except
    parity_split_chi's T_2N(chi a): on that checkerboard matrix it would
    decouple into the right side's two recursions."""

    @pytest.mark.parametrize("make", [_fh_even_support, _even_support], ids=["fh", "coeffs"])
    def test_parity_split_chi_never_reaches_it(self, make, hp_engines):
        calls, kernels = hp_engines
        inp = make()
        # the other kinds first, so that every matrix they share with the
        # input carries its passes
        reports = verify_all(inp, N, "hp", BITS)
        assert (2 * N, "skew_levinson") in calls  # skew_square's T_2N(c)
        del calls[:], kernels[:]
        (lhs,), _ = identities._sides(IdentityKind.ParitySplitChi, inp, N, BITS, [])
        assert lhs.is_skew() and lhs._minors == {}
        assert verify(IdentityKind.ParitySplitChi, inp, N, "hp", BITS).passed
        assert [r for r in reports if r.kind == "parity_split_chi"][0].passed
        assert (2 * N, "pfaffian") in calls
        assert all(method != "skew_levinson" for _, method in calls)
        assert kernels == []

    @pytest.mark.parametrize(
        "kind", [IdentityKind.SkewSquare, IdentityKind.CSeqSquare, IdentityKind.MomentSkewSquare], ids=lambda k: k.value
    )
    def test_skew_square_sides_reach_it(self, kind, hp_engines):
        calls, kernels = hp_engines
        assert verify(kind, GUARD_INPUTS[kind](), N, "hp", BITS).passed
        assert (2 * N, "skew_levinson") in calls
        assert kernels == ["fixed"] * 2

    def test_pfaffian_link_det_reaches_it(self, hp_engines):
        calls, kernels = hp_engines
        assert pfaffian_link(_cos_twin(), N, bits=BITS).passed
        assert sorted(calls) == [(N, "elimination"), (2 * N, "skew_levinson")]
        assert kernels == ["fixed"] * 2


class TestReadOnlyRows:
    def test_rows_cannot_be_written(self):
        # the exact T_3 of {0: 2, +-1: 1/3}: det 68/9
        third = Fraction(1, 3)
        M = toeplitz({0: 2, 1: third, -1: third}, 3)
        with pytest.raises(TypeError):
            M.rows[0][0] = Fraction(99)
        with pytest.raises(TypeError):
            M.ints[0][0] = 99
        assert leading_minors(M, [3])[0].value == det_bareiss(M).value == Fraction(68, 9)
        H = toeplitz({0: 2, 1: third, -1: third}, 3, bits=BITS)
        with pytest.raises(TypeError):
            H.rows[0][0] = 99
        # tolist is the mutable copy
        rows = M.tolist()
        rows[0][0] = Fraction(99)
        assert M.rows[0][0] == 2
