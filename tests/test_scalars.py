import random
from fractions import Fraction

import mpmath as mp
import pytest

from sdet.matrices import hankel_moment, toeplitz
from sdet.scalars import Field, coerce, hp_complex, hp_real, infer_field, rational, to_mp
from sdet.symbols import (
    Chi,
    CoeffSeq,
    FHDescriptor,
    FHProduct,
    JumpT,
    MomentSymbol,
    SymbolProduct,
)
from sdet.transforms import ScalarSeq

BITS = 128
HALF = Fraction(1, 2)
SMOOTH = FHDescriptor({1: 0.15, -1: 0.15})

# (source, exact mode asked for, expected field)
FIELD_RULE = [
    (ScalarSeq({0: 1, 1: HALF}, "even"), True, rational()),
    (ScalarSeq({0: 1, 1: HALF}, "even"), False, hp_real(BITS)),
    (CoeffSeq({0: 1, 1: HALF}, "even"), True, rational()),
    (CoeffSeq({0: 1, 1: HALF}, "even"), False, hp_real(BITS)),
    (CoeffSeq({0: 1.0, 1: 0.25}), True, hp_real(BITS)),
    (CoeffSeq({0: 1, 1: 1j, -1: -1j}), False, hp_complex(BITS)),
    (JumpT(-HALF), False, hp_real(BITS)),
    (JumpT(complex(0.25, 0.1)), False, hp_complex(BITS)),
    (Chi(), False, hp_real(BITS)),
    (FHProduct(SMOOTH), False, hp_real(BITS)),
    (FHProduct(FHDescriptor({1: 0.15, -1: 0.15}, [(2.0, 0.25)])), False, hp_complex(BITS)),
    # coefficients come from the complex quadrature
    (SymbolProduct((JumpT(-HALF), FHProduct(SMOOTH))), False, hp_complex(BITS)),
    (MomentSymbol.from_poly({2: 2}, weight="sqrt_ratio"), False, hp_real(BITS)),
    (MomentSymbol.from_poly({0: 1, 1: 1j}), False, hp_complex(BITS)),
]


@pytest.mark.parametrize("source, exact, expected", FIELD_RULE)
def test_field_rule(source, exact, expected):
    assert infer_field(source, BITS, exact=exact) == expected


def test_matrices_follow_the_field_rule():
    assert toeplitz(JumpT(-HALF), 3, bits=BITS).field == hp_real(BITS)
    assert toeplitz(CoeffSeq({0: 1, 1: 1j, -1: -1j}), 3).field == hp_complex(256)
    assert toeplitz(ScalarSeq({0: 1, 1: HALF}, "even"), 3).field == rational()
    b = MomentSymbol.from_poly({0: 1, 1: 1j})
    assert hankel_moment(b, 2, bits=BITS).field == hp_complex(BITS)


@pytest.mark.parametrize(
    "tag, bits, message",
    [("rational", 64, "carries no precision"), ("hp_real", 32, "bits >= 64"), ("bogus", None, "unknown field tag")],
)
def test_field_validation(tag, bits, message):
    with pytest.raises(ValueError, match=message):
        Field(tag, bits)


def test_unreadable_source_is_rejected():
    with pytest.raises(TypeError):
        infer_field(object(), BITS)


def test_coerce_takes_a_complex_into_hp_real_only_when_it_is_real():
    v = coerce(2 + 0j, hp_real(64))
    assert type(v) is mp.mpf and v == 2
    with pytest.raises(TypeError, match="complex scalar cannot enter hp_real"):
        coerce(1j, hp_real(64))


def workprec_to_mp(x, bits):
    """to_mp as it was written under a precision context, the reference."""
    with mp.workprec(bits):
        if isinstance(x, Fraction):
            return mp.mpf(x.numerator) / mp.mpf(x.denominator)
        if isinstance(x, int):
            return mp.mpf(x)
        if isinstance(x, complex):
            return mp.mpc(x)
        if isinstance(x, (mp.mpf, mp.mpc)):
            return +x
        return mp.mpf(x)


def raw(v):
    return v._mpf_ if isinstance(v, mp.mpf) else v._mpc_


@pytest.mark.parametrize("bits", [64, 128, 512])
def test_to_mp_matches_the_workprec_form(bits):
    rng = random.Random(bits)
    wide = 2 * bits + 37
    values = [
        Fraction(rng.getrandbits(wide) - 2 ** (wide - 1), rng.getrandbits(wide) + 1) for _ in range(20)
    ]
    values += [Fraction(1, 3), Fraction(-(2**wide) - 1, 2**wide + 3)]
    values += [rng.getrandbits(wide) - 2 ** (wide - 1) for _ in range(10)]
    values += [2**wide + 1, -(2**wide) - 1, 0, 1, True, False]
    values += [1 / 3, -2.5e-300, 1e300, 0.0, complex(1 / 3, -1 / 7), complex(0.1, 0)]
    with mp.workprec(3 * bits):
        values += [mp.mpf(1) / 3, -mp.pi / 7, mp.mpc(1, 1) / 7, mp.mpc(mp.e, -mp.pi)]
    prec = mp.mp.prec
    for x in values:
        got = to_mp(x, bits)
        assert mp.mp.prec == prec
        want = workprec_to_mp(x, bits)
        assert type(got) is type(want)
        assert raw(got) == raw(want), x
