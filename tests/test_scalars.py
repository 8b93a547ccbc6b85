from fractions import Fraction

import pytest

from sdet.matrices import hankel_moment, toeplitz
from sdet.scalars import hp_complex, hp_real, infer_field, rational
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


def test_unreadable_source_is_rejected():
    with pytest.raises(TypeError):
        infer_field(object(), BITS)
