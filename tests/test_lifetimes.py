"""A symbol and what it derives are freed by refcount.

A source keeps its images, tables, matrices and passes; an image holds its
source's data and evaluators, never the source.  So no run leaves a cycle
for the cyclic collector, and an image built from a source that is dropped
at once still gives the tables of one built from a source that is kept.
"""

import gc
import weakref
from fractions import Fraction

import mpmath as mp
import pytest

from sdet import symbols
from sdet.asymptotics import study
from sdet.determinants import DetResult
from sdet.identities import IdentityKind, pfaffian_link, verify, verify_all
from sdet.matrices import StructuredMatrix
from sdet.symbols import (
    CoeffSeq,
    FHDescriptor,
    FHProduct,
    FourierSymbol,
    MomentSymbol,
    moment_to_skew_symbol,
    th_to_moment_symbol,
)

BITS = 128
N = 4
EXP_COS = FHDescriptor({1: 0.15, -1: 0.15})
EXP_COS2 = FHDescriptor({2: 0.1, -2: 0.1})


def _opaque_profile():
    return MomentSymbol(
        lambda x: mp.exp((mp.mpf(3) / 5) * x * x - mp.mpf(3) / 10), weight="sqrt_ratio", parity="even"
    )


PATHS = {
    "verify_all_exp_cos": lambda: verify_all(FHProduct(EXP_COS), N, "hp", BITS),
    # quarter_wave and the parity splits reach halve_argument
    "verify_all_exp_cos2": lambda: verify_all(FHProduct(EXP_COS2), N, "hp", BITS),
    "pfaffian_link": lambda: pfaffian_link(th_to_moment_symbol(FHProduct(EXP_COS)), N, bits=BITS),
    "moment_to_toeplitz": lambda: verify(IdentityKind.MomentToToeplitz, _opaque_profile(), N, "hp", BITS),
    # the half-angle pullback of an ArgDoubled image
    "cor54": lambda: study("cor54", EXP_COS, [4, 6, 8, 10], bits=BITS),
    "verify_all_exact": lambda: verify_all(
        CoeffSeq({0: 2, 2: Fraction(1, 3), 4: Fraction(-1, 4)}, "even"), N, "exact"
    ),
}


@pytest.mark.parametrize("run", list(PATHS.values()), ids=list(PATHS))
def test_no_run_leaves_a_cycle(run):
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        left = [o for o in gc.garbage if isinstance(o, (FourierSymbol, MomentSymbol, StructuredMatrix, DetResult))]
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
    assert left == []


def _raw(table):
    return {n: v._mpf_ for n, v in table.items()}


def _freed_with(make_source, derive):
    """derive(source) on a source that nothing else holds, and whether the
    source was freed by refcount alone once derive returned."""
    gc.disable()
    try:
        source = make_source()
        gone = weakref.ref(source)
        image = derive(source)
        del source
        return image, gone() is None
    finally:
        gc.enable()


class TestImagesOutliveTheirSource:
    def test_moment_twin(self):
        twin, freed = _freed_with(lambda: FHProduct(EXP_COS), th_to_moment_symbol)
        assert freed
        kept = FHProduct(EXP_COS)
        assert _raw(twin.moment_table(9, BITS)) == _raw(th_to_moment_symbol(kept).moment_table(9, BITS))

    def test_skew_symbol_keeps_the_u_route(self, monkeypatch):
        kinds = []
        route = symbols._route

        def recorded(sym, bits):
            got = route(sym, bits)
            kinds.append(got[0])
            return got

        monkeypatch.setattr(symbols, "_route", recorded)

        def make():
            return MomentSymbol.from_poly({0: 1, 2: Fraction(1, 3)}, weight="sqrt_ratio")

        skew, freed = _freed_with(make, moment_to_skew_symbol)
        assert freed
        table = skew.coeff_table(-9, 9, BITS)
        assert kinds == ["u"]
        assert _raw(table) == _raw(moment_to_skew_symbol(make()).coeff_table(-9, 9, BITS))
        assert kinds == ["u", "u"]

    def test_half_angle_lift(self):
        def make():
            return MomentSymbol.from_poly({0: 1, 2: Fraction(-1, 3)})

        lift, freed = _freed_with(make, symbols._halfangle)
        assert freed
        kept = make()
        assert _raw(lift.coeff_table(-7, 7, BITS)) == _raw(symbols._halfangle(kept).coeff_table(-7, 7, BITS))
