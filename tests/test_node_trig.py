"""The process-wide cache of node trig values (quadrature._cos_sin): every
table it serves is bit-identical to one built on direct mpmath calls, each
(node, precision) pair is computed once, the cache stays within its cap,
and threads that share it get the same bytes."""

import threading
from collections import OrderedDict

import mpmath as mp
import pytest

from sdet import quadrature, symbols
from sdet.symbols import (
    ClosedFormSymbol,
    CoeffSeq,
    FHDescriptor,
    FHProduct,
    MomentSymbol,
    moment_to_halfangle,
    moment_to_skew_symbol,
    multiply_by_chi,
)

BITS = 128
LIMIT = 6


def _odd_trig_poly():
    # a real odd profile with no jumps and a known band: sin on the trapezoid
    seq = CoeffSeq({1: 0.5, -1: -0.5, 3: 0.25, -3: -0.25}, symmetry="odd")
    return ClosedFormSymbol(seq.eval_at, symmetry="odd", profile=seq.real_profile(), band=3)


def _sqrt_ratio_exp():
    return MomentSymbol(
        lambda x: mp.exp((mp.mpf(3) / 5) * x * x - mp.mpf(3) / 10),
        weight="sqrt_ratio",
        parity="even",
    )


# name -> (fresh symbol, the transform its route runs)
CASES = {
    "cos": (lambda: FHProduct(FHDescriptor({1: 0.15, -1: 0.15})), "cos"),
    "sin": (_odd_trig_poly, "sin"),
    "u": (lambda: moment_to_skew_symbol(MomentSymbol.from_poly({2: 2}, weight="sqrt_ratio")), "u"),
    "cospower": (lambda: MomentSymbol.from_poly({2: 2}, weight="sqrt_ratio"), "cospower"),
    "cospower_cut": (lambda: MomentSymbol.from_poly({0: 1, 2: 1}), "cospower"),
    "cos_halfangle": (
        lambda: moment_to_halfangle(MomentSymbol.from_poly({0: 1, 2: 1}, jumps=(-0.5, 0.5))),
        "cos",
    ),
    "sin_chi": (lambda: multiply_by_chi(FHProduct(FHDescriptor({1: 0.15, -1: 0.15}))), "sin"),
    "skew_lambda": (lambda: moment_to_skew_symbol(_sqrt_ratio_exp()), "u"),
    "circle": (lambda: FHProduct(FHDescriptor({1: 0.2, -1: 0.1})), "circle"),
    "circle_cut": (lambda: FHProduct(FHDescriptor({1: 0.15, -1: 0.15}, [(1.0, 0.25)])), "circle"),
}


def _raw(table: dict) -> dict:
    return {n: getattr(v, "_mpc_", None) or v._mpf_ for n, v in table.items()}


def _table(sym):
    return _raw(symbols._table(sym, LIMIT, BITS))


def _direct(patch):
    """Send every node trig call straight to mpmath."""
    patch.setattr(quadrature, "_cos_sin", mp.cos_sin)
    patch.setattr(quadrature, "_expj", mp.expj)


def _force_panels(patch):
    """Route every table onto one Gauss-Legendre panel, whatever its band."""
    route = symbols._route

    def on_panels(sym, bits):
        kind, f, panels, band = route(sym, bits)
        if panels is None:
            with mp.workprec(bits + quadrature.GUARD):
                panels = [(mp.mpf(0), 2 * mp.pi if kind == "circle" else +mp.pi)]
        return kind, f, panels, 0

    patch.setattr(symbols, "_route", on_panels)


@pytest.mark.parametrize("engine", ["route", "panels"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_cached_tables_are_bit_identical_to_direct_mpmath(monkeypatch, name, engine):
    make, kind = CASES[name]
    assert symbols._route(make(), BITS)[0] == kind
    monkeypatch.setattr(quadrature, "_node_trig", OrderedDict())
    with pytest.MonkeyPatch.context() as patch:
        if engine == "panels":
            _force_panels(patch)
        cold = _table(make())
        warm = _table(make())  # a fresh equal symbol: served from the cache
        _direct(patch)
        direct = _table(make())
    assert cold == warm == direct


def test_expj_from_the_cached_pair_is_bit_identical():
    # the arguments the circle route meets: n * theta at trapezoid and panel
    # nodes (_expj_series) and -n_min * t (_rotation_kernel)
    for prec in (96, 160, 288, 544):
        with mp.workprec(prec):
            nodes = [2 * mp.pi * j / 32 for j in range(32)]
            gl, _ = quadrature.gauss_legendre_rule(48, prec)
            nodes += [mp.pi * (x + 1) / 3 + 1 for x in gl[::2]]
            for t in nodes:
                for n in range(-16, 17):
                    x = n * t
                    assert mp.expj(x)._mpc_ == mp.mpc(*mp.cos_sin(x))._mpc_
                    assert quadrature._expj(x)._mpc_ == mp.expj(x)._mpc_
                    got = tuple(v._mpf_ for v in quadrature._cos_sin(x))
                    assert got == (mp.cos(x)._mpf_, mp.sin(x)._mpf_)


def test_non_mpf_arguments_go_straight_to_mpmath():
    with mp.workprec(128):
        assert quadrature._cos_sin(0.5) == mp.cos_sin(0.5)
        z = mp.mpc(0.5, 0.25)
        assert quadrature._expj(z) == mp.expj(z)


def _count_mpmath_trig(patch):
    """Patch mpmath's cos, sin, cos_sin and expj to record (argument, precision)."""
    seen = []
    for name in ("cos", "sin", "cos_sin", "expj"):
        real = getattr(mp, name)

        def counted(x, *args, _real=real, **kwargs):
            seen.append((getattr(x, "_mpf_", x), mp.mp.prec))
            return _real(x, *args, **kwargs)

        patch.setattr(mp, name, counted)
    return seen


def test_one_mpmath_trig_call_per_distinct_node(monkeypatch, count_calls):
    monkeypatch.setattr(quadrature, "_node_trig", OrderedDict())
    with pytest.MonkeyPatch.context() as patch:
        _, evaluations = count_calls(patch, "cospower_transform")
        seen = _count_mpmath_trig(patch)
        _sqrt_ratio_exp().moment_table(LIMIT, BITS)
        assert evaluations[0] > 0
        assert 0 < len(seen) <= evaluations[0]
        assert len(set(seen)) == len(seen)
        seen.clear()
        _sqrt_ratio_exp().moment_table(LIMIT, BITS)
        assert seen == []


def test_cache_stays_within_its_cap(monkeypatch):
    monkeypatch.setattr(quadrature, "_node_trig", OrderedDict())
    # a first trapezoid level of 4,097 nodes on [0, pi], then 4,096 more
    raw = quadrature.trig_transform(lambda t: mp.mpf(1), None, 4, 512, "cos", band=2044)
    assert len(quadrature._node_trig) <= quadrature._NODE_TRIG_CAP
    with mp.workprec(512):
        assert abs(raw[0] - mp.pi) < mp.mpf(2) ** -480
        assert all(abs(v) < mp.mpf(2) ** -480 for v in raw[1:])


def test_threads_sharing_the_cache_get_identical_bytes(monkeypatch):
    monkeypatch.setattr(quadrature, "_node_trig", OrderedDict())
    makes = [CASES[name][0] for name in ("cos", "u", "cospower_cut", "circle")]
    start = threading.Barrier(2)
    out = [None, None]

    def build(i):
        start.wait()
        out[i] = [_table(make()) for make in makes]

    threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    with pytest.MonkeyPatch.context() as patch:
        _direct(patch)
        direct = [_table(make()) for make in makes]
    assert out[0] == out[1] == direct
