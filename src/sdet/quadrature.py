"""High-precision quadrature for Fourier coefficients and moments.

Two engines cover every symbol this package meets:

* composite Gauss-Legendre on panels delimited by jump points
  (_panel_quadrature), for integrands with cuts;
* the nested trapezoid rule (_trapezoid_quadrature) for panels None, over
  [0, 2pi) or, for an even integrand, [0, pi]: spectral on smooth periodic
  integrands, and each doubling reuses every node.  Nested grids alias alike
  at every level (a multiple of 2n looks constant on n nodes and on 2n), so
  the first grid must also resolve f's own frequency, passed as band.  An f
  of unknown band (band None) starts from the kernel's frequency, and the
  sums two levels agree on must also agree with one Gauss-Legendre level
  on one panel, whose error on an aliased frequency does not vanish; when
  they do not, the panel rule doubles on from that level.  Past the nodes
  the panel rule's first two levels would take the trapezoid goes on only
  while its levels converge spectrally, so a kink (algebraic convergence)
  or a raising f falls back to that rule, while a high-band exponential
  stays on the trapezoid.

Both double their node count until two consecutive estimates agree within
the target; the panel rule raises AccuracyError (carrying the achieved
estimate) when it cannot, and as soon as its levels stall: when, at a
margin over the gain of each one's last doubling, three levels in a row
show that the doublings left cannot reach the target (an integrand with a
log or root singularity gains a few bits per doubling).  The
Gauss-Legendre order scales with the working precision: pushing spectral
error below 2^-512 at oscillation ~100 with a fixed small order would need
thousands of subpanels, while order ~bits/3 converges after a single
doubling.

The rules are built on ints too (gauss_legendre_rule): Newton's method on
the three-term recurrence, from float seeds, runs on ints scaled by 2^W with
W = prec + 40 + 2 bitlen(order) + 16, which covers the recurrence's rounding
and the 2 log2(order) bits that 1 - x^2 costs P' at the outer roots.  Each
(order, precision) rule is built once per process and cached.

So is each node's trig pair: every cos and sin that sdet takes at a
quadrature node, in a kernel here or in an integrand in symbols, goes
through _cos_sin, which returns mp.cos_sin(t) at the ambient precision,
computed once per (t, precision) per process.  The integrand and the kernel
at one node then share one evaluation, and a table built again at the same
nodes makes none.  The cache holds only these pure functions of (t,
precision), never a symbol's values; past _NODE_TRIG_CAP entries the oldest
goes first.

Node values f(t) * weight are evaluated in mpf at wp = bits + GUARD and
turned once into ints scaled by 2^W (an infinite or nan value raises
AccuracyError, so the trapezoid hands such an f to the panels, whose nodes
are interior, and the panel rule passes it on); the kernels then run on
ints, and each level's sums become mpf once:

* cos nt, sin nt, U_{n-1}(cos t) = sin nt / sin t and e^{-int} by the
  recurrence y_{n+1} = 2 cos t y_n - y_{n-1} (trig_transform, circle_coeffs);
  U_{n-1} is the sine's recurrence started from 0 and 1 instead of 0 and
  sin t;
* the moment powers (2 cos t)^(n-1) by one product per index
  (cospower_transform).

W = wp + growth + log2(node count) keeps their error below 2^-wp: an error
made at index k reaches index n at most n - k times larger in the
recurrence (growth 2 log2(index count)) and 2^(n-k) times larger in the
powers (growth n_max).  U_{n-1} itself grows to n at t = 0 and pi, but an
error there grows no faster than in the sine's recurrence (it is an error
times U_{n-k}), so it takes the same growth.  The global mpmath context is
left untouched.
"""

import math
import threading
from collections import OrderedDict

import mpmath as mp
from mpmath.libmp import from_man_exp, to_fixed

GUARD = 32

# The convergence check demands agreement a little tighter than the
# accuracy promised to callers (2^-(bits-16) relative to the sup norm).
SLACK = 12

_MAX_SUBPANELS = 1 << 16

# The panel rule gives up once this many levels in a row show that, at
# STALL_MARGIN times the gain of their last doubling, the doublings left
# under _MAX_SUBPANELS cannot reach the target: algebraic convergence gains
# a steady few bits per doubling, while spectral convergence speeds up.
STALL_LEVELS = 3
STALL_MARGIN = 4

# the moment-backed hp identities at nmax 10 and 256 bits read ~300
# distinct (node, precision) pairs; an entry at 288 bits takes ~0.75 KB
_NODE_TRIG_CAP = 4096


class AccuracyError(Exception):
    """Quadrature failed to reach the requested accuracy.

    achieved is the best relative agreement estimate observed (an mpf), or
    None when no two levels were compared.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


_rules: dict = {}
_rules_lock = threading.Lock()


_node_trig: OrderedDict = OrderedDict()
_node_trig_lock = threading.Lock()


def _cos_sin(t):
    """mp.cos_sin(t) at the ambient precision, cached per (t, precision) for
    an mpf t; the oldest entry is dropped past _NODE_TRIG_CAP."""
    if not isinstance(t, mp.mpf):
        return mp.cos_sin(t)
    prec = mp.mp.prec
    key = (t._mpf_, prec)
    with _node_trig_lock:
        hit = _node_trig.get(key)
    if hit is not None:
        return hit
    pair = mp.cos_sin(t, prec=prec)  # the key's precision, even if another thread moves mp's
    with _node_trig_lock:
        if key not in _node_trig:
            if len(_node_trig) >= _NODE_TRIG_CAP:
                _node_trig.popitem(last=False)
            _node_trig[key] = pair
    return pair


def _expj(x):
    """mp.expj(x), from _cos_sin's pair for an mpf x (mpmath builds e^{ix}
    from the same cos_sin, so the bits agree)."""
    if isinstance(x, mp.mpf):
        return mp.mpc(*_cos_sin(x))
    return mp.expj(x)


def _legendre(x, order: int):
    """(P_order(x), P_order'(x)) by the three-term recurrence, in x's arithmetic."""
    p0, p1 = 1, x
    for k in range(2, order + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, order * (x * p1 - p0) / (x * x - 1)


def _float_root(k: int, order: int) -> float:
    """The k-th largest root of P_order to float accuracy.

    Tricomi's asymptotic form (1 - 1/(8n^2) + 1/(8n^3)) cos(pi (4k-1)/(4n+2))
    seeds Newton's method in float arithmetic.
    """
    n = order
    x = (1 - (1 - 1 / n) / (8 * n * n)) * math.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(10):
        p, dp = _legendre(x, order)
        step = p / dp
        x -= step
        if abs(step) < 1e-15:
            break
    return x


def _legendre_fixed(x: int, order: int, W: int):
    """(P_order(x), P_order'(x)) for x != +-1, all scaled by 2^W, by the
    three-term recurrence on ints."""
    one = 1 << W
    p0, p1 = one, x
    for k in range(2, order + 1):
        p0, p1 = p1, (((2 * k - 1) * x * p1 >> W) - (k - 1) * p0) // k
    return p1, (order * ((x * p1 >> W) - p0) << W) // ((x * x >> W) - one)


def gauss_legendre_rule(order: int, prec: int):
    """Nodes and weights on [-1, 1] at the given binary precision (cached).

    Newton's method refines each float root (_float_root) on ints scaled by
    2^W, W = prec + 40 + 2 bitlen(order) + 16, until a step falls below
    2^-(prec+20).  The weight 2 / ((1-x^2) P'(x)^2) is taken in mpf at
    prec + 40 bits from the last evaluation's P', moved to the final root
    to first order.  Only the positive half is computed: the rule is
    symmetric, so negative nodes mirror it.  Raises AccuracyError when a
    root does not converge within bitlen(W) steps, or when the half-rule's
    roots are not strictly decreasing inside (0, 1), which means a seed
    slid onto a neighbour's root.
    """
    key = (order, prec)
    with _rules_lock:
        hit = _rules.get(key)
    if hit is not None:
        return hit
    wp = prec + 40
    W = wp + 2 * order.bit_length() + 16
    eps = 1 << (W - prec - 20)
    roots, slopes = [], []  # the positive half, largest first
    for k in range(1, order // 2 + 1):
        num, den = _float_root(k, order).as_integer_ratio()
        x = (num << W) // den
        for _ in range(W.bit_length()):
            p, dp = _legendre_fixed(x, order, W)
            step = (p << W) // dp
            x -= step
            if abs(step) < eps:
                break
        else:
            raise AccuracyError("Gauss-Legendre root %d of %d did not converge" % (k, order))
        roots.append(x)
        # P' moved to the new x to first order: P'' = 2x P' / (1 - x^2) at a root
        slopes.append(dp - (2 * x * step >> W) * dp // ((1 << W) - (x * x >> W)))
    if not all(a > b for a, b in zip([1 << W] + roots, roots + [0])):
        raise AccuracyError(
            "Gauss-Legendre roots of order %d are not strictly decreasing in (0, 1)" % order
        )
    if order % 2:
        roots.append(0)
        slopes.append(_legendre_fixed(0, order, W)[1])
    with mp.workprec(wp):
        half = [mp.make_mpf(from_man_exp(x, -W, wp, "n")) for x in roots]
        half_w = []
        for x, dp in zip(half, slopes):
            dp = mp.make_mpf(from_man_exp(dp, -W, wp, "n"))
            half_w.append(2 / ((1 - x * x) * dp * dp))
        # negate at working precision; outside it -x would round to 53 bits
        nodes = [-x for x in half[: order // 2]] + half[::-1]
    weights = half_w[: order // 2] + half_w[::-1]
    with _rules_lock:
        _rules[key] = (nodes, weights)
    return nodes, weights


def _gl_order(bits: int) -> int:
    return max(48, bits // 3)


def _start_subpanels(oscillation: int, length: float, order: int, tol) -> int:
    # Composite GL error on a subpanel of width h behaves like
    # ((osc * h * e) / (4 * order))^(2 * order); solve for h at the target.
    osc = max(1, oscillation)
    root = float(mp.mpf(tol) ** (mp.mpf(1) / (2 * order)))
    target_nh = 4.0 * order * root / math.e
    if target_nh <= 0:
        return 1
    return max(1, int(math.ceil(osc * length / target_nh)))


def _sup(values) -> "mp.mpf":
    best = mp.mpf(0)
    for v in values:
        a = abs(v)
        if a > best:
            best = a
    return best


def _agreement(new, old):
    diff = _sup(n - o for n, o in zip(new, old))
    scale = max(_sup(new), mp.mpf(1))
    return diff / scale


def _fixed(x, W: int, t=None) -> int:
    """floor(x * 2^W) for a finite mpf x, the value of an integrand at the
    node t.  AccuracyError for +-inf or nan, which to_fixed reads as 0."""
    _, man, exp, _ = x._mpf_
    if not man and exp:
        at = "" if t is None else " at node t = %s" % mp.nstr(t, 15)
        raise AccuracyError("integrand value %s%s" % (x, at))
    return to_fixed(x._mpf_, W)


def _parts(t, fv, W: int, size: int):
    """(offset, fixed-point value) of fv's real part, and of an mpc's
    imaginary part, for the node value fv at t."""
    if isinstance(fv, mp.mpc):
        return ((0, _fixed(fv.real, W, t)), (size, _fixed(fv.imag, W, t)))
    return ((0, _fixed(fv, W, t)),)


def _level_sums(acc, scale: int, cplx: bool):
    """acc / 2^scale at ambient precision: the first half as mpf, or both
    halves as the real and imaginary parts of mpc when cplx."""
    vals = [mp.make_mpf(from_man_exp(x, -scale, mp.mp.prec, "n")) for x in acc]
    half = len(vals) // 2
    return [mp.mpc(re, im) for re, im in zip(vals, vals[half:])] if cplx else vals[:half]


def _recur(acc, start: int, count: int, y0: int, y1: int, tc: int, W: int):
    """acc[start + k] += y_k for k < count, y_{k+1} = tc y_k / 2^W - y_{k-1}:
    with tc = 2 cos t * 2^W, the recurrence of cos kt, sin kt and e^{-ikt}."""
    for i in range(start, start + count):
        acc[i] += y0
        y0, y1 = y1, ((tc * y1) >> W) - y0


def _stalls(older, newer, left: int, bits: int) -> bool:
    """Whether agreements that went from older to newer in one doubling
    cannot reach 2^-(bits-SLACK) in the left doublings, even at STALL_MARGIN
    times that doubling's gain in bits."""
    gain = max(0.0, _log2(older) - _log2(newer))
    return _log2(newer) - STALL_MARGIN * gain * left > -(bits - SLACK)


def _log2(x) -> float:
    """log2 of a positive mpf, in floats from its mantissa and exponent."""
    _, man, exp, _ = x._mpf_
    return math.log2(man) + exp if man else -math.inf


def _first_agreement(levels, bits: int, what: str, reference=None, count=None):
    """The first of the levels' sums that agrees with the one before it to
    2^-(bits-SLACK), or reference once a level agrees with it to that;
    AccuracyError when the levels run out.

    With count, the number of levels there are, AccuracyError comes as soon
    as STALL_LEVELS levels in a row stall (_stalls): at the gain of the
    doubling that led to each, the levels left cannot reach the target.
    """
    tol = mp.mpf(2) ** (-(bits - SLACK))
    prev = last = best = None
    stalled = 0
    for i, tot in enumerate(levels, 1):
        if reference is not None and _agreement(tot, reference) <= tol:
            return reference
        if prev is not None:
            agree = _agreement(tot, prev)
            if agree <= tol:
                return tot
            best = agree if best is None else min(best, agree)
            if count is not None and last is not None:
                stalled = stalled + 1 if _stalls(last, agree, count - i, bits) else 0
                if stalled == STALL_LEVELS:
                    raise AccuracyError(
                        "%s stalled at %d bits: %d subpanel doublings left cannot reach the target"
                        % (what, bits, count - i),
                        achieved=best,
                    )
            last = agree
        prev = tot
    raise AccuracyError("%s did not converge at %d bits" % (what, bits), achieved=best)


def _panel_quadrature(
    f, panels, size, oscillation, growth, bits, kernel, what, cplx=False, reference=None
):
    """Composite Gauss-Legendre sums over panels, doubling subpanels until
    two levels agree.

    With reference (the trapezoid's sums on one panel) the levels start from
    one subpanel and also stop, returning reference, at the first level that
    agrees with it.

    kernel(t, fv, acc, W) adds the node value fv = f(t) * weight, times each
    kernel function at t, into acc: 2 * size ints scaled by 2^W, real parts
    then imaginary parts.  The sums are mpc when cplx is set or some fv is an
    mpc; raises AccuracyError when the subpanel count runs out.
    """
    order = _gl_order(bits)
    wp = bits + GUARD
    with mp.workprec(wp):
        nodes, weights = gauss_legendre_rule(order, wp)
        start = 1
        if reference is None:
            longest = max(float(hi - lo) for lo, hi in panels)
            start = _start_subpanels(oscillation, longest, order, mp.mpf(2) ** (-(bits + SLACK)))

        def levels(m=start, cplx=cplx):
            while m <= _MAX_SUBPANELS:
                W = wp + growth + (len(panels) * m * order).bit_length()
                acc = [0] * (2 * size)
                for lo, hi in panels:
                    h = (hi - lo) / m
                    half = h / 2
                    scaled = [w * half for w in weights]
                    offsets = [half * (x + 1) for x in nodes]
                    for s in range(m):
                        base = lo + s * h
                        for off, w in zip(offsets, scaled):
                            t = base + off
                            fv = f(t) * w
                            cplx = cplx or isinstance(fv, mp.mpc)
                            kernel(t, fv, acc, W)
                yield _level_sums(acc, W, cplx)
                m *= 2

        return _first_agreement(levels(), bits, what, reference, (_MAX_SUBPANELS // start).bit_length())


def _spectral(sums) -> bool:
    """Whether three consecutive levels' sums converge spectrally: the second
    agreement has at least 1.5 times the bits of the first.  A kink gains a
    fixed number of bits per doubling, a smooth periodic integrand doubles
    them, or more."""
    if len(sums) < 3:
        return False
    older, newer = _agreement(sums[1], sums[0]), _agreement(sums[2], sums[1])
    return newer < older < 1 and mp.log(newer) <= mp.mpf(1.5) * mp.log(older)


def _trapezoid_quadrature(
    f, full, size, oscillation, growth, bits, kernel, what, cplx=False, checked=False
):
    """_panel_quadrature's sums by the trapezoid rule over [0, 2pi) when full,
    else over [0, pi] with the endpoint nodes at weight 1/2.

    A level of n nodes per 2pi (at first the least power of two >= 16 and
    >= 2 (oscillation + 1)) adds only its new odd nodes to the sums of the
    level before.  Past the nodes the panel rule's first two levels would
    take, a level is added only while the levels converge spectrally (on a
    smooth periodic integrand the panel rule needs more nodes than the
    trapezoid for the same resolution), up to the panel rule's own cap.
    Otherwise, or when f raises, _panel_quadrature redoes the sums on one
    panel.  When checked (f of unknown band, which nested grids may alias),
    the sums two levels agree on are returned only once the panel rule's
    level of one subpanel agrees with them too; otherwise that rule doubles
    on from there, to a level that agrees with them or with its own last.
    """
    order = _gl_order(bits)
    wp = bits + GUARD
    # a level's sums are a mean over its nodes: W needs no bits for their count
    W = wp + growth
    with mp.workprec(wp):
        twopi = 2 * mp.pi
        end = twopi if full else +mp.pi
        panels = [(mp.mpf(0), end)]
        tol = mp.mpf(2) ** (-(bits + SLACK))
        budget = 3 * order * _start_subpanels(oscillation, float(end), order, tol)
        n = max(16, 1 << (2 * oscillation + 1).bit_length())

        def levels(n=n, step=1, cplx=cplx):
            acc = [0] * (2 * size)
            last = []  # the sums of the last three levels
            # nodes t = 2 pi j / n for j < top; after the first level, only odd j
            while (top := n if full else n // 2 + 1) <= order * _MAX_SUBPANELS:
                if top > budget and not _spectral(last):
                    return
                for j in range(step - 1, top, step):
                    t = twopi * j / n
                    fv = f(t) / (2 if not full and 2 * j % n == 0 else 1)
                    cplx = cplx or isinstance(fv, mp.mpc)
                    kernel(t, fv, acc, W)
                sums = [twopi * v for v in _level_sums(acc, W + n.bit_length() - 1, cplx)]
                last = last[-2:] + [sums]
                yield sums
                n, step = 2 * n, 2

        try:
            sums = _first_agreement(levels(), bits, what)
        except (AccuracyError, ArithmeticError, ValueError):
            sums = None
        if sums is None or checked:
            return _panel_quadrature(
                f, panels, size, oscillation, growth, bits, kernel, what, cplx, sums
            )
        return sums


def _quadrature(f, panels, full, size, oscillation, band, growth, bits, kernel, what, cplx=False):
    """_panel_quadrature on the panels; when they are None, _trapezoid_quadrature
    over [0, 2pi) if full, else over [0, pi].  oscillation is the kernel's,
    band f's own: None when unknown, and then the trapezoid's sums are checked."""
    osc = oscillation + (band or 0)
    if panels is None:
        checked = band is None
        return _trapezoid_quadrature(f, full, size, osc, growth, bits, kernel, what, cplx, checked)
    return _panel_quadrature(f, panels, size, osc, growth, bits, kernel, what, cplx)


def trig_transform(f, panels, n_max: int, bits: int, kind: str, band: int | None = 0):
    """integral over the panels of f(t) * cos(n t) (or sin, or U_{n-1}(cos t))
    for n = 0..n_max.

    Returns the raw integrals as a list indexed by n; callers apply their
    own normalization.  kind is "cos", "sin" or "u", the Chebyshev kernel
    U_{n-1}(cos t) = sin(n t) / sin t (0 at n = 0).  f is evaluated at
    interior nodes only, so panel endpoints may be singular or jump points.
    panels None means [0, pi] for an f(t) times the kernel that is smooth,
    even and 2pi-periodic, also evaluated at 0 and pi; band is then f's own
    frequency (the degree of the trigonometric polynomial that f is, or is
    the exponential of), or None when unknown, which costs one Gauss-Legendre
    level to check the trapezoid's sums.
    """
    if kind not in ("cos", "sin", "u"):
        raise ValueError("kind must be cos, sin or u")

    def kernel(t, fv, acc, W):
        ct, st = _cos_sin(t)
        c = _fixed(ct, W)
        # the value at n = 1: cos t, sin t, or U_0 = 1; sin and U start from 0
        first = c if kind == "cos" else _fixed(st, W) if kind == "sin" else 1 << W
        for start, v in _parts(t, fv, W, n_max + 1):
            _recur(acc, start, n_max + 1, v if kind == "cos" else 0, (v * first) >> W, 2 * c, W)

    growth = 2 * (n_max + 1).bit_length()
    what = "trig transform"
    return _quadrature(f, panels, False, n_max + 1, n_max, band, growth, bits, kernel, what)


def cospower_transform(f, panels, n_max: int, bits: int, band: int | None = 0):
    """integral of f(t) * (2 cos t)^(n-1) for n = 1..n_max (raw, unnormalized).

    Returns a list indexed 1..n_max (slot 0 is None).  panels None and band
    mean what they do for trig_transform.
    """

    def kernel(t, fv, acc, W):
        tc = _fixed(2 * _cos_sin(t)[0], W)
        for start, p in _parts(t, fv, W, n_max + 1):
            for i in range(start + 1, start + n_max + 1):
                acc[i] += p
                p = (tc * p) >> W

    what = "moment transform"
    tot = _quadrature(f, panels, False, n_max + 1, n_max, band, n_max, bits, kernel, what)
    tot[0] = None
    return tot


def _rotation_kernel(n_min: int, count: int):
    """Kernel adding fv * e^{-int} for n = n_min .. n_min + count - 1."""

    def kernel(t, fv, acc, W):
        ct, st = _cos_sin(t)
        z0 = mp.mpc(fv) * _expj(-n_min * t)
        z1 = z0 * mp.mpc(ct, -st)
        tc = 2 * _fixed(ct, W)
        _recur(acc, 0, count, _fixed(z0.real, W, t), _fixed(z1.real, W, t), tc, W)
        _recur(acc, count, count, _fixed(z0.imag, W, t), _fixed(z1.imag, W, t), tc, W)

    return kernel


def circle_coeffs(f, panels, n_min: int, n_max: int, bits: int, band: int | None = 0) -> dict:
    """Fourier coefficients (1/2pi) integral f(t) e^{-int} dt on given panels.

    The generic complex path; panels must cover (0, 2pi) split at every jump
    of f.  panels None means the trapezoid over [0, 2pi) for a smooth f, with
    band as for trig_transform.  Returns {n: mpc} for n_min <= n <= n_max.
    """
    count = n_max - n_min + 1
    osc = max(abs(n_min), abs(n_max))
    tot = _quadrature(
        f, panels, True, count, osc, band, 2 * count.bit_length(), bits,
        _rotation_kernel(n_min, count), "coefficient quadrature", cplx=True,
    )
    with mp.workprec(bits + GUARD):
        twopi = 2 * mp.pi
        return {n_min + i: tot[i] / twopi for i in range(count)}


def circle_coeffs_periodic(f, n_min: int, n_max: int, bits: int, band: int | None = 0) -> dict:
    """circle_coeffs of a jump-free smooth symbol, by the trapezoid rule on
    the full circle."""
    return circle_coeffs(f, None, n_min, n_max, bits, band)
