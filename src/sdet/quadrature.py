"""High-precision quadrature for Fourier coefficients and moments.

Two engines cover every symbol this package meets:

* composite Gauss-Legendre on panels delimited by jump points, used for
  piecewise-smooth integrands (jump symbols, weights, products);
* the periodic trapezoid rule for jump-free smooth symbols, where it
  converges spectrally.

Both double their node count until two consecutive estimates agree within
the target, and raise AccuracyError (carrying the achieved estimate) when
they cannot.  The Gauss-Legendre order scales with the working precision:
pushing spectral error below 2^-512 at oscillation ~100 with a fixed small
order would need thousands of subpanels, while order ~bits/3 converges
after a single doubling.

All routines run at bits + GUARD internal precision and leave the global
mpmath context untouched.
"""

import math
import threading

import mpmath as mp

GUARD = 32

# The convergence check demands agreement a little tighter than the
# accuracy promised to callers (2^-(bits-16) relative to the sup norm).
SLACK = 12

_MAX_SUBPANELS = 1 << 16


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


def gauss_legendre_rule(order: int, prec: int):
    """Nodes and weights on [-1, 1] at the given binary precision (cached).

    Float roots are refined by Newton iteration on the three-term recurrence
    at doubling precision up to prec + 40 bits; weights use
    w = 2 / ((1-x^2) P'(x)^2).  Only the positive half is computed: the rule
    is symmetric, so negative nodes mirror it.
    """
    key = (order, prec)
    with _rules_lock:
        hit = _rules.get(key)
    if hit is not None:
        return hit
    wp = prec + 40
    with mp.workprec(wp):
        eps = mp.mpf(2) ** (-(prec + 20))
        roots = []  # the nonnegative half, largest first
        for k in range(1, order // 2 + 1):
            x = _float_root(k, order)
            stage = 53
            while 2 * stage < wp:
                stage *= 2
                with mp.workprec(stage):
                    x = mp.mpf(x)
                    p, dp = _legendre(x, order)
                    x = x - p / dp
            x = mp.mpf(x)
            for _ in range(80):
                p, dp = _legendre(x, order)
                step = p / dp
                x -= step
                if abs(step) < eps:
                    break
            roots.append(x)
        if order % 2:
            roots.append(mp.mpf(0))
        half_w = []
        for x in roots:
            _, dp = _legendre(x, order)
            half_w.append(2 / ((1 - x * x) * dp * dp))
        # negate at working precision; outside it -x would round to 53 bits
        nodes = [-x for x in roots[: order // 2]] + roots[::-1]
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


def _panel_quadrature(f, panels, size: int, oscillation: int, bits: int, kernel, what: str):
    """Composite Gauss-Legendre sums over panels, doubling subpanels until
    two levels agree.

    kernel(t, fv, tot) adds the node value fv = f(t) * weight, times each
    kernel function at t, into the list tot of the given size.  Returns tot
    at the first level that agrees with the previous one to 2^-(bits-SLACK);
    raises AccuracyError when the subpanel count runs out.
    """
    order = _gl_order(bits)
    with mp.workprec(bits + GUARD):
        nodes, weights = gauss_legendre_rule(order, bits + GUARD)
        tol = mp.mpf(2) ** (-(bits - SLACK))
        longest = max(float(hi - lo) for lo, hi in panels)
        m = _start_subpanels(oscillation, longest, order, mp.mpf(2) ** (-(bits + SLACK)))
        prev = None
        best = None
        while m <= _MAX_SUBPANELS:
            tot = [mp.mpf(0)] * size
            for lo, hi in panels:
                h = (hi - lo) / m
                half = h / 2
                for s in range(m):
                    base = lo + s * h
                    for x, w in zip(nodes, weights):
                        t = base + half * (x + 1)
                        kernel(t, f(t) * (w * half), tot)
            if prev is not None:
                best = _agreement(tot, prev)
                if best <= tol:
                    return tot
            prev = tot
            m *= 2
    raise AccuracyError("%s did not converge at %d bits" % (what, bits), achieved=best)


def trig_transform(f, panels, n_max: int, bits: int, kind: str):
    """integral over the panels of f(t) * cos(n t) (or sin) for n = 0..n_max.

    Returns the raw integrals as a list indexed by n; callers apply their
    own normalization.  kind is "cos" or "sin".  f is evaluated at interior
    nodes only, so panel endpoints may be singular or jump points.
    """
    if kind not in ("cos", "sin"):
        raise ValueError("kind must be cos or sin")
    sine = kind == "sin"

    def kernel(t, fv, tot):
        ct, st = mp.cos_sin(t)
        c, sn = mp.mpf(1), mp.mpf(0)
        for n in range(n_max + 1):
            tot[n] += fv * (sn if sine else c)
            c, sn = c * ct - sn * st, sn * ct + c * st

    return _panel_quadrature(f, panels, n_max + 1, n_max, bits, kernel, "trig transform")


def cospower_transform(f, panels, n_max: int, bits: int):
    """integral of f(t) * (2 cos t)^(n-1) for n = 1..n_max (raw, unnormalized).

    Returns a list indexed 1..n_max (slot 0 is None).
    """

    def kernel(t, fv, tot):
        two_c = 2 * mp.cos(t)
        p = fv
        for n in range(1, n_max + 1):
            tot[n] += p
            p = p * two_c

    tot = _panel_quadrature(f, panels, n_max + 1, n_max, bits, kernel, "moment transform")
    tot[0] = None
    return tot


def _rotation_kernel(n_min: int, count: int):
    """Kernel adding fv * e^{-int} for n = n_min .. n_min + count - 1."""

    def kernel(t, fv, tot):
        ct, st = mp.cos_sin(t)
        rot = mp.mpc(ct, -st)
        cur = mp.expj(-n_min * t)
        for i in range(count):
            tot[i] += fv * cur
            cur = cur * rot

    return kernel


def circle_coeffs(f, panels, n_min: int, n_max: int, bits: int) -> dict:
    """Fourier coefficients (1/2pi) integral f(t) e^{-int} dt on given panels.

    The generic complex path; panels must cover (0, 2pi) split at every jump
    of f.  Returns {n: mpc} for n_min <= n <= n_max.
    """
    count = n_max - n_min + 1
    osc = max(abs(n_min), abs(n_max))
    tot = _panel_quadrature(
        f, panels, count, osc, bits, _rotation_kernel(n_min, count), "coefficient quadrature"
    )
    with mp.workprec(bits + GUARD):
        twopi = 2 * mp.pi
        return {n_min + i: tot[i] / twopi for i in range(count)}


def circle_coeffs_periodic(f, n_min: int, n_max: int, bits: int) -> dict:
    """Fourier coefficients of a jump-free smooth symbol via the trapezoid rule.

    Spectral for periodic analytic integrands; node values are cached across
    doublings.
    """
    count = n_max - n_min + 1
    osc = max(abs(n_min), abs(n_max))
    with mp.workprec(bits + GUARD):
        tol = mp.mpf(2) ** (-(bits - SLACK))
        twopi = 2 * mp.pi
        size = 64
        while size < 4 * osc + 64:
            size *= 2
        values = {}  # j/size as Fraction-free key: (j, size) reduced
        kernel = _rotation_kernel(n_min, count)

        def node_value(j, m):
            g = math.gcd(j, m)
            key = (j // g, m // g)
            v = values.get(key)
            if v is None:
                v = f(twopi * j / m)
                values[key] = v
            return v

        prev = None
        best = None
        while size <= (1 << 18):
            tot = [mp.mpc(0)] * count
            for j in range(size):
                kernel(twopi * j / size, node_value(j, size), tot)
            tot = [v / size for v in tot]
            if prev is not None:
                best = _agreement(tot, prev)
                if best <= tol:
                    return {n_min + i: tot[i] for i in range(count)}
            prev = tot
            size *= 2
    raise AccuracyError(
        "periodic quadrature did not converge at %d bits" % bits, achieved=best
    )
