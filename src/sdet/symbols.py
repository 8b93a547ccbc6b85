"""Symbols on the unit circle and on [-1, 1], with coefficients and moments.

A FourierSymbol knows how to evaluate itself off its jump set and how to
produce Fourier coefficients a_n = (1/2pi) integral a(e^{it}) e^{-int} dt,
using closed forms where they exist and jump-aware quadrature otherwise.
A MomentSymbol is a smooth factor times an algebraic weight on [-1, 1] and
produces the moments b_n = (1/pi) integral b(x) (2x)^{n-1} dx.

Every moment integral is done in theta after the substitution x = cos(theta):
the sqrt((1+x)/(1-x)) weight then turns into (1 + cos(theta)) / sin(theta),
whose product with the sin(theta) Jacobian (or with the sin(n theta) kernel)
is analytic on the closed panel, so the endpoint singularity never reaches
the quadrature engine.

Both pullbacks from the circle to [-1, 1] through x = cos(theta), the
moment twin of an even symbol and the half-angle pullback of the growth
studies, go through one helper, _pullback.  Both maps back from [-1, 1] to
the circle, the skew symbol i sign(theta) b(cos theta) and the half-angle
symbol b(cos(theta/2)), go through one helper, _lift.  Every jump angle is a
JumpPoint, exact in its pi and acos parts.

Real-valued even symbols and i * (real odd) symbols get dedicated cosine and
sine transforms over (0, pi) in real arithmetic; this is what keeps the large
asymptotic studies fast.  Values are immutable after construction and all
operations are pure, so symbols are safe to share between threads.
"""

import math
import threading
from fractions import Fraction

import mpmath as mp

from . import quadrature
from .scalars import format_scalar, is_exact_scalar, is_real_scalar, to_mp
from .transforms import _complete_symmetric

_CERT_BITS = 96
_CERT_TOL = 1e-12
_CERT_SAMPLES = 64


class JumpError(ValueError):
    """Evaluation was requested exactly at a jump point."""


class SpeciesError(TypeError):
    """Input symbol does not satisfy a required symmetry or parity."""


class JumpPoint:
    """A point coeff*pi + arc*acos(x) + offset on the circle, kept exact in
    the pi and acos parts.

    Jump locations that are rational multiples of pi (the chi jumps at 0 and
    pi, the t_beta jump at 0) and the angles acos(x) of jumps at x in [-1, 1]
    must be reproduced at full working precision when quadrature panels are
    built; a float angle would leave a mis-signed sliver of width ~1e-16
    inside a panel and stall the doubling check.
    """

    __slots__ = ("coeff", "offset", "arc", "x")

    def __init__(self, coeff=0, offset=0.0, arc=0, x=0.0):
        self.coeff = Fraction(coeff)
        self.offset = float(offset)
        self.arc = Fraction(arc)
        self.x = float(x)
        # normalize into [0, 2*pi)
        approx = self.approx()
        while approx < 0:
            self.coeff += 2
            approx += 2 * math.pi
        while approx >= 2 * math.pi - 1e-15:
            self.coeff -= 2
            approx -= 2 * math.pi

    @classmethod
    def arccos(cls, x) -> "JumpPoint":
        """The angle acos(x) in [0, pi] of a jump at x on [-1, 1]."""
        return cls(arc=1, x=x)

    def approx(self) -> float:
        """The angle as a float; panels and factors read to_mpf."""
        return float(self.coeff) * math.pi + float(self.arc) * math.acos(self.x) + self.offset

    def to_mpf(self):
        v = mp.pi * self.coeff.numerator / self.coeff.denominator
        if self.arc:
            v = v + mp.acos(mp.mpf(self.x)) * self.arc.numerator / self.arc.denominator
        if self.offset:
            v = v + mp.mpf(self.offset)
        return v

    def scaled(self, factor: Fraction, extra_pi=0) -> "JumpPoint":
        f = Fraction(factor)
        return JumpPoint(self.coeff * f + extra_pi, float(self.offset * f), self.arc * f, self.x)

    def __repr__(self):
        return "JumpPoint(%s*pi + %s*acos(%r) + %r)" % (self.coeff, self.arc, self.x, self.offset)


def _dedup_jumps(points):
    out = []
    for p in sorted(points, key=lambda q: q.approx()):
        if out and abs(out[-1].approx() - p.approx()) < 1e-14:
            continue
        out.append(p)
    return tuple(out)


def _panels(cuts, end, wp):
    """Panels covering (0, end), split at the cut points.

    Cuts must be computed under the caller's workprec(wp); panels no wider
    than 2^(-wp/2) (repeated cuts) are dropped.
    """
    cuts = sorted([mp.mpf(0), *cuts, end])
    tiny = mp.mpf(2) ** (-wp // 2)
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi - lo > tiny]


def _cached_table(owner, bits: int, limit: int, compute) -> dict:
    """owner's table at bits covering limit, from compute(limit, bits).

    One grow-only table per bits, in owner._cache under owner._lock.
    """
    with owner._lock:
        got = owner._cache.get(bits)
        if got is not None and got[0] >= limit:
            return got[1]
    table = compute(limit, bits)
    with owner._lock:
        held = owner._cache.get(bits)
        if held is None or held[0] < limit:
            owner._cache[bits] = (limit, table)
    return table


def _mp_values(cache: dict, entries: dict) -> dict:
    """entries as mp values at ambient precision, converted once per precision."""
    prec = mp.mp.prec
    if prec not in cache:
        cache[prec] = {n: to_mp(v, prec) for n, v in entries.items()}
    return cache[prec]


def _expj_series(values: dict, theta):
    """sum_n v_n e^{i n theta}."""
    tot = mp.mpc(0)
    for n, v in values.items():
        tot += v * mp.expj(n * theta)
    return tot


def _trig_series(values: dict, theta, trig):
    """v_0 + sum_{n>0} 2 v_n cos(n theta) for trig = mp.cos, or
    sum_{n>0} 2 v_n sin(n theta) for mp.sin: the real profile of an even
    sequence, or of an odd one divided by i."""
    tot = values.get(0, mp.mpf(0)) if trig is mp.cos else mp.mpf(0)
    for n, v in values.items():
        if n > 0:
            tot += 2 * v * trig(n * theta)
    return tot


def _reduce_mod_2pi(theta):
    twopi = 2 * mp.pi
    r = theta - twopi * mp.floor(theta / twopi)
    if r < 0:
        r += twopi
    elif r >= twopi:
        r -= twopi
    return r


class FourierSymbol:
    """Base class; concrete variants override evaluation and coefficients."""

    #: "even" when a(1/t) = a(t) is guaranteed, "odd" for a(1/t) = -a(t).
    symmetry: str | None = None

    def __init__(self):
        self._cache: dict = {}
        self._lock = threading.Lock()

    def jump_points(self) -> tuple:
        return ()

    def eval_at(self, theta):
        """Value at e^{i theta} at the ambient mpmath precision."""
        raise NotImplementedError

    def closed_coeff(self, n: int, bits: int | None = None):
        """Closed-form coefficient, or None when quadrature is required."""
        return None

    def real_profile(self):
        """("even", f) for real even symbols, ("odd_i", g) when the symbol
        is i*g with g real odd, else None.  Evaluators are valid on (0, 2pi)
        off the jump set at ambient precision."""
        return None

    def even_support(self) -> bool:
        """Whether a(-t) = a(t), i.e. all odd-index coefficients vanish."""
        bad = {p.approx() % math.pi for p in self.jump_points()}
        return _sampled_symmetry(
            self,
            0.37,
            lambda t: t + mp.pi,
            lambda t: any(abs(t - b) < 1e-6 or abs(t - b - math.pi) < 1e-6 for b in bad),
        )

    @property
    def real(self) -> bool:
        """Whether every coefficient comes out as a real number.

        A real profile runs the real cosine/sine transforms.  The complex
        quadrature leaves rounding-level imaginary parts, so symbols that
        need it count as complex even when their coefficients are real.
        """
        return self.real_profile() is not None

    # -- coefficient machinery ------------------------------------------

    def coeff(self, n: int, bits: int = 128):
        c = self.closed_coeff(n, bits)
        if c is not None:
            return c
        return self.coeff_table(n, n, bits)[n]

    def coeff_table(self, n_lo: int, n_hi: int, bits: int) -> dict:
        """Coefficients for every n in [n_lo, n_hi]; batched and cached."""
        if n_lo > n_hi:
            raise ValueError("empty coefficient range")
        probe = self.closed_coeff(0, bits)
        if probe is not None:
            return {n: self.closed_coeff(n, bits) for n in range(n_lo, n_hi + 1)}
        limit = max(abs(n_lo), abs(n_hi))
        table = _cached_table(self, bits, limit, self._compute_coeffs)
        return {n: table[n] for n in range(n_lo, n_hi + 1)}

    def _compute_coeffs(self, limit: int, bits: int) -> dict:
        wp = bits + quadrature.GUARD
        profile = self.real_profile()
        jumps = self.jump_points()
        if profile is None and not jumps:
            return quadrature.circle_coeffs_periodic(self.eval_at, -limit, limit, bits)
        with mp.workprec(wp):
            if profile is None:
                cuts = [p.to_mpf() for p in jumps if 1e-15 < p.approx() < 2 * math.pi - 1e-15]
                panels = _panels(cuts, 2 * mp.pi, wp)
                return quadrature.circle_coeffs(self.eval_at, panels, -limit, limit, bits)
            # a real profile is even or odd about pi: fold jumps into (0, pi)
            cuts = []
            for p in jumps:
                a, v = p.approx(), p.to_mpf()
                if 1e-15 < a < math.pi - 1e-15:
                    cuts.append(v)
                elif math.pi + 1e-15 < a < 2 * math.pi - 1e-15:
                    cuts.append(2 * mp.pi - v)
            kind, fn = profile
            even = kind == "even"
            raw = quadrature.trig_transform(
                fn, _panels(cuts, mp.pi, wp), limit, bits, "cos" if even else "sin"
            )
            vals = [v / mp.pi for v in raw]
            table = {0: vals[0]}
            for n in range(1, limit + 1):
                table[n] = vals[n]
                table[-n] = vals[n] if even else -vals[n]
            return table

    def to_json(self) -> dict:
        raise NotImplementedError(
            "%s has no JSON form" % (type(self).__name__,)
        )


def _sampled_symmetry(a: FourierSymbol, start: float, partner, near_jump) -> bool:
    """Check a(e^{it}) = a(e^{i partner(t)}) by sampling t in (0, pi).

    t walks from start in golden-ratio steps; points where near_jump(t) holds
    are skipped, as are samples that hit a jump.
    """
    with mp.workprec(_CERT_BITS):
        scale = mp.mpf(0)
        worst = mp.mpf(0)
        k = 0
        t = start
        while k < _CERT_SAMPLES:
            t = (t + math.pi * (math.sqrt(5) - 1)) % math.pi
            if near_jump(t):
                continue
            k += 1
            try:
                v1 = a.eval_at(mp.mpf(t))
                v2 = a.eval_at(partner(mp.mpf(t)))
            except JumpError:
                continue
            worst = max(worst, abs(v1 - v2))
            scale = max(scale, abs(v1), abs(v2))
        return worst <= _CERT_TOL * max(scale, mp.mpf(1))


def certify_even(a: FourierSymbol) -> bool:
    if a.symmetry == "even":
        return True
    if a.symmetry == "odd":
        return False
    bad = {p.approx() for p in a.jump_points()}
    return _sampled_symmetry(
        a,
        0.29,
        lambda t: 2 * mp.pi - t,
        lambda t: any(min(abs(t - b), abs(2 * math.pi - t - b)) < 1e-6 for b in bad),
    )


def _json_entries(table: dict) -> list:
    """[[k, re, im], ...] by key; rationals stay exact (an int or "p/q")."""
    out = []
    for k in sorted(table):
        v = table[k]
        if is_exact_scalar(v):
            fr = Fraction(v)
            out.append([k, fr.numerator if fr.denominator == 1 else format_scalar(fr), 0])
        else:
            c = complex(v)
            out.append([k, c.real, c.imag])
    return out


class CoeffSeq(FourierSymbol):
    """Finite coefficient map n -> a_n; exact when entries are Fractions."""

    def __init__(self, entries: dict, symmetry: str | None = None):
        super().__init__()
        if symmetry not in (None, "none", "even", "odd"):
            raise ValueError("symmetry must be even, odd or none")
        if symmetry == "none":
            symmetry = None
        store = {}
        for n, v in entries.items():
            n = int(n)
            if isinstance(v, (Fraction, int, float, complex, mp.mpf, mp.mpc)):
                if v == 0:
                    continue
                store[n] = v
            else:
                raise TypeError("bad coefficient value %r" % (v,))
        _complete_symmetric(store, symmetry, "a")
        self.entries = store
        self._mp: dict = {}
        self.symmetry = symmetry

    def support(self) -> int:
        return max((abs(n) for n in self.entries), default=0)

    @property
    def is_exact(self) -> bool:
        return all(is_exact_scalar(v) for v in self.entries.values())

    @property
    def real(self) -> bool:
        return all(is_real_scalar(v) for v in self.entries.values())

    def even_support(self) -> bool:
        return all(n % 2 == 0 for n in self.entries)

    def closed_coeff(self, n, bits=None):
        v = self.entries.get(n)
        if v is None:
            v = Fraction(0) if self.is_exact else 0
        if bits is None:
            return v
        return to_mp(v, bits)

    def eval_at(self, theta):
        return _expj_series(_mp_values(self._mp, self.entries), theta)

    def real_profile(self):
        if not self.real or self.symmetry is None:
            return None
        trig = mp.cos if self.symmetry == "even" else mp.sin
        kind = "even" if self.symmetry == "even" else "odd_i"
        return (kind, lambda theta: _trig_series(_mp_values(self._mp, self.entries), theta, trig))

    def to_json(self):
        return {
            "kind": "coeffs",
            "symmetry": self.symmetry or "none",
            "entries": _json_entries(self.entries),
        }


class Chi(FourierSymbol):
    """i * sign(theta) on (-pi, pi); jumps at 0 and pi, coefficients 2/(pi n)
    for odd n and 0 for even n."""

    symmetry = "odd"

    def jump_points(self):
        return (JumpPoint(0), JumpPoint(1))

    def eval_at(self, theta):
        r = _reduce_mod_2pi(to_mp(theta, mp.mp.prec))
        if r == 0 or r == mp.pi:
            raise JumpError("chi is not defined at theta = %s" % mp.nstr(r, 8))
        return mp.mpc(0, 1) if r < mp.pi else mp.mpc(0, -1)

    def closed_coeff(self, n, bits=None):
        if n % 2 == 0:
            return mp.mpf(0) if bits else 0
        wp = bits or 128
        with mp.workprec(wp):
            return 2 / (mp.pi * n)

    def real_profile(self):
        return ("odd_i", lambda theta: mp.mpf(1) if theta < mp.pi else mp.mpf(-1))

    def even_support(self):
        return False

    def to_json(self):
        return {"kind": "chi"}


class JumpT(FourierSymbol):
    """The pure jump factor e^{i beta (theta - pi)} on (0, 2pi)."""

    def __init__(self, beta):
        super().__init__()
        self.beta = beta

    def jump_points(self):
        return (JumpPoint(0),)

    def eval_at(self, theta):
        r = _reduce_mod_2pi(to_mp(theta, mp.mp.prec))
        if r == 0:
            raise JumpError("t_beta is not defined at theta = 0")
        b = to_mp(self.beta, mp.mp.prec)
        return mp.exp(mp.mpc(0, 1) * b * (r - mp.pi))

    def closed_coeff(self, n, bits=None):
        wp = bits or 128
        with mp.workprec(wp):
            b = to_mp(self.beta, wp)
            if b == n:
                return mp.mpf((-1) ** n)
            return mp.sinpi(b) / (mp.pi * (b - n))

    def even_support(self):
        return False

    @property
    def real(self) -> bool:
        return is_real_scalar(self.beta)

    def to_json(self):
        c = complex(self.beta)
        return {"kind": "jump_t", "beta": [c.real, c.imag]}


class FHDescriptor:
    """Log-smooth coefficients plus a jump list {(theta_r, beta_r)}.

    The smooth part is exp of a trigonometric polynomial, so its winding
    number is zero by construction.  |Re beta_r| < 1/2 is required by every
    asymptotic statement built on this data.  A theta_r given as a JumpPoint
    (such as JumpPoint(2, -1.0) = 2pi - 1, the mirror of 1) is kept exact in
    points; jumps holds every theta_r as a float.
    """

    def __init__(self, log_smooth: dict | None = None, jumps=()):
        self.log_smooth = {int(n): v for n, v in (log_smooth or {}).items() if v != 0}
        cleaned, points = [], []
        for theta, beta in jumps:
            point = theta if isinstance(theta, JumpPoint) else JumpPoint(0, theta)
            theta = point.approx() if isinstance(theta, JumpPoint) else float(theta)
            if not 0 < theta < 2 * math.pi:
                raise ValueError("jump location must lie in (0, 2pi)")
            if abs(complex(beta).real) >= 0.5:
                raise ValueError("|Re beta| < 1/2 is required")
            cleaned.append((theta, beta))
            points.append(point)
        if len({t for t, _ in cleaned}) != len(cleaned):
            raise ValueError("jump locations must be distinct")
        self.jumps = tuple(cleaned)
        self.points = tuple(points)

    @property
    def is_trivial(self) -> bool:
        return not self.log_smooth and not self.jumps

    def to_json(self):
        log = []
        for n in sorted(self.log_smooth):
            c = complex(self.log_smooth[n])
            log.append([n, c.real, c.imag])
        jumps = []
        for theta, beta in self.jumps:
            b = complex(beta)
            jumps.append({"theta": theta, "beta": [b.real, b.imag]})
        return {"kind": "fh", "log_smooth": log, "jumps": jumps}


class FHProduct(FourierSymbol):
    """Smooth nonvanishing factor times jump factors, from an FHDescriptor."""

    def __init__(self, desc: FHDescriptor):
        super().__init__()
        self.desc = desc
        self._mp: dict = {}

    def jump_points(self):
        return self.desc.points

    def eval_at(self, theta):
        th = to_mp(theta, mp.mp.prec)
        val = mp.exp(_expj_series(_mp_values(self._mp, self.desc.log_smooth), th))
        for p, (t_r, b_r) in zip(self.desc.points, self.desc.jumps):
            r = _reduce_mod_2pi(th - p.to_mpf())
            if r == 0:
                raise JumpError("symbol jump at theta = %r" % (t_r,))
            val *= mp.exp(mp.mpc(0, 1) * to_mp(b_r, mp.mp.prec) * (r - mp.pi))
        return val

    @property
    def _log_real_even(self) -> bool:
        ls = self.desc.log_smooth
        return all(
            is_real_scalar(v) and ls.get(-n) == v for n, v in ls.items()
        )

    @property
    def symmetry(self):
        if not self.desc.jumps and all(
            self.desc.log_smooth.get(-n) == v
            for n, v in self.desc.log_smooth.items()
        ):
            return "even"
        return None

    def real_profile(self):
        if self.desc.jumps or not self._log_real_even:
            return None

        log = self.desc.log_smooth
        return ("even", lambda th: mp.exp(_trig_series(_mp_values(self._mp, log), th, mp.cos)))

    def to_json(self):
        return self.desc.to_json()


class SymbolProduct(FourierSymbol):
    """Pointwise product; coefficients always come from quadrature."""

    def __init__(self, factors):
        super().__init__()
        factors = tuple(factors)
        if not factors:
            raise ValueError("empty product")
        self.factors = factors

    def jump_points(self):
        pts = []
        for f in self.factors:
            pts.extend(f.jump_points())
        return _dedup_jumps(pts)

    @property
    def symmetry(self):
        syms = [f.symmetry for f in self.factors]
        if any(s is None for s in syms):
            return None
        odd = sum(1 for s in syms if s == "odd")
        return "odd" if odd % 2 else "even"

    def eval_at(self, theta):
        val = mp.mpc(1)
        for f in self.factors:
            val *= f.eval_at(theta)
        return val

    def real_profile(self):
        evens, odds = [], []
        for f in self.factors:
            p = f.real_profile()
            if p is None:
                return None
            (evens if p[0] == "even" else odds).append(p[1])
        if len(odds) > 1:
            return None
        first = odds[0] if odds else lambda theta: mp.mpf(1)

        def prod(theta, _fs=tuple(evens)):
            tot = first(theta)
            for fn in _fs:
                tot *= fn(theta)
            return tot

        return ("odd_i" if odds else "even", prod)

    def to_json(self):
        return {"kind": "product", "factors": [f.to_json() for f in self.factors]}


class ClosedFormSymbol(FourierSymbol):
    """Caller-supplied evaluator with a declared jump set."""

    def __init__(self, evaluator, jumps=(), symmetry=None, profile=None):
        super().__init__()
        self._fn = evaluator
        self._jumps = tuple(
            j if isinstance(j, JumpPoint) else JumpPoint(0, float(j)) for j in jumps
        )
        self.symmetry = symmetry
        self._profile = profile

    def jump_points(self):
        return self._jumps

    def eval_at(self, theta):
        return self._fn(to_mp(theta, mp.mp.prec))

    def real_profile(self):
        return self._profile


def _mapped_even_profile(base: FourierSymbol, arg):
    """("even", f(arg(theta))) when base has the real even profile f, else None."""
    p = base.real_profile()
    if p is None or p[0] != "even":
        return None
    fn = p[1]
    return ("even", lambda theta: fn(arg(to_mp(theta, mp.mp.prec))))


class ArgDoubled(FourierSymbol):
    """a(e^{i theta}) = base(e^{2 i theta}): a_{2n} = base_n, odd ones vanish."""

    def __init__(self, base: FourierSymbol):
        super().__init__()
        self.base = base

    @property
    def symmetry(self):
        return self.base.symmetry

    @property
    def real(self) -> bool:
        return self.base.real

    def jump_points(self):
        pts = []
        for p in self.base.jump_points():
            pts.append(p.scaled(Fraction(1, 2)))
            pts.append(p.scaled(Fraction(1, 2), extra_pi=1))
        return _dedup_jumps(pts)

    def even_support(self):
        return True

    def eval_at(self, theta):
        th = to_mp(theta, mp.mp.prec)
        return self.base.eval_at(_reduce_mod_2pi(2 * th))

    def closed_coeff(self, n, bits=None):
        if n % 2:
            return Fraction(0) if bits is None else mp.mpf(0)
        return self.base.closed_coeff(n // 2, bits)

    def coeff_table(self, n_lo, n_hi, bits):
        lo = -(-n_lo // 2)  # ceil
        hi = n_hi // 2
        inner = self.base.coeff_table(lo, hi, bits) if lo <= hi else {}
        out = {}
        zero = mp.mpf(0)
        for n in range(n_lo, n_hi + 1):
            out[n] = inner[n // 2] if n % 2 == 0 else zero
        return out

    def real_profile(self):
        # doubling the argument keeps real-evenness but breaks oddness in
        # theta (sin(2t) is not odd about pi), so only the even case maps
        return _mapped_even_profile(self.base, lambda th: _reduce_mod_2pi(2 * th))


class HalvedArg(FourierSymbol):
    """d(e^{i theta}) = base(e^{i theta/2}) for a base with a(-t) = a(t)."""

    def __init__(self, base: FourierSymbol):
        super().__init__()
        self.base = base

    @property
    def symmetry(self):
        return self.base.symmetry

    @property
    def real(self) -> bool:
        return self.base.real

    def jump_points(self):
        return _dedup_jumps(p.scaled(Fraction(2)) for p in self.base.jump_points())

    def eval_at(self, theta):
        th = _reduce_mod_2pi(to_mp(theta, mp.mp.prec))
        return self.base.eval_at(th / 2)

    def closed_coeff(self, n, bits=None):
        return self.base.closed_coeff(2 * n, bits)

    def coeff_table(self, n_lo, n_hi, bits):
        inner = self.base.coeff_table(2 * n_lo, 2 * n_hi, bits)
        return {n: inner[2 * n] for n in range(n_lo, n_hi + 1)}

    def real_profile(self):
        return _mapped_even_profile(self.base, lambda th: _reduce_mod_2pi(th) / 2)


class MomentSymbol:
    """smooth_factor times weight on [-1, 1], with quadrature-backed moments.

    weight "one" is the plain factor; "sqrt_ratio" multiplies by
    sqrt((1+x)/(1-x)).  smooth_theta, when given, evaluates the smooth factor
    directly at x = cos(theta) and is what the quadrature uses; it must agree
    with smooth_factor(cos(theta)).  Each jump is a float x in (-1, 1) or a
    JumpPoint theta in (0, pi) with x = cos(theta); cuts holds each as the
    exact angle that the panels cut at (JumpPoint.arccos(x) for a float x),
    jumps holds each x.
    """

    def __init__(
        self,
        smooth,
        weight: str = "one",
        jumps=(),
        parity: str | None = None,
        smooth_theta=None,
        real: bool | None = None,
        poly: dict | None = None,
    ):
        if weight not in ("one", "sqrt_ratio"):
            raise ValueError("weight must be one or sqrt_ratio")
        if parity not in (None, "none", "even"):
            raise ValueError("parity must be even or none")
        self.smooth = smooth
        self.weight = weight
        given = sorted(((_jump_x(j), j) for j in jumps), key=lambda p: p[0])
        self.jumps = tuple(x for x, _ in given)
        if any(not -1 < x < 1 for x in self.jumps):
            raise ValueError("moment jumps must lie in (-1, 1)")
        self.cuts = tuple(j if isinstance(j, JumpPoint) else JumpPoint.arccos(x) for x, j in given)
        self.parity = None if parity == "none" else parity
        self.smooth_theta = smooth_theta or (lambda th: smooth(mp.cos(th)))
        self.poly = poly
        if real is None:
            real = self._sample_real()
        self.real = real
        self._cache: dict = {}
        self._lock = threading.Lock()

    @classmethod
    def from_poly(cls, coeffs: dict, weight="one", parity=None, jumps=()):
        """Smooth factor sum_k c_k x^k; exact-friendly and JSON-serializable."""
        coeffs = {int(k): v for k, v in coeffs.items() if v != 0}

        def smooth(x, _c=coeffs):
            tot = 0
            for k, v in _c.items():
                tot += to_mp(v, mp.mp.prec) * x**k
            return tot

        if parity is None and coeffs and all(k % 2 == 0 for k in coeffs):
            parity = "even"
        real = all(is_real_scalar(v) for v in coeffs.values())
        return cls(smooth, weight, jumps, parity, real=real, poly=coeffs)

    def _sample_real(self) -> bool:
        with mp.workprec(_CERT_BITS):
            for k in range(9):
                x = mp.mpf(2 * k + 1) / 10 - 1 + mp.mpf(1) / 64
                try:
                    v = self.smooth(x)
                except Exception:
                    return False
                if not is_real_scalar(v):
                    return False
        return True

    def certify_even(self) -> bool:
        """parity=even must hold under sampling: smooth(x) = smooth(-x)."""
        with mp.workprec(_CERT_BITS):
            worst = mp.mpf(0)
            scale = mp.mpf(1)
            for k in range(_CERT_SAMPLES):
                x = (mp.mpf(2 * k + 1)) / (2 * _CERT_SAMPLES + 1)
                v1, v2 = self.smooth(x), self.smooth(-x)
                worst = max(worst, abs(v1 - v2))
                scale = max(scale, abs(v1))
            return worst <= _CERT_TOL * scale

    def eval_at(self, x):
        x = to_mp(x, mp.mp.prec)
        v = self.smooth(x)
        if self.weight == "sqrt_ratio":
            v = v * mp.sqrt((1 + x) / (1 - x))
        return v

    def theta_panels(self, wp):
        """Panels covering (0, pi) in theta = acos(x), split at the jumps."""
        with mp.workprec(wp):
            return _panels([j.to_mpf() for j in self.cuts], mp.pi, wp)

    def _integrand(self):
        # After x = cos(theta) the moment integrand carries a sin(theta)
        # Jacobian; sqrt_ratio * sin == 1 + cos removes the x=1 singularity.
        if self.weight == "sqrt_ratio":
            return lambda th: self.smooth_theta(th) * (1 + mp.cos(th))
        return lambda th: self.smooth_theta(th) * mp.sin(th)

    def moment_table(self, n_max: int, bits: int) -> dict:
        table = _cached_table(self, bits, n_max, self._compute_moments)
        return {n: table[n] for n in range(1, n_max + 1)}

    def _compute_moments(self, n_max: int, bits: int) -> dict:
        wp = bits + quadrature.GUARD
        panels = self.theta_panels(wp)
        with mp.workprec(wp):
            raw = quadrature.cospower_transform(self._integrand(), panels, n_max, bits)
            return {n: raw[n] / mp.pi for n in range(1, n_max + 1)}

    def moment(self, n: int, bits: int = 128):
        if n < 1:
            raise ValueError("moments are indexed from 1")
        return self.moment_table(n, bits)[n]

    def to_json(self):
        if self.poly is None:
            raise NotImplementedError("only polynomial smooth factors serialize")
        return {
            "kind": "moment",
            "weight": self.weight,
            "poly": _json_entries(self.poly),
            "parity": self.parity or "none",
        }


# -- spec-level operations ----------------------------------------------


def _bits_from_accuracy(accuracy, bits):
    if bits is not None:
        return bits
    if accuracy is None:
        return 128
    if accuracy <= 0:
        raise ValueError("accuracy target must be positive")
    return max(64, int(-mp.log(mp.mpf(accuracy), 2)) + quadrature.GUARD)


def fourier_coeff(a: FourierSymbol, n: int, accuracy=None, bits: int | None = None):
    """a_n to the requested relative accuracy (closed form when available)."""
    return a.coeff(int(n), _bits_from_accuracy(accuracy, bits))


def moment(b: MomentSymbol, n: int, accuracy=None, bits: int | None = None):
    """b_n = (1/pi) integral b(x) (2x)^{n-1} dx, n >= 1."""
    return b.moment(int(n), _bits_from_accuracy(accuracy, bits))


def evaluate(a, theta, bits: int = 128):
    """Pointwise value at e^{i theta} (or at x for moment symbols)."""
    with mp.workprec(bits):
        return a.eval_at(theta)


def halve_argument(a: FourierSymbol) -> FourierSymbol:
    """d with d_n = a_{2n}, valid when a(-t) = a(t)."""
    if isinstance(a, ArgDoubled):
        return a.base
    if isinstance(a, CoeffSeq):
        odd = [n for n in a.entries if n % 2]
        if odd:
            raise SpeciesError(
                "halve_argument needs vanishing odd coefficients, found a_%d" % odd[0]
            )
        halved = {n // 2: v for n, v in a.entries.items()}
        return CoeffSeq(halved, symmetry=a.symmetry)
    if not a.even_support():
        raise SpeciesError("halve_argument needs a(-t) = a(t)")
    return HalvedArg(a)


def double_argument(a: FourierSymbol) -> FourierSymbol:
    if isinstance(a, CoeffSeq):
        return CoeffSeq({2 * n: v for n, v in a.entries.items()}, symmetry=a.symmetry)
    return ArgDoubled(a)


def multiply_by_chi(a: FourierSymbol) -> FourierSymbol:
    return SymbolProduct((Chi(), a))


def _pullback(a: FourierSymbol, weight: str) -> MomentSymbol:
    """The moment symbol with smooth factor b(cos t) = a(e^{it}) and weight.

    a must be even on the circle; its jumps t in (0, pi) become jumps at
    cos t, kept as the exact angles t, and its real even profile, if any, is
    what the quadrature uses.
    """
    profile = a.real_profile()
    real = profile is not None and profile[0] == "even"
    return MomentSymbol(
        smooth=lambda x: a.eval_at(mp.acos(x)),
        weight=weight,
        jumps=[p for p in a.jump_points() if 1e-12 < p.approx() < math.pi - 1e-12],
        parity="even" if a.even_support() else None,
        smooth_theta=profile[1] if real else a.eval_at,
        real=real,
    )


def _jump_x(j) -> float:
    """The x in (-1, 1) of a moment jump given as x or as the angle acos(x)."""
    return math.cos(j.approx()) if isinstance(j, JumpPoint) else float(j)


def th_to_moment_symbol(a: FourierSymbol) -> MomentSymbol:
    """b(cos t) = a(e^{it}) sqrt((1+cos t)/(1-cos t)), the moment twin of a."""
    if not certify_even(a):
        raise SpeciesError("moment twin needs an even symbol")
    return _pullback(a, "sqrt_ratio")


def _lift(b: MomentSymbol, scale, value) -> ClosedFormSymbol:
    """The even circle symbol value(theta), with jumps at scale * acos(x) and
    2pi minus that for each jump x of b.

    value must be even about pi; as a real profile it is read on (0, 2pi),
    so only the evaluator reduces theta first.
    """
    jumps = [p for j in b.cuts for p in (j.scaled(scale), j.scaled(-scale, extra_pi=2))]
    return ClosedFormSymbol(
        lambda theta: value(_reduce_mod_2pi(theta)),
        jumps=_dedup_jumps(jumps),
        symmetry="even",
        profile=("even", value) if b.real else None,
    )


def moment_to_skew_symbol(b: MomentSymbol) -> FourierSymbol:
    """The odd symbol c(e^{i theta}) = i sign(theta) b(cos theta), with
    c_n = (1/pi) integral_0^pi b(cos t) sin(nt) dt."""

    def half(theta):
        # b(cos theta) with theta folded into (0, pi), weight folded in analytically
        if theta > mp.pi:
            theta = 2 * mp.pi - theta
        if b.weight == "sqrt_ratio":
            return b.smooth_theta(theta) * (1 + mp.cos(theta)) / mp.sin(theta)
        return b.smooth_theta(theta)

    return multiply_by_chi(_lift(b, 1, half))


def _halfangle(b0: MomentSymbol) -> FourierSymbol:
    """d(e^{i theta}) = b0.smooth(cos(theta/2)), whatever b0's weight."""
    if b0.parity != "even" or not b0.certify_even():
        raise SpeciesError("half-angle lift needs an even smooth factor")
    return _lift(b0, 2, lambda theta: b0.smooth(mp.cos(theta / 2)))


def moment_to_halfangle(b0: MomentSymbol) -> FourierSymbol:
    """The even symbol d(e^{i theta}) = b0(cos(theta/2))."""
    if b0.weight != "one":
        raise SpeciesError("half-angle lift applies to the smooth factor alone")
    return _halfangle(b0)


# -- JSON schemas --------------------------------------------------------


def _parse_value(v):
    if isinstance(v, bool):
        raise ValueError("boolean is not a number")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, float):
        return v
    raise ValueError("bad numeric value %r" % (v,))


def _parse_pair(re, im):
    rv, iv = _parse_value(re), _parse_value(im)
    if iv == 0:
        return rv
    return complex(float(rv), float(iv))


def _parse_entries(items) -> dict:
    """{n: value} from [[n, re, im], ...]; the inverse of _json_entries."""
    out = {}
    for item in items:
        n, re, im = item
        out[int(n)] = _parse_pair(re, im)
    return out


def symbol_from_json(obj) -> FourierSymbol:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("symbol JSON needs a 'kind' field")
    kind = obj["kind"]
    if kind == "coeffs":
        entries = _parse_entries(obj.get("entries", []))
        return CoeffSeq(entries, symmetry=obj.get("symmetry", "none"))
    if kind == "chi":
        return Chi()
    if kind == "jump_t":
        re, im = obj["beta"]
        return JumpT(_parse_pair(re, im))
    if kind == "fh":
        return FHProduct(descriptor_from_json(obj))
    if kind == "product":
        return SymbolProduct([symbol_from_json(f) for f in obj["factors"]])
    raise ValueError("unknown symbol kind %r" % (kind,))


def descriptor_from_json(obj) -> FHDescriptor:
    if obj.get("kind") not in (None, "fh"):
        raise ValueError("descriptor JSON must have kind 'fh'")
    log_smooth = {
        n: float(v) if isinstance(v, Fraction) else v
        for n, v in _parse_entries(obj.get("log_smooth", [])).items()
    }
    jumps = []
    for j in obj.get("jumps", []):
        re, im = j["beta"]
        b = _parse_pair(re, im)
        jumps.append((float(j["theta"]), float(b) if isinstance(b, Fraction) else b))
    return FHDescriptor(log_smooth, jumps)


def moment_from_json(obj) -> MomentSymbol:
    if obj.get("kind") != "moment":
        raise ValueError("moment JSON must have kind 'moment'")
    return MomentSymbol.from_poly(
        _parse_entries(obj.get("poly", [])),
        weight=obj.get("weight", "one"),
        parity=obj.get("parity"),
        jumps=obj.get("jumps", ()),
    )
