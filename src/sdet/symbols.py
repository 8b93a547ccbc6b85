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

The two argument maps on the circle, ArgDoubled (theta -> 2 theta) and
HalvedArg (theta -> theta/2), are images of their base: each is an index map
_source onto the base's coefficients (n // 2, or none for odd n; 2n), and
both closed forms and tables are read off the base through it.  Every
symmetry certificate (even support and evenness on the circle, the parity
of a moment symbol's smooth factor) runs one sampler, _sampled_symmetry, on
_CERT_SAMPLES points, except a CoeffSeq's, which are read off its entries.

One rule, _route, picks how every table without a closed form is built
(transform, integrand, trapezoid or panels, band), and one builder, _table,
runs it on a cache miss.  Real even and i * (real odd) symbols run cosine
and sine transforms over (0, pi) in real arithmetic, which keeps the large
asymptotic studies fast.  The skew symbol of a real, uncut sqrt_ratio
moment symbol b reads b's own moment integrand against U_{n-1}(cos t),
never b's moments: no table is computed from another, so the two sides of
an identity stay independent.

Symbols are immutable after construction.  Each one memoizes what is
derived from it under its own lock: its coefficient or moment tables, its
images (moment twin, skew symbol, half-angle lift, argument halving), its
sampled symmetry certificates and the matrices that matrices' builders lay
out of it, one per family, N and field.  So each image and each matrix is
built once per symbol, and all of it goes with the symbol; table builds
take turns (_table).  That does not make hp work safe in threads: mpmath
keeps one working precision per process, which every mp.workprec block
saves and restores, so two threads that verify or build hp matrices at once
can change each other's results.  Run concurrent hp work in processes.
"""

import itertools
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


def _cached_table(owner, bits: int, limit: int) -> dict:
    """owner's table at bits covering limit, from _table on a miss.

    One grow-only table per bits, in owner._cache under owner._lock.
    """
    with owner._lock:
        got = owner._cache.get(bits)
        if got is not None and got[0] >= limit:
            return got[1]
    table = _table(owner, limit, bits)
    with owner._lock:
        held = owner._cache.get(bits)
        if held is None or held[0] < limit:
            owner._cache[bits] = (limit, table)
    return table


def _once(owner, key, build):
    """owner's derived value under key (an image, a certificate or a
    matrix), from build() on the first call.

    Held in owner._derived under owner._lock; build runs outside the lock,
    and when two threads race the first stored value wins.  A build that
    raises stores nothing.
    """
    with owner._lock:
        if key in owner._derived:
            return owner._derived[key]
    value = build()
    with owner._lock:
        return owner._derived.setdefault(key, value)


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
        tot += v * quadrature._expj(n * theta)
    return tot


def _trig_series(values: dict, theta, odd=False):
    """v_0 + sum_{n>0} 2 v_n cos(n theta), or sum_{n>0} 2 v_n sin(n theta)
    when odd: the real profile of an even sequence, or of an odd one divided
    by i."""
    tot = mp.mpf(0) if odd else values.get(0, mp.mpf(0))
    for n, v in values.items():
        if n > 0:
            tot += 2 * v * quadrature._cos_sin(n * theta)[odd]
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

    #: b when this is b's skew symbol, from moment_to_skew_symbol(b).
    _skew_of: "MomentSymbol | None" = None

    def __init__(self):
        self._cache: dict = {}
        self._derived: dict = {}
        self._lock = threading.Lock()

    def jump_points(self) -> tuple:
        return ()

    def eval_at(self, theta):
        """Value at e^{i theta} at the ambient mpmath precision."""
        raise NotImplementedError

    def closed_coeff(self, n: int, bits: int | None = None):
        """Closed-form coefficient, or None when quadrature is required."""
        table = self.closed_table((n,), bits)
        return None if table is None else table[n]

    def closed_table(self, ns, bits: int | None = None):
        """{n: closed-form coefficient} for every n in ns, or None when
        quadrature is required; closed_coeff is its one-index case."""
        return None

    def real_profile(self):
        """("even", f) for real even symbols, ("odd_i", g) when the symbol
        is i*g with g real odd, else None.  Evaluators are valid on (0, 2pi)
        off the jump set at ambient precision; a jump-free symbol's are also
        called at theta = 0 and theta = pi, whether its band is known or not."""
        return None

    def band(self) -> int | None:
        """K when the symbol off its jumps is a trigonometric polynomial of
        degree K or the exponential of one, None when unknown (an opaque
        evaluator).  A jump-free symbol takes the trapezoid, from a grid that
        resolves its band when it is known."""
        return None

    def even_support(self) -> bool:
        """Whether a(-t) = a(t), i.e. all odd-index coefficients vanish;
        sampled once per symbol."""

        def sample():
            bad = {p.approx() % math.pi for p in self.jump_points()}
            walk = _golden_walk(
                0.37, lambda t: any(abs(t - b) < 1e-6 or abs(t - b - math.pi) < 1e-6 for b in bad)
            )
            return _sampled_symmetry(self.eval_at, walk, lambda t: t + mp.pi)

        return _once(self, "even_support", sample)

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
        return self.coeff_table(n, n, bits)[n]

    def coeff_table(self, n_lo: int, n_hi: int, bits: int) -> dict:
        """Coefficients for every n in [n_lo, n_hi]; batched and cached."""
        if n_lo > n_hi:
            raise ValueError("empty coefficient range")
        closed = self.closed_table(range(n_lo, n_hi + 1), bits)
        if closed is not None:
            return closed
        table = _cached_table(self, bits, max(abs(n_lo), abs(n_hi)))
        return {n: table[n] for n in range(n_lo, n_hi + 1)}

    def to_json(self) -> dict:
        raise NotImplementedError(
            "%s has no JSON form" % (type(self).__name__,)
        )


def _golden_walk(start: float, near_jump):
    """Points t in (0, pi), walking from start in golden-ratio steps and
    skipping those where near_jump(t) holds."""
    t = start
    while True:
        t = (t + math.pi * (math.sqrt(5) - 1)) % math.pi
        if not near_jump(t):
            yield t


def _sampled_symmetry(f, points, partner) -> bool:
    """Whether f(p) = f(partner(p)) at the first _CERT_SAMPLES of points, to
    _CERT_TOL relative to the larger of 1 and the largest |f| seen: the one
    sampler of every symmetry certificate.  A sample that hits a jump is
    skipped, and a certificate with fewer than half its samples evaluated
    fails."""
    with mp.workprec(_CERT_BITS):
        scale = mp.mpf(0)
        worst = mp.mpf(0)
        used = 0
        for p in itertools.islice(points, _CERT_SAMPLES):
            p = mp.mpf(p)
            try:
                v1, v2 = f(p), f(partner(p))
            except JumpError:
                continue
            used += 1
            worst = max(worst, abs(v1 - v2))
            scale = max(scale, abs(v1), abs(v2))
        return 2 * used >= _CERT_SAMPLES and worst <= _CERT_TOL * max(scale, mp.mpf(1))


def certify_even(a: FourierSymbol) -> bool:
    """Whether a(1/t) = a(t): its declared symmetry (a CoeffSeq's is its
    entries'), else sampled once per symbol."""
    if a.symmetry is not None or isinstance(a, CoeffSeq):
        return a.symmetry == "even"

    def sample():
        bad = {p.approx() for p in a.jump_points()}
        walk = _golden_walk(
            0.29, lambda t: any(min(abs(t - b), abs(2 * math.pi - t - b)) < 1e-6 for b in bad)
        )
        return _sampled_symmetry(a.eval_at, walk, lambda t: 2 * mp.pi - t)

    return _once(a, "certify_even", sample)


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
    """Finite coefficient map n -> a_n; exact when entries are Fractions.

    A sequence built without a symmetry (None or "none") takes the one its
    entries have exactly: even when a_{-n} = a_n for every n, odd when
    a_{-n} = -a_n and a_0 = 0, otherwise none.
    """

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
        if symmetry is None:
            if all(store.get(-n, 0) == v for n, v in store.items()):
                symmetry = "even"
            elif 0 not in store and all(store.get(-n, 0) == -v for n, v in store.items()):
                symmetry = "odd"
        _complete_symmetric(store, symmetry, "a")
        self.entries = store
        self._mp: dict = {}
        self.symmetry = symmetry

    def support(self) -> int:
        return max((abs(n) for n in self.entries), default=0)

    band = support

    @property
    def is_exact(self) -> bool:
        return all(is_exact_scalar(v) for v in self.entries.values())

    @property
    def real(self) -> bool:
        return all(is_real_scalar(v) for v in self.entries.values())

    def even_support(self) -> bool:
        return all(n % 2 == 0 for n in self.entries)

    def closed_table(self, ns, bits=None):
        zero = Fraction(0) if self.is_exact else 0
        if bits is None:
            return {n: self.entries.get(n, zero) for n in ns}
        return {n: to_mp(self.entries.get(n, zero), bits) for n in ns}

    def eval_at(self, theta):
        return _expj_series(_mp_values(self._mp, self.entries), theta)

    def real_profile(self):
        if not self.real or self.symmetry is None:
            return None
        odd = self.symmetry != "even"
        kind = "odd_i" if odd else "even"
        return (kind,lambda theta: _trig_series(_mp_values(self._mp, self.entries), theta, odd))

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

    def closed_table(self, ns, bits=None):
        zero = mp.mpf(0) if bits else 0
        with mp.workprec(bits or 128):
            pi = +mp.pi
            return {n: 2 / (pi * n) if n % 2 else zero for n in ns}

    def real_profile(self):
        return ("odd_i", lambda theta: mp.mpf(1) if theta < mp.pi else mp.mpf(-1))

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

    def closed_table(self, ns, bits=None):
        wp = bits or 128
        with mp.workprec(wp):
            b = to_mp(self.beta, wp)
            sin_b, pi = mp.sinpi(b), +mp.pi
            return {n: mp.mpf((-1) ** n) if b == n else sin_b / (pi * (b - n)) for n in ns}

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
    points; jumps holds every theta_r as a float.  In JSON such a point is
    {"pi": p, "offset": x} for p*pi + x, p an integer or a fraction string.
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
        for (theta, beta), point in zip(self.jumps, self.points):
            if point.coeff and not point.arc:
                theta = {"pi": str(point.coeff), "offset": point.offset}
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

    @property
    def _jumps_real_even(self) -> bool:
        """Whether the jumps pair up as (t, beta) and (2pi - t, -beta), mirrored
        exactly, with every beta imaginary: then their product is real and even."""

        def key(p):  # exact parts: equal only for angles built alike
            return (p.coeff, p.offset, p.arc, p.x)

        betas = [complex(b) for _, b in self.desc.jumps]
        by_point = {key(p): b for p, b in zip(self.desc.points, betas)}
        return all(
            b.real == 0 and by_point.get(key(p.scaled(-1, extra_pi=2))) == -b
            for p, b in zip(self.desc.points, betas)
        )

    def real_profile(self):
        if not (self._log_real_even and self._jumps_real_even):
            return None
        log = self.desc.log_smooth
        # a jump factor e^{i beta (r - pi)} with beta = i g is e^{-g (r - pi)}
        jumps = [(p, mp.mpf(complex(b).imag)) for p, (_, b) in zip(self.desc.points, self.desc.jumps)]

        def profile(th):
            tot = _trig_series(_mp_values(self._mp, log), th)
            for p, g in jumps:
                tot -= g * (_reduce_mod_2pi(th - p.to_mpf()) - mp.pi)
            return mp.exp(tot)

        return ("even", profile)

    def band(self):
        return max((abs(n) for n in self.desc.log_smooth), default=0)

    def even_support(self):
        # jump-free: a(t + pi) = a(t) makes the odd part of the log, which
        # has mean 0, a constant in 2 pi i Z, so every odd c_n is 0
        if not self.desc.jumps:
            return all(n % 2 == 0 for n in self.desc.log_smooth)
        return super().even_support()

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

    def band(self):
        bands = [f.band() for f in self.factors]
        return None if None in bands else sum(bands)

    def to_json(self):
        return {"kind": "product", "factors": [f.to_json() for f in self.factors]}


class ClosedFormSymbol(FourierSymbol):
    """Caller-supplied evaluator with a declared jump set, and band if known."""

    def __init__(self, evaluator, jumps=(), symmetry=None, profile=None, band=None):
        super().__init__()
        self._fn = evaluator
        self._jumps = tuple(
            j if isinstance(j, JumpPoint) else JumpPoint(0, float(j)) for j in jumps
        )
        self.symmetry = symmetry
        self._profile = profile
        self._band = band

    def jump_points(self):
        return self._jumps

    def band(self):
        return self._band

    def eval_at(self, theta):
        return self._fn(to_mp(theta, mp.mp.prec))

    def real_profile(self):
        return self._profile


class _Image(FourierSymbol):
    """A symbol whose coefficients are its base's under the index map
    _source: a_n = base_{_source(n)}, and a_n = 0 where _source(n) is None.
    Its value at theta is the base's at _arg(theta), and it keeps its base's
    symmetry and realness."""

    def __init__(self, base: FourierSymbol):
        super().__init__()
        self.base = base

    @property
    def symmetry(self):
        return self.base.symmetry

    @property
    def real(self) -> bool:
        return self.base.real

    def _mapped(self, ns, read, bits):
        """{n: base_{_source(n)}} for n in ns, from read(sorted sources), or
        None when read gives None."""
        src = {n: self._source(n) for n in ns}
        inner = read(sorted({m for m in src.values() if m is not None}))
        if inner is None:
            return None
        zero = Fraction(0) if bits is None else mp.mpf(0)
        return {n: zero if m is None else inner[m] for n, m in src.items()}

    def closed_table(self, ns, bits=None):
        return self._mapped(ns, lambda ms: self.base.closed_table(ms, bits), bits)

    def coeff_table(self, n_lo, n_hi, bits):
        if n_lo > n_hi:
            raise ValueError("empty coefficient range")
        return self._mapped(
            range(n_lo, n_hi + 1), lambda ms: self.base.coeff_table(ms[0], ms[-1], bits) if ms else {}, bits
        )

    def eval_at(self, theta):
        return self.base.eval_at(self._arg(to_mp(theta, mp.mp.prec)))

    def real_profile(self):
        # an argument map keeps real-evenness but breaks oddness in theta
        # (sin(2t) is not odd about pi), so only the even case maps
        p = self.base.real_profile()
        if p is None or p[0] != "even":
            return None
        fn = p[1]
        return ("even", lambda theta: fn(self._arg(to_mp(theta, mp.mp.prec))))


class ArgDoubled(_Image):
    """a(e^{i theta}) = base(e^{2 i theta}): a_{2n} = base_n, odd ones vanish."""

    def _source(self, n):
        return None if n % 2 else n // 2

    def _arg(self, theta):
        return _reduce_mod_2pi(2 * theta)

    def jump_points(self):
        pts = []
        for p in self.base.jump_points():
            pts.append(p.scaled(Fraction(1, 2)))
            pts.append(p.scaled(Fraction(1, 2), extra_pi=1))
        return _dedup_jumps(pts)

    def even_support(self):
        return True

    def band(self):
        return None if self.base.band() is None else 2 * self.base.band()


class HalvedArg(_Image):
    """d(e^{i theta}) = base(e^{i theta/2}) for a base with a(-t) = a(t):
    d_n = base_{2n}."""

    def _source(self, n):
        return 2 * n

    def _arg(self, theta):
        return _reduce_mod_2pi(theta) / 2

    def jump_points(self):
        return _dedup_jumps(p.scaled(Fraction(2)) for p in self.base.jump_points())

    def band(self):
        return None if self.base.band() is None else (self.base.band() + 1) // 2


class MomentSymbol:
    """smooth_factor times weight on [-1, 1], with quadrature-backed moments.

    weight "one" is the plain factor; "sqrt_ratio" multiplies by
    sqrt((1+x)/(1-x)).  smooth_theta, when given, evaluates the smooth factor
    directly at x = cos(theta) and is what the quadrature uses; it must agree
    with smooth_factor(cos(theta)).  Each jump is a float x in (-1, 1) or a
    JumpPoint theta in [0, pi] with x = cos(theta); cuts holds each as the
    exact angle that the panels cut at (JumpPoint.arccos(x) for a float x),
    jumps holds each x.  A jump at theta 0 or pi, where the smooth factor
    is not smooth at x = 1 or -1, cuts no panel but keeps every table off
    the trapezoid.  band is the degree of the polynomial in x that the
    smooth factor is, or is the exponential of (None: unknown); an uncut
    sqrt_ratio symbol also has smooth_theta called at 0 and pi.
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
        band: int | None = None,
    ):
        if weight not in ("one", "sqrt_ratio"):
            raise ValueError("weight must be one or sqrt_ratio")
        if parity not in (None, "none", "even"):
            raise ValueError("parity must be even or none")
        self.smooth = smooth
        self.weight = weight
        given = sorted(((_jump_x(j), j) for j in jumps), key=lambda p: p[0])
        self.jumps = tuple(x for x, _ in given)
        if any(not -1 < x < 1 for x, j in given if not isinstance(j, JumpPoint)):
            raise ValueError("moment jumps must lie in (-1, 1)")
        self.cuts = tuple(j if isinstance(j, JumpPoint) else JumpPoint.arccos(x) for x, j in given)
        self.parity = None if parity == "none" else parity
        self.smooth_theta = smooth_theta or (lambda th: smooth(quadrature._cos_sin(th)[0]))
        self.poly = poly
        self.band = band
        if real is None:
            real = self._sample_real()
        self.real = real
        self._cache: dict = {}
        self._derived: dict = {}
        self._lock = threading.Lock()

    @classmethod
    def from_poly(cls, coeffs: dict, weight="one", parity=None, jumps=()):
        """Smooth factor sum_k c_k x^k; exact-friendly and JSON-serializable."""
        coeffs = {int(k): v for k, v in coeffs.items() if v != 0}
        values: dict = {}

        def smooth(x):
            tot = 0
            for k, v in _mp_values(values, coeffs).items():
                tot += v * x**k
            return tot

        if parity is None and coeffs and all(k % 2 == 0 for k in coeffs):
            parity = "even"
        real = all(is_real_scalar(v) for v in coeffs.values())
        band = max(coeffs, default=0)
        return cls(smooth, weight, jumps, parity, real=real, poly=coeffs, band=band)

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
        """parity=even must hold under sampling: smooth(x) = smooth(-x).
        Sampled once per symbol."""

        # the generator runs inside the sampler, so each x is made at _CERT_BITS
        points = (mp.mpf(2 * k + 1) / (2 * _CERT_SAMPLES + 1) for k in range(_CERT_SAMPLES))
        return _once(self, "certify_even", lambda: _sampled_symmetry(self.smooth, points, lambda x: -x))

    def eval_at(self, x):
        x = to_mp(x, mp.mp.prec)
        v = self.smooth(x)
        if self.weight == "sqrt_ratio":
            v = v * mp.sqrt((1 + x) / (1 - x))
        return v

    def _integrand(self):
        # After x = cos(theta) the moment integrand carries a sin(theta)
        # Jacobian; sqrt_ratio * sin == 1 + cos removes the x=1 singularity.
        if self.weight == "sqrt_ratio":
            return lambda th: self.smooth_theta(th) * (1 + quadrature._cos_sin(th)[0])
        return lambda th: self.smooth_theta(th) * quadrature._cos_sin(th)[1]

    def moment_table(self, n_max: int, bits: int) -> dict:
        table = _cached_table(self, bits, n_max)
        return {n: table[n] for n in range(1, n_max + 1)}

    def moment(self, n: int, bits: int = 128):
        if n < 1:
            raise ValueError("moments are indexed from 1")
        return self.moment_table(n, bits)[n]

    def to_json(self):
        if self.poly is None:
            raise NotImplementedError("only polynomial smooth factors serialize")
        out = {
            "kind": "moment",
            "weight": self.weight,
            "poly": _json_entries(self.poly),
            "parity": self.parity or "none",
        }
        if self.jumps:
            out["jumps"] = list(self.jumps)
        return out


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
    """d with d_n = a_{2n}, valid when a(-t) = a(t); built once per a."""
    if isinstance(a, ArgDoubled):
        return a.base
    if isinstance(a, CoeffSeq):
        odd = [n for n in a.entries if n % 2]
        if odd:
            raise SpeciesError(
                "halve_argument needs vanishing odd coefficients, found a_%d" % odd[0]
            )
        halved = {n // 2: v for n, v in a.entries.items()}
        return _once(a, "halved", lambda: CoeffSeq(halved, symmetry=a.symmetry))
    if not a.even_support():
        raise SpeciesError("halve_argument needs a(-t) = a(t)")
    return _once(a, "halved", lambda: HalvedArg(a))


def double_argument(a: FourierSymbol) -> FourierSymbol:
    if isinstance(a, CoeffSeq):
        return CoeffSeq({2 * n: v for n, v in a.entries.items()}, symmetry=a.symmetry)
    return ArgDoubled(a)


def multiply_by_chi(a: FourierSymbol) -> FourierSymbol:
    return SymbolProduct((Chi(), a))


def _pullback(a: FourierSymbol, weight: str) -> MomentSymbol:
    """The moment symbol with smooth factor b(cos t) = a(e^{it}) and weight.

    a must be even on the circle; its jumps t in [0, pi] become jumps at
    cos t, kept as the exact angles t (a jump at 0 or pi cuts no panel, but
    keeps b's tables off the trapezoid), and its real even profile, if any,
    is what the quadrature uses.  Built once per a and weight.
    """

    def build():
        profile = a.real_profile()
        real = profile is not None and profile[0] == "even"
        return MomentSymbol(
            smooth=lambda x: a.eval_at(mp.acos(x)),
            weight=weight,
            jumps=[p for p in a.jump_points() if p.approx() < math.pi + 1e-12],
            parity="even" if a.even_support() else None,
            smooth_theta=profile[1] if real else a.eval_at,
            real=real,
            band=None if a.jump_points() else a.band(),  # a band describes a jump-free a
        )

    return _once(a, ("_pullback", weight), build)


def _jump_x(j) -> float:
    """The x in (-1, 1) of a moment jump given as x or as the angle acos(x)."""
    return math.cos(j.approx()) if isinstance(j, JumpPoint) else float(j)


def th_to_moment_symbol(a: FourierSymbol) -> MomentSymbol:
    """b(cos t) = a(e^{it}) sqrt((1+cos t)/(1-cos t)), the moment twin of a."""
    if not certify_even(a):
        raise SpeciesError("moment twin needs an even symbol")
    return _pullback(a, "sqrt_ratio")


def _lift(b: MomentSymbol, scale, value, band=None) -> ClosedFormSymbol:
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
        band=band,
    )


def moment_to_skew_symbol(b: MomentSymbol) -> FourierSymbol:
    """The odd symbol c(e^{i theta}) = i sign(theta) b(cos theta), with
    c_n = (1/pi) integral_0^pi b(cos t) sin(nt) dt.

    _route gives a real, uncut sqrt_ratio b, whose moment integrand is
    periodic, its table from that integrand against U_{n-1}(cos t) on the
    nested trapezoid, checked by one Gauss-Legendre level when b's band is
    unknown; every other b takes the panels.  Built once per b.
    """

    def half(theta):
        # b(cos theta) with theta folded into (0, pi), weight folded in analytically
        if theta > mp.pi:
            theta = 2 * mp.pi - theta
        if b.weight == "sqrt_ratio":
            c, s = quadrature._cos_sin(theta)
            return b.smooth_theta(theta) * (1 + c) / s
        return b.smooth_theta(theta)

    def build():
        skew = multiply_by_chi(_lift(b, 1, half))
        skew._skew_of = b
        return skew

    return _once(b, "skew", build)


def _halfangle(b0: MomentSymbol) -> FourierSymbol:
    """d(e^{i theta}) = b0.smooth(cos(theta/2)), whatever b0's weight; built
    once per b0."""
    if b0.parity != "even" or not b0.certify_even():
        raise SpeciesError("half-angle lift needs an even smooth factor")
    # an even smooth factor of degree K in cos(theta/2) has degree K/2 in theta
    band = None if b0.band is None else (b0.band + 1) // 2

    def value(theta):
        return b0.smooth(quadrature._cos_sin(theta / 2)[0])

    return _once(b0, "halfangle", lambda: _lift(b0, 2, value, band))


def moment_to_halfangle(b0: MomentSymbol) -> FourierSymbol:
    """The even symbol d(e^{i theta}) = b0(cos(theta/2))."""
    if b0.weight != "one":
        raise SpeciesError("half-angle lift applies to the smooth factor alone")
    return _halfangle(b0)


# -- the route rule --------------------------------------------------------


def _route(sym, bits: int):
    """How sym's table is built: (transform, integrand, panels, band).

    sym is a MomentSymbol or a FourierSymbol without a closed form.  The
    transform is "cos", "sin" or "u" (trig_transform's kinds), "cospower"
    or "circle" (circle_coeffs).  panels None means the nested trapezoid,
    for an integrand that is smooth and periodic: from a grid that resolves
    band, or for band None (unknown) from the transform's own frequency,
    its sums checked by one Gauss-Legendre level.  Otherwise band is 0 and
    the panels cover (0, pi), or (0, 2pi) for "circle", split at the jumps.

    A moment symbol b runs its integrand m(t) = b(cos t) sin t against
    (2 cos t)^(n-1).  So does b's skew symbol, against U_{n-1}(cos t) as
    b(cos t) sin nt = m(t) U_{n-1}(cos t), when b is real and m periodic,
    of band b.band + 1: b uncut (its source jumps nowhere, not even at 0
    or pi) and sqrt_ratio, so that sin t cancels the weight's 1/sin t, which
    Chi * b(cos t) meets at t = 0; weight one leaves m a kink at 0 and pi.
    Every other symbol runs its real profile, or else its values; it is
    periodic when it has no jumps.
    """
    b = sym if isinstance(sym, MomentSymbol) else sym._skew_of
    periodic = b is not None and not b.cuts and b.weight == "sqrt_ratio"
    if b is sym or periodic and b.real:
        kind = "cospower" if b is sym else "u"
        f, jumps, band = b._integrand(), b.cuts, None if b.band is None else b.band + 1
    else:
        profile = sym.real_profile()
        jumps = sym.jump_points()
        periodic, band = not jumps, sym.band()
        if profile is None:
            kind, f = "circle", sym.eval_at
        else:
            kind, f = ("cos" if profile[0] == "even" else "sin"), profile[1]
    if periodic:
        return kind, f, None, band
    full = kind == "circle"
    wp = bits + quadrature.GUARD
    with mp.workprec(wp):
        points = [mp.mpf(0)]
        for p in jumps:
            a = p.approx()
            if 1e-15 < a < (2 if full else 1) * math.pi - 1e-15:
                points.append(p.to_mpf())
            elif not full and math.pi + 1e-15 < a < 2 * math.pi - 1e-15:
                # a real profile is even or odd about pi: fold the jump into (0, pi)
                points.append(2 * mp.pi - p.to_mpf())
        points = sorted([*points, 2 * mp.pi if full else mp.pi])
        tiny = mp.mpf(2) ** (-wp // 2)  # drops the panels between repeated cuts
        panels = [(lo, hi) for lo, hi in zip(points, points[1:]) if hi - lo > tiny]
    return kind, f, panels, 0


_table_lock = threading.RLock()


def _table(sym, limit: int, bits: int) -> dict:
    """sym's table for |n| <= limit (moments: 1 <= n <= limit), by _route.

    Builds take turns under one process-wide lock: mpmath keeps a single
    working precision per process, so two builds at once would change each
    other's precision, and so their bytes.
    """
    with _table_lock:
        kind, f, panels, band = _route(sym, bits)
        with mp.workprec(bits + quadrature.GUARD):
            if kind == "circle":
                return quadrature.circle_coeffs(f, panels, -limit, limit, bits, band)
            if kind == "cospower":
                raw = quadrature.cospower_transform(f, panels, limit, bits, band)
                return {n: raw[n] / mp.pi for n in range(1, limit + 1)}
            # over (0, pi): c_n = raw_n / pi, c_{-n} = c_n for cos, -c_n otherwise
            raw = quadrature.trig_transform(f, panels, limit, bits, kind, band)
            table = {0: raw[0] / mp.pi}
            for n in range(1, limit + 1):
                table[n] = raw[n] / mp.pi
                table[-n] = table[n] if kind == "cos" else -table[n]
            return table


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
        theta = j["theta"]
        if isinstance(theta, dict):
            if set(theta) != {"pi", "offset"}:
                raise ValueError("a jump angle object needs exactly 'pi' and 'offset'")
            theta = JumpPoint(_parse_value(theta["pi"]), float(theta["offset"]))
        else:
            theta = float(theta)
        jumps.append((theta, float(b) if isinstance(b, Fraction) else b))
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
