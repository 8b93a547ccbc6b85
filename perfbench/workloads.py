"""The three benchmark workloads: inputs, one pass, and the checks on it.

A workload's ``build(seed, workdir)`` makes its inputs (set-up), and
``run_pass(inputs)`` runs one pass and returns a ``PassResult``: the report
bytes the pass produced, how many checks it attempted and failed, and the
accuracy digits it reached.  A pass builds its symbols afresh, so caches kept
on symbol objects never carry over from one pass to the next; only caches the
package keeps across calls do.

* ``verify_hp``: the acceptance-2 set at nmax 10 and 256 bits, through the
  Python API (one moment symbol, exp(0.6x^2 - 0.3), has no JSON form).
* ``study_jump``: ``sdet study --kind prop52_ratio`` on a trivial descriptor
  (a pure JumpT(-1/2)) at N = 16,32,64,128 and 256 bits, via ``sdet.cli.run``.
* ``verify_exact``: ``sdet verify --identity all --mode exact --nmax 12`` via
  ``sdet.cli.run`` on 60 rational coeffs configs generated from the seed.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import traceback
from fractions import Fraction

import mpmath as mp

# calls go through module attributes, so a tracer that rebinds them sees them
from sdet import cli, identities, symbols
from sdet.identities import IdentityKind
from sdet.symbols import CoeffSeq, FHDescriptor, FHProduct, MomentSymbol

# digits that 256 bits carry; exact zero residuals read as this cap
DIGITS_CAP = 77

HP_BITS = 256
HP_NMAX = 10
HP_TOL = Fraction(1, 10**20)

# G(1/2) G(3/2) to 30 digits, as the README prints it
PAIR_PRODUCT = Fraction("0.645002448509577108737289563578")
LIMIT_TOL = Fraction(1, 100)

EXACT_NMAX = 12
EXACT_CONFIGS = 20  # of each of the three families
EXACT_KINDS = frozenset(
    {"hankel_congruence", "skew_square", "quarter_wave", "parity_split_even", "cseq_square"}
)


class PassResult:
    __slots__ = ("digest", "attempted", "failed", "digits", "kinds")

    def __init__(self, digest, attempted, failed, digits, kinds=()):
        self.digest = digest
        self.attempted = attempted
        self.failed = failed
        self.digits = digits
        self.kinds = frozenset(kinds)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _digits(rel) -> float:
    """-log10 of a relative residual or gap, capped at DIGITS_CAP."""
    rel = abs(Fraction(rel))
    if rel == 0 or float(rel) == 0.0:
        return float(DIGITS_CAP)
    return min(float(DIGITS_CAP), -math.log10(rel))


def _warn(message):
    print("perfbench: %s" % message, file=sys.stderr)


def _cli(argv):
    """sdet.cli.run with its standard output captured: (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def _json_body(text, opener):
    """The JSON report that follows the 'check ...' lines of a command."""
    start = text.index("\n" + opener) + 1 if not text.startswith(opener) else 0
    return json.loads(text[start:])


def _check_reports(reports, tol):
    """(failed checks, min digits, kinds passed) over identity report dicts.

    A non-skipped report must pass, and each record's relative residual
    must be below tol (literally 0 when tol is 0).
    """
    failed = 0
    digits = float(DIGITS_CAP)
    kinds = set()
    for rep in reports:
        if rep["verdict"] == "skipped":
            continue
        bad = rep["verdict"] != "pass" or not rep["records"]
        for rec in rep["records"]:
            rel = abs(Fraction(rec["rel_resid"]))
            digits = min(digits, _digits(rel))
            if tol == 0:
                bad = bad or Fraction(rec["abs_resid"]) != 0
            bad = bad or not rec["ok"] or rel >= tol > 0
        if bad:
            failed += 1
            _warn("%s failed: %s" % (rep["kind"], "; ".join(rep["notes"])))
        else:
            kinds.add(rep["kind"])
    return failed, digits, kinds


# -- verify_hp ---------------------------------------------------------------


class VerifyHP:
    name = "verify_hp"

    def build(self, seed, workdir):
        return None  # fixed inputs: the acceptance-2 set

    @staticmethod
    def _cases():
        exp_cos = FHProduct(FHDescriptor({1: 0.15, -1: 0.15}))
        cos_sym = CoeffSeq({-1: Fraction(1, 2), 0: 1, 1: Fraction(1, 2)}, symmetry="even")
        exp_profile = MomentSymbol(
            lambda x: mp.exp((mp.mpf(3) / 5) * x * x - mp.mpf(3) / 10),
            weight="sqrt_ratio",
            parity="even",
        )
        poly_profile = MomentSymbol.from_poly({2: 2}, weight="sqrt_ratio")
        hp = {"mode": "hp", "bits": HP_BITS}
        verify, image = identities.verify, symbols.th_to_moment_symbol
        return [
            lambda: verify(IdentityKind.THvsMoment, exp_cos, HP_NMAX, **hp),
            lambda: verify(IdentityKind.THvsMoment, cos_sym, HP_NMAX, **hp),
            lambda: verify(IdentityKind.MomentSkewSquare, image(exp_cos), HP_NMAX, **hp),
            lambda: verify(IdentityKind.MomentSkewSquare, image(cos_sym), HP_NMAX, **hp),
            lambda: verify(IdentityKind.MomentToToeplitz, exp_profile, HP_NMAX, **hp),
            lambda: verify(IdentityKind.MomentToToeplitz, poly_profile, HP_NMAX, **hp),
            lambda: identities.pfaffian_link(image(exp_cos), HP_NMAX, bits=HP_BITS),
            lambda: identities.pfaffian_link(image(cos_sym), HP_NMAX, bits=HP_BITS),
        ]

    def run_pass(self, inputs):
        cases = self._cases()
        reports = []
        raised = 0
        for case in cases:
            try:
                reports.append(case().to_json())
            except Exception:
                raised += 1
                _warn("verify_hp case raised:\n" + traceback.format_exc())
        failed, digits, kinds = _check_reports(reports, HP_TOL)
        text = json.dumps(reports, indent=2)
        return PassResult(_sha(text), len(cases), failed + raised, digits, kinds)


# -- study_jump --------------------------------------------------------------


class StudyJump:
    name = "study_jump"

    ARGS = ("--kind", "prop52_ratio", "--N", "16,32,64,128", "--bits", "256")

    def build(self, seed, workdir):
        path = os.path.join(workdir, "jump.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"kind": "fh", "log_smooth": [], "jumps": []}, fh)
        return path

    def run_pass(self, desc_path):
        try:
            code, text = _cli(["study", "--desc", desc_path, *self.ARGS])
            report = _json_body(text, "{")
            gap = abs(Fraction(report["extrapolated_limit"]) - PAIR_PRODUCT) / PAIR_PRODUCT
        except Exception:
            _warn("study_jump raised:\n" + traceback.format_exc())
            return PassResult(None, 1, 1, 0.0)
        ok = code == 0 and report["verdict"] == "pass" and gap < LIMIT_TOL
        if not ok:
            _warn("study_jump failed: exit %d, verdict %s, gap %s" % (code, report["verdict"], float(gap)))
        return PassResult(_sha(text), 1, 0 if ok else 1, _digits(gap))


# -- verify_exact ------------------------------------------------------------


def exact_configs(seed):
    """60 rational coeffs configs: even (support 0..6), odd (support 1..6),
    and even with even indices only (0, 2, 4, 6), 20 of each."""
    rng = random.Random(seed)

    def frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    def config(symmetry, indices):
        entries = [[n, str(frac()), 0] for n in indices]
        return {"kind": "coeffs", "symmetry": symmetry, "entries": entries}

    families = (("even", range(0, 7)), ("odd", range(1, 7)), ("even", range(0, 7, 2)))
    return [config(sym, idx) for sym, idx in families for _ in range(EXACT_CONFIGS)]


class VerifyExact:
    name = "verify_exact"

    def build(self, seed, workdir):
        paths = []
        for i, cfg in enumerate(exact_configs(seed)):
            path = os.path.join(workdir, "exact-%02d.json" % i)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            paths.append(path)
        return paths

    def run_pass(self, paths):
        digest = hashlib.sha256()
        failed = 0
        digits = float(DIGITS_CAP)
        kinds = set()
        for path in paths:
            argv = ["verify", "--identity", "all", "--mode", "exact", "--nmax", str(EXACT_NMAX), "--symbol", path]
            try:
                code, text = _cli(argv)
                bad, d, hit = _check_reports(_json_body(text, "["), 0)
            except Exception:
                _warn("verify_exact raised on %s:\n%s" % (path, traceback.format_exc()))
                failed += 1
                continue
            digest.update(text.encode())
            if code != 0 or bad:
                failed += 1
            digits = min(digits, d)
            kinds |= hit
        missing = EXACT_KINDS - kinds
        if missing:
            _warn("verify_exact did not hit %s" % ", ".join(sorted(missing)))
        # one check per config, plus the kinds-hit check
        return PassResult(digest.hexdigest(), len(paths) + 1, failed + bool(missing), digits, kinds)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


WORKLOADS = {w.name: w for w in (VerifyHP(), StudyJump(), VerifyExact())}
