"""Batch front end: verify identity suites, run studies, apply transforms.

Exit codes: 0 all checks passed (or informational), 1 a check failed,
2 usage or config error, 3 a precision target could not be met.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import asymptotics, identities, symbols, transforms
from .determinants import PrecisionError
from .quadrature import AccuracyError
from .scalars import format_scalar
from .symbols import SpeciesError


class UsageError(Exception):
    pass


def _bits(args) -> int:
    """--bits if given (0 included), else SDET_DEFAULT_BITS, else 256; at least 64."""
    name, bits = "bits", args.bits
    if bits is None:
        name, raw = "SDET_DEFAULT_BITS", os.environ.get("SDET_DEFAULT_BITS")
        try:
            bits = int(raw) if raw else 256
        except ValueError:
            raise UsageError("SDET_DEFAULT_BITS must be an integer, got %r" % (raw,))
    if bits < 64:
        raise UsageError("%s must be >= 64" % name)
    return bits


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc.strerror or exc))
    except json.JSONDecodeError as exc:
        raise UsageError("malformed JSON in %s: %s" % (path, exc))


def _parse_n_list(text: str) -> list:
    # accepts "8,16,32" and "4..12"
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            values = list(range(lo, hi + 1))
        else:
            values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise UsageError("bad N list %r (use 8,16,32 or 4..12)" % (text,))
    if not values or any(n < 1 for n in values):
        raise UsageError("N values must be >= 1")
    return values


def _parse_sign(text: str) -> Fraction:
    try:
        s = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError("bad sign %r (use -1/2 or +1/2)" % (text,))
    if s not in (Fraction(1, 2), Fraction(-1, 2)):
        raise UsageError("sign must be -1/2 or +1/2")
    return s


def _load_subject(path: str):
    """Symbol or moment JSON -> the corresponding object."""
    obj = _load_json(path)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise UsageError("%s: config needs a 'kind' field" % (path,))
    try:
        if obj["kind"] == "moment":
            return symbols.moment_from_json(obj)
        return symbols.symbol_from_json(obj)
    except (ValueError, TypeError) as exc:
        raise UsageError("%s: %s" % (path, exc))


def _write_or_print(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands ------------------------------------------------------------


def _cmd_verify(args) -> int:
    bits = _bits(args)
    if args.nmax < 1:
        raise UsageError("--nmax must be >= 1")
    subject = _load_subject(args.symbol)

    if args.identity == "all":
        reports = identities.verify_all(subject, args.nmax, args.mode, bits)
    else:
        try:
            kind = identities.IdentityKind(args.identity)
        except ValueError:
            raise UsageError(
                "unknown identity %r (choose from %s or all)"
                % (args.identity, ", ".join(k.value for k in identities.IdentityKind))
            )
        try:
            reports = [identities.verify(kind, subject, args.nmax, args.mode, bits)]
        except SpeciesError as exc:
            raise UsageError("%s: %s" % (args.symbol, exc))

    code = 0
    for rep in reports:
        worst = "0"
        resids = [r.rel_resid for r in rep.records]
        if resids:
            worst = format_scalar(max(resids, key=abs), 8)
        print(
            "check identity=%s mode=%s nmax=%d verdict=%s worst_rel=%s"
            % (rep.kind, rep.mode, args.nmax, rep.verdict, worst)
        )
        if rep.verdict == "fail":
            code = max(code, 1)
        elif rep.verdict == "error":
            notes = " ".join(rep.notes)
            code = max(
                code, 3 if ("PrecisionError" in notes or "AccuracyError" in notes) else 1
            )
    body = [rep.to_json() for rep in reports]
    if args.format == "csv":
        text = identities.reports_to_csv(reports)
    else:
        text = json.dumps(body, indent=2) + "\n"
    _write_or_print(text, args.out)
    return code


def _cmd_study(args) -> int:
    bits = _bits(args)
    Ns = _parse_n_list(args.N)
    obj = _load_json(args.desc)
    if not isinstance(obj, dict):
        raise UsageError("%s: config must be a JSON object" % (args.desc,))
    moment = asymptotics._STUDIES[args.kind].subject is symbols.MomentSymbol
    try:
        subject = symbols.moment_from_json(obj) if moment else symbols.descriptor_from_json(obj)
    except (ValueError, TypeError) as exc:
        raise UsageError("%s: %s" % (args.desc, exc))
    try:
        report = asymptotics.study(
            args.kind, subject, Ns, bits=bits, sign=_parse_sign(args.sign)
        )
    except SpeciesError as exc:
        raise UsageError("%s: %s" % (args.desc, exc))
    except ValueError as exc:
        raise UsageError(str(exc))
    flags = (" flags=" + ",".join(report.flags)) if report.flags else ""
    print(
        "check study=%s bits=%d verdict=%s extrapolated=%s%s"
        % (report.kind, bits, report.verdict, report.extrapolated_limit, flags)
    )
    text = report.to_csv() if args.format == "csv" else report.to_json_text()
    _write_or_print(text, args.out)
    return 1 if report.verdict == "fail" else 0


_TRANSFORM_OPS = {
    "a_to_b": transforms.a_to_b,
    "a_to_c": transforms.a_to_c,
    "c_to_b": transforms.c_to_b,
    "recover_even_from_c": transforms.recover_even_from_c,
}


def _cmd_transform(args) -> int:
    if args.nmax < 1:
        raise UsageError("--nmax must be >= 1")
    fn = _TRANSFORM_OPS[args.op]
    obj = _load_json(args.seq)
    try:
        sym = symbols.symbol_from_json(obj)
    except (ValueError, TypeError) as exc:
        raise UsageError("%s: %s" % (args.seq, exc))
    if not isinstance(sym, symbols.CoeffSeq):
        raise UsageError("%s: transform input must be a coeffs config" % (args.seq,))
    try:
        out = fn(sym, args.nmax)
    except ValueError as exc:
        raise UsageError("%s: %s" % (args.seq, exc))
    if out.symmetry == "even":
        values = [out[n] for n in range(0, args.nmax + 1)]
    else:
        values = out.values(args.nmax)
    print(",".join(format_scalar(v) for v in values))
    return 0


def _cmd_dump(args) -> int:
    if args.nmax < 1:
        raise UsageError("--nmax must be >= 1")
    bits = _bits(args)
    # the tables promise 2^-(bits-16) relative accuracy; print no digit beyond it
    digits = min(30, int((bits - 16) * 0.30103))
    subject = _load_subject(args.symbol)
    if isinstance(subject, symbols.MomentSymbol):
        table = subject.moment_table(args.nmax, bits)
        rows = [[n, format_scalar(table[n], digits)] for n in range(1, args.nmax + 1)]
        text = json.dumps({"moments": rows}, indent=2) + "\n"
    else:
        if isinstance(subject, symbols.CoeffSeq) and subject.is_exact:
            # exact entries print exactly, never as decimal approximations
            table = subject.closed_table(range(-args.nmax, args.nmax + 1))
        else:
            table = subject.coeff_table(-args.nmax, args.nmax, bits)
        rows = [
            [n, format_scalar(table[n], digits)] for n in range(-args.nmax, args.nmax + 1)
        ]
        text = json.dumps({"coeffs": rows}, indent=2) + "\n"
    _write_or_print(text, args.out)
    return 0


@functools.cache  # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sdet",
        description="Structured-determinant identity checks and growth studies.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run identity checks against a symbol")
    v.add_argument("--identity", required=True, help="identity name or 'all'")
    v.add_argument("--symbol", required=True, help="symbol or moment JSON path")
    v.add_argument("--nmax", type=int, required=True, help="largest matrix order")
    v.add_argument("--mode", choices=("exact", "hp"), default="exact")
    v.add_argument("--bits", type=int, default=None)
    v.add_argument("--out", default=None, help="report path (stdout if omitted)")
    v.add_argument("--format", choices=("json", "csv"), default="json")

    s = sub.add_parser("study", help="run a determinant growth study")
    s.add_argument("--kind", required=True, choices=asymptotics.STUDY_KINDS)
    s.add_argument(
        "--desc",
        required=True,
        help="descriptor JSON path, or moment JSON for a moment-symbol kind, judged"
        " against the trivial descriptor's growth (F = 1, Omega = 0)",
    )
    s.add_argument("--N", required=True, help="sizes, e.g. 8,16,32,64 or 4..12")
    s.add_argument("--bits", type=int, default=None)
    s.add_argument("--sign", default="-1/2", help="added half-jump sign (half-jump ratio only)")
    s.add_argument("--out", default=None)
    s.add_argument("--format", choices=("json", "csv"), default="json")

    t = sub.add_parser("transform", help="apply a sequence transform")
    t.add_argument("--op", required=True, choices=sorted(_TRANSFORM_OPS))
    t.add_argument("--seq", required=True, help="coeffs JSON path")
    t.add_argument("--nmax", type=int, required=True)

    d = sub.add_parser("dump", help="print coefficients or moments of a config")
    d.add_argument("--symbol", required=True)
    d.add_argument("--nmax", type=int, required=True)
    d.add_argument("--bits", type=int, default=None)
    d.add_argument("--out", default=None)

    return p


_DISPATCH = {
    "verify": _cmd_verify,
    "study": _cmd_study,
    "transform": _cmd_transform,
    "dump": _cmd_dump,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (PrecisionError, AccuracyError) as exc:
        print("precision failure: %s" % exc, file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))
