"""Golden report bytes: reports are deterministic and byte-identical for the
same inputs, so a change that moves a digit of one shows here.

A change that means to move report bytes updates a hash here and says
why; any other change leaves them alone.
"""

import contextlib
import hashlib
import io
import json
import math
from fractions import Fraction

import pytest

from sdet import cli, identities
from sdet.asymptotics import study
from sdet.symbols import FHDescriptor, FHProduct, MomentSymbol, SpeciesError, th_to_moment_symbol

STUDY_JUMP_SHA = "5333bc394e871e3dafd8637df7da95a2a44e2fa4ac5f4e27fc2c5e259e412421"
VERIFY_HP_SHA = "bc9ff3276e3b7dda56639e2a48fc9bf6619504eb35c01e6f92a3d14d65ce9e0b"
EXACT_SHA = "2a70ee529971053b49345d45f8948208dd82763e315d8b1f0cfa2c0e516b5f24"


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_half_jump_study_stdout(tmp_path):
    # the prop52_ratio study on a pure JumpT(-1/2): Levinson at 256 and 512 bits
    desc = tmp_path / "jump.json"
    desc.write_text(json.dumps({"kind": "fh", "log_smooth": [], "jumps": []}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["study", "--desc", str(desc), "--kind", "prop52_ratio", "--N", "16,32,64,128", "--bits", "256"])
    assert code == 0
    assert sha(out.getvalue()) == STUDY_JUMP_SHA


def test_hp_identity_reports():
    a = FHProduct(FHDescriptor({1: 0.15, -1: 0.15}))
    reports = identities.verify_all(a, 10, mode="hp", bits=256)
    reports.append(identities.pfaffian_link(th_to_moment_symbol(a), 10, bits=256))
    assert [r.verdict for r in reports].count("pass") == 4
    assert sha(json.dumps([r.to_json() for r in reports], indent=2)) == VERIFY_HP_SHA


# one rational config of each family of the exact benchmark: even with support
# 0..6, odd with support 1..6, and even indices only.  Symmetric passes meet
# zero pivots: the odd one's moment Hankel matrix has b_1 = 0, and in the last
# one T+H_12 and H[b]_12 have a zero minor at order 2, and T_24 at orders 3..5.
EXACT_CONFIGS = [
    ("even", [[0, "-4/5"], [1, "6"], [2, "-2"], [3, "1/4"], [4, "1/6"], [5, "0"], [6, "-5/4"]]),
    ("odd", [[1, "0"], [2, "-4/3"], [3, "-1"], [4, "3/4"], [5, "-1"], [6, "1"]]),
    ("even", [[0, "1"], [2, "1"], [4, "-2"], [6, "-4/5"]]),
]


def test_exact_verify_stdout(tmp_path):
    out = io.StringIO()
    for i, (symmetry, entries) in enumerate(EXACT_CONFIGS):
        path = tmp_path / ("exact-%d.json" % i)
        config = {"kind": "coeffs", "symmetry": symmetry, "entries": [[n, v, 0] for n, v in entries]}
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(out):
            code = cli.run(["verify", "--identity", "all", "--mode", "exact", "--nmax", "12", "--symbol", str(path)])
        assert code == 0
    assert sha(out.getvalue()) == EXACT_SHA


SMOOTH = FHDescriptor({1: 0.15, -1: 0.15})  # exp(0.15 (t + 1/t))
# the two-jump descriptor of test_cor54_exponent_keeps_working_precision
PAIR = FHDescriptor({1: 0.1, -1: 0.1}, jumps=[(1.0, 0.2j), (2 * math.pi - 1.0, -0.2j)])

# name: (study arguments, sha256 of to_json_text() + to_csv())
STUDY_CASES = {
    "prop52_pure_jump": (
        ("prop52_ratio", None, [8, 16, 32, 64], 192, {}),
        "f6d6b8f85bf04dae96d2ad941078e913467fd6efde61d16646a689e5b533094f",
    ),
    "prop52_smooth_plus_half": (
        ("prop52_ratio", SMOOTH, [4, 8, 12, 16], 128, {"sign": Fraction(1, 2)}),
        "c07343e6e1759609f07f8978144e29c675071eaf828d4bbeb4d6f3bb2310a11d",
    ),
    "cor53": (
        ("cor53", SMOOTH, [4, 8, 12, 16], 128, {}),
        "6b2546b22d9fddaa56acf54c0440686ba9fd7c5bee837adce9ad62f30e1bf32c",
    ),
    "conjecture_sym": (
        ("conjecture_sym", SMOOTH, [4, 8, 12, 16], 128, {}),
        "4b3b2f1a3e6f0642fd137693b6af353c9b1a1f965d6ddbda1f7fd8ff0a72683f",
    ),
    "cor54": (
        ("cor54", FHDescriptor(), [4, 8, 12, 16], 128, {}),
        "c4744bfade4e3d1eaa3f96b298227408f2dc33874c8b7f8f1860d1658ea72f30",
    ),
    "cor54_two_jumps": (
        ("cor54", PAIR, [4, 5, 6, 7], 128, {}),
        "d78c265c646ada109ea754c72c90299abb0cb9aa9c72376887f38c7d7a6f8ae9",
    ),
    "cor56": (
        ("cor56", MomentSymbol.from_poly({0: 1, 2: 1}, weight="sqrt_ratio"), [4, 8, 12, 16], 128, {}),
        "8990d75b3396be533ad8882fa911d7cb17562635d72f8cb38fba032062e47643",
    ),
    "cor56_desc": (
        (
            "cor56",
            MomentSymbol.from_poly({0: 2}, weight="sqrt_ratio"),
            [4, 8, 12, 16],
            128,
            {"desc": FHDescriptor({0: math.log(2)})},
        ),
        "e03b37ccf0fea9c20e87ef000ade66e69cc6c5c4133084437877e2b87f360476",
    ),
}


@pytest.mark.parametrize("name", STUDY_CASES)
def test_study_report_bytes(name):
    (kind, subject, Ns, bits, kwargs), want = STUDY_CASES[name]
    rep = study(kind, subject, Ns, bits=bits, **kwargs)
    assert sha(rep.to_json_text() + rep.to_csv()) == want


# name: (kind, subject, the error study raises, its message)
GATE_CASES = {
    "unknown_kind": ("prop99", None, ValueError, "unknown study kind 'prop99'"),
    "cor53_none": ("cor53", None, SpeciesError, "an FHDescriptor is required"),
    "conjecture_sym_skew": (
        "conjecture_sym", FHDescriptor({1: 0.2}), SpeciesError, "a(1/t) = a(t) is required"
    ),
    "cor56_wrong_weight": (
        "cor56",
        MomentSymbol.from_poly({0: 1}),
        SpeciesError,
        "the sqrt((1+x)/(1-x)) weight is required",
    ),
    "cor56_descriptor": ("cor56", SMOOTH, SpeciesError, "a MomentSymbol is required"),
    "cor54_moment": (
        "cor54",
        MomentSymbol.from_poly({0: 1}, weight="sqrt_ratio"),
        SpeciesError,
        "an FHDescriptor is required",
    ),
    "prop52_moment": (
        "prop52_ratio",
        MomentSymbol.from_poly({0: 1}, weight="sqrt_ratio"),
        SpeciesError,
        "an FHDescriptor is required",
    ),
    "cor54_odd": (
        "cor54", FHDescriptor({1: 0.2}), SpeciesError, "an even symbol is required for the pullback"
    ),
}


@pytest.mark.parametrize("name", GATE_CASES)
def test_study_gate_errors(name):
    kind, subject, error, message = GATE_CASES[name]
    with pytest.raises(Exception) as info:
        study(kind, subject, [4, 8, 12, 16], bits=128)
    assert (type(info.value), str(info.value)) == (error, message)
