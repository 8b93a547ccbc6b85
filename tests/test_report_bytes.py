"""Golden report bytes: reports are deterministic and byte-identical for the
same inputs, so a change that moves a digit of one shows here.

A change that means to move report bytes updates a hash here and says
why; any other change leaves them alone.
"""

import contextlib
import hashlib
import io
import json

from sdet import cli, identities
from sdet.symbols import FHDescriptor, FHProduct, th_to_moment_symbol

STUDY_JUMP_SHA = "5333bc394e871e3dafd8637df7da95a2a44e2fa4ac5f4e27fc2c5e259e412421"
VERIFY_HP_SHA = "0b8ef36bd4b2821a93af53dfd0d24855e81536f2eb945d3f6b1e4f1f3585e066"


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
