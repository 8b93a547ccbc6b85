"""The README's examples, run as written and compared with the text they show.

Each ```sh block with "$ " prompts is replayed in order: "$ cat NAME" lines
are followed by the file's content, which is written out; "$ sdet ARGS" lines
are followed by the output the command prints before its JSON report.  A
```json block shows part of the preceding command's report.  The ```python
block runs as is.
"""

import json
import re
import shlex
from pathlib import Path

from sdet import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"```(\w+)\n(.*?)```", README, re.S)


def _steps(block: str):
    """(prompt, lines after it) for each "$ " prompt of a shell block."""
    steps = []
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        elif steps:
            steps[-1][1].append(line)
    return steps


def _split_report(out: str):
    """(text lines, parsed report or None) of one command's stdout."""
    lines = out.splitlines()
    for k, line in enumerate(lines):
        if line.startswith(("{", "[")):
            return lines[:k], json.loads("\n".join(lines[k:]))
    return lines, None


def test_command_line_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SDET_DEFAULT_BITS", raising=False)
    report = None
    ran, shown = [], 0
    for kind, block in BLOCKS:
        if kind == "json":
            part = json.loads(block)
            assert {k: report[k] for k in part} == part
            shown += 1
        if kind != "sh":
            continue
        for prompt, lines in _steps(block):
            argv = shlex.split(prompt)
            if argv[0] == "cat":
                (tmp_path / argv[1]).write_text("\n".join(lines) + "\n", encoding="utf-8")
                continue
            assert argv[0] == "sdet", prompt
            assert cli.run(argv[1:]) == 0, prompt
            text, report = _split_report(capsys.readouterr().out)
            assert text == [ln for ln in lines if ln], prompt
            ran.append(argv[1])
    assert ran == ["verify", "study", "transform"] and shown == 1


def test_python_api_example():
    (code,) = [b for kind, b in BLOCKS if kind == "python"]
    exec(compile(code, "README.md", "exec"), {})
