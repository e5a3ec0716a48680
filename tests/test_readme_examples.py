"""Every CLI example in the README, run through ``cli.main`` against goldens.

The examples are the ``cyclechain ...`` lines of the README's shell blocks:
the trailing ``# comment`` is dropped, and so is an optional group written
``[--flag VALUE]``.  Each runs as written and, except ``selftest``, once
more with ``--json``.  Its stdout and exit code must match
``readme_goldens.json``.  To record the goldens again from the current
tree, run ``PYTHONPATH=src python tests/test_readme_examples.py``.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from cyclechain import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "readme_goldens.json"


def readme_examples() -> list[str]:
    """The README's example command lines, without the program name."""
    out = []
    for line in (ROOT / "README.md").read_text().splitlines():
        if not line.startswith("cyclechain "):
            continue
        words = shlex.split(re.sub(r"\[[^\]]*\]", "", line), comments=True)[1:]
        variants = [words] if words[0] == "selftest" else [words, words + ["--json"]]
        out.extend(shlex.join(v) for v in variants)
    return list(dict.fromkeys(out))


def run(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(shlex.split(command))
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue()}


def test_every_example_has_a_golden():
    assert set(readme_examples()) == set(json.loads(GOLDENS.read_text()))


@pytest.mark.parametrize("command", readme_examples())
def test_example_matches_golden(command):
    assert run(command) == json.loads(GOLDENS.read_text())[command]


if __name__ == "__main__":
    goldens = {command: run(command) for command in readme_examples()}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
