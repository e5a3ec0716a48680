"""One renderer and one error handler for every CLI command.

Each command builds its JSON payload and its text lines and hands both to
``cli._render``, which makes the text lines only when it prints them.  So
under ``--json`` no element is formatted: these tests make ``__str__`` of
``Element``, ``CycleSum``, ``ChainSum`` and ``OddSet`` raise and run every
subcommand.  ``oracle check-divide`` is left out, since it sorts its
solutions by their text in both modes, and so is ``poly-solve`` on a
degenerate cubic, whose payload carries the solver's reason, a text that
names an element.

Bad input raises ``ValueError``, which ``cli.main`` prints as ``error: ...``
with exit 2.  One bad input per error site pins the exit code, the text,
an empty stdout and the mechanism: ``main`` returns 2, it does not raise
``SystemExit`` (argparse and the expression parser's errors do).
"""

import json

import pytest

from cyclechain import cli
from cyclechain.chains import ChainSum, Element
from cyclechain.cycles import CycleSum, OddSet


class Formatted(Exception):
    """Raised by a patched ``__str__``: not a ValueError, so main lets it out."""


def refuse(self):
    raise Formatted(type(self).__name__)


@pytest.fixture
def no_str(monkeypatch):
    for cls in (Element, CycleSum, ChainSum, OddSet):
        monkeypatch.setattr(cls, "__str__", refuse)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Every subcommand that takes --json, with answers that hold elements; the
# text of each names at least one element.
ANSWERS = [
    ["eval", "C3 + C5*C2 + L2"],
    ["divide", "C3", "C15", "--k", "45", "--n", "1", "--enumerate", "20"],
    ["divide", "L1 + C2", "L1", "--k", "1", "--enumerate", "20"],
    ["annihilators", "C3 + C5*C2"],
    ["classify", "C3 + C6 + C12"],
    ["ideal-meet", "C2", "C2"],
    ["poly-solve", "--poly", "x", "--target", "C7 + C2"],
    ["oracle", "product", "C6 + L2", "C4 + L3"],
]
PLAIN = [  # their text holds no element
    ["atoms", "45"],
    ["green", "C1", "C2", "--rel", "Rtilde"],
    ["ideal-meet", "C3 + C2", "C5 + C2"],
    ["divide", "C3 + C5", "C1"],
    ["divide", "L3 + C3", "L1 + C3", "--k", "3", "--enumerate", "20", "--max-chain", "9"],
]


@pytest.mark.parametrize("argv", ANSWERS + PLAIN, ids=" ".join)
def test_json_formats_no_element(capsys, monkeypatch, argv):
    code, out, err = run(capsys, argv + ["--json"])
    with monkeypatch.context() as patch:
        for cls in (Element, CycleSum, ChainSum, OddSet):
            patch.setattr(cls, "__str__", refuse)
        assert run(capsys, argv + ["--json"]) == (code, out, err)
    assert code in (0, 1) and err == "" and json.loads(out)


@pytest.mark.parametrize("argv", ANSWERS, ids=" ".join)
def test_text_formats_elements(capsys, no_str, argv):
    # the patch bites: the same commands print elements as text
    with pytest.raises(Formatted):
        cli.main(argv)


# One bad input per site that reports a ValueError, with the text it gives.
BAD_INPUTS = [
    (["divide", "C3", "C3", "--k", "3000000", "--enumerate", "1"],
     "error: --k must be between 1 and 10^6\n"),
    (["divide", "C3", "C15", "--k", "6", "--enumerate", "2", "--json"],
     "error: odd k required, got 6\n"),
    (["divide", "C3+L1", "C15+L1", "--k", "6", "--enumerate", "2"],
     "error: odd k required, got 6\n"),
    (["atoms", "6", "--json"], "error: k must be odd, positive and at most 10^6\n"),
    (["poly-solve", "--poly", "x +", "--target", "C3", "--json"],
     "error: expected an atom or '(', found 'end' (at offset 3)\n"),
    (["poly-solve", "--poly", "L2*x", "--target", "C3"],
     "error: polynomial coefficients must be cycle sums\n"),
    (["oracle", "product", "C2001", "C2001", "--json"],
     "error: product of 4004001 vertices exceeds the limit of 4000000\n"),
    (["oracle", "check-divide", "C3", "C3", "--k", "999999999", "--n", "1"],
     "error: search space of 2**40 candidates is too large\n"),
    (["oracle", "check-divide", "C3", "C3", "--k", "4", "--json"],
     "error: odd k required, got 4\n"),
    (["oracle", "check-divide", "C3", "C3", "--n", "-1"], "error: window bounds must be >= 0\n"),
]


@pytest.mark.parametrize("argv, text", BAD_INPUTS, ids=[" ".join(a) for a, _ in BAD_INPUTS])
def test_bad_input_returns_2(capsys, argv, text):
    assert run(capsys, argv) == (2, "", text)


def test_an_unknown_relation_returns_2(capsys, monkeypatch):
    # argparse refuses it first; with its choices lifted, green refuses it
    green = cli.build_parser()._subparsers._group_actions[0].choices["green"]
    rel = next(action for action in green._actions if action.dest == "rel")
    monkeypatch.setattr(rel, "choices", None)
    assert run(capsys, ["green", "C1", "C2", "--rel", "bogus"]) == (
        2, "", "error: unknown relation 'bogus'; expected one of ('R', 'Rstar', 'Rtilde')\n"
    )


def test_parse_errors_still_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["divide", "C0", "C3", "--k", "3000000"])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "error: C0 is not a valid atom (at offset 0)\n")


def test_selftest_takes_no_json(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest", "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err
