"""The CLI exit-code contract under random argument vectors.

``cli.main`` runs in-process on argument vectors drawn from the commands'
own vocabulary: well-formed expressions over small cycles and chains,
polynomials in x over them, strings of random tokens, small numbers, and flags in any order, valid or
not.  Whatever the input, the command returns 0, 1 or 2, or argparse exits
with 0 (``--help``) or 2; no other exception escapes and nothing prints a
traceback.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cyclechain import cli

term = st.builds("{}{}".format, st.sampled_from("CL"), st.integers(1, 30))
factor = st.one_of(term, st.lists(term, min_size=1, max_size=3).map(lambda ts: f"({' + '.join(ts)})"))
power = st.builds("{}{}".format, factor, st.sampled_from(["", "", "^0", "^2", "^3"]))
well_formed = st.lists(st.lists(power, min_size=1, max_size=2).map("*".join),
                       min_size=1, max_size=3).map(" + ".join)
TOKENS = ["C1", "C3", "C6", "C0", "C", "L2", "L", "0", "1", "x", "+", "*", "^", "^2", "(", ")",
          " ", "-", "C-1", "2**", "C99999999999"]
noise = st.lists(st.sampled_from(TOKENS), max_size=8).map("".join)
monomial = st.builds("{}*x{}".format, factor, st.sampled_from(["", "^2", "^3", "^5"]))
polys = st.one_of(st.lists(st.one_of(monomial, term), min_size=1, max_size=4).map(" + ".join),
                  noise)
numbers = st.sampled_from(["-1", "0", "1", "2", "3", "5", "9", "15", "45", "x"])
# window bounds stay small: an oracle window of 2**15 candidates, all of
# them solutions of 0 * x = 0, takes seconds to list
bounds = st.sampled_from(["-1", "0", "1", "2", "x"])
STRAYS = [["--help"], ["--bogus"], ["--rel", "R"], ["--json", "--json"], ["7"], ["C3"], ["--k"]]

VALUED = {
    "divide": [("--k", numbers), ("--n", numbers), ("--max-chain", numbers),
               ("--enumerate", numbers)],
    "check-divide": [("--k", numbers), ("--n", bounds), ("--max-chain", bounds)],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["eval", "divide", "atoms", "classify", "green", "check-divide",
                                    "ideal-meet", "poly-solve"]))

    def expr():
        return draw(noise if draw(st.integers(0, 4)) == 0 else well_formed)

    if command == "atoms":
        head = ["atoms", draw(st.one_of(numbers, st.sampled_from(["15", "105", "3465"])))]
    elif command == "check-divide":
        head = ["oracle", "check-divide", expr(), expr()]
    elif command in ("divide", "ideal-meet"):
        head = [command, expr(), expr()]
    elif command == "green":
        head = ["green", expr(), expr(), "--rel", draw(st.sampled_from(["R", "Rstar", "Rtilde"]))]
    elif command == "poly-solve":
        head = ["poly-solve", "--poly", draw(polys), "--target", expr()]
    else:
        head = [command, expr()]
    tail = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 9))
        if kind < 6 and command in VALUED:
            flag, values = draw(st.sampled_from(VALUED[command]))
            tail += [flag, draw(values)]
        elif kind < 8:
            tail.append("--json")
        else:
            tail += draw(st.sampled_from(STRAYS))
    return head + tail


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_exit_codes_hold_for_random_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), (argv, exc.code)
        else:
            assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
