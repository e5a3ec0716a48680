"""The parser against the tree parser it replaced (``parser_reference``).

A seeded corpus of valid expressions, each also mutated into malformed
ones, is parsed in element and polynomial mode by both.  Each text must
give the same ``repr`` of the value, or the same exception type and
message.  Digit runs are ASCII and short here: the new tokenizer refuses
other digits, and long runs without reaching ``int()``, where the old one
read them or failed in ``int()`` (``test_parser_cli.TestTokenizer``).
"""

import random

import pytest

import parser_reference as ref
from cyclechain.parser import MAX_DEPTH, parse_element, parse_poly

MUTATIONS = "CLx0123456789+*^() @\t"
EDGES = [
    "", " ", "(", ")", "()", "+", "C", "L", "x", "0", "1", "2", "C0", "L0", "C1000000", "C1000001",
    "1000001", "C2^0", "C2^", "C2^x", "C2 C3", "C2 +", "(C2", "C2)", "L2*x", "(L2*x", "L2 + C3 @",
    "x^4", "x^5 + x^3", "(x + C3)^200001", "C3^1000000", "(C3 + C2 + L2)^999999",
    "(" * MAX_DEPTH + "C3" + ")" * MAX_DEPTH,
    "(" * (MAX_DEPTH + 1) + "C3" + ")" * (MAX_DEPTH + 1),
    "C1" + "^2" * MAX_DEPTH, "C1" + "^2" * (MAX_DEPTH + 1),
    "(" * (MAX_DEPTH - 1) + "C1" + "^2" + ")" * (MAX_DEPTH - 1),
    "(" * (MAX_DEPTH - 1) + "C1" + "^2^2" + ")" * (MAX_DEPTH - 1),
    "C" + "0" * 20 + "7", "0" * 30, "0" * 30 + "1", "9" * 40, "L" + "9" * 40,
]


def atom(rng, poly):
    r = rng.random()
    if r < 0.45:
        return f"C{rng.choice([1, 2, 3, 4, 5, 6, 9, 10, 12, 15, 30, 999983, 1000000])}"
    if r < (0.5 if poly else 0.7):
        return f"L{rng.randint(1, 9)}"
    if r < 0.8 and poly:
        return "x"
    return rng.choice(["0", "1"])


def expression(rng, poly, depth=3):
    r = rng.random()
    if depth == 0 or r < 0.3:
        text = atom(rng, poly)
    elif r < 0.55:
        text = " + ".join(expression(rng, poly, depth - 1) for _ in range(rng.randint(2, 3)))
    elif r < 0.8:
        text = "*".join(expression(rng, poly, depth - 1) for _ in range(rng.randint(2, 3)))
    else:
        text = f"({expression(rng, poly, depth - 1)})"
    if rng.random() < 0.2:
        text = f"({text})^{rng.choice([1, 2, 3, 4, 5, 7, 1000000])}"
    return text


def mutated(rng, text):
    i = rng.randint(0, len(text))
    r = rng.random()
    if r < 0.4:
        return text[:i] + rng.choice(MUTATIONS) + text[i:]
    if r < 0.7:
        return text[:i] + text[i + 1:]
    return text[:i] + rng.choice(MUTATIONS) + text[i + 1:]


def corpus(seed, poly, n):
    rng = random.Random(seed)
    texts = list(EDGES)
    for _ in range(n):
        text = expression(rng, poly)
        texts.append(text)
        texts.append(mutated(rng, text))
    return texts


def outcome(parse, text):
    try:
        return repr(parse(text))
    except Exception as exc:  # the reference decides which types are expected
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize(
    "new, old, poly",
    [(parse_element, ref.parse_element, False), (parse_poly, ref.parse_poly, True)],
    ids=["element", "poly"],
)
@pytest.mark.parametrize("seed", [1, 2])
def test_same_values_and_errors_as_the_tree_parser(new, old, poly, seed):
    texts = corpus(seed, poly, 400)
    assert [outcome(new, t) for t in texts] == [outcome(old, t) for t in texts]


def test_the_corpus_reaches_every_outcome():
    outcomes = [outcome(parse_poly, t) for t in corpus(1, True, 400)]
    outcomes += [outcome(parse_element, t) for t in corpus(1, False, 400)]
    errors = [o[1] for o in outcomes if not isinstance(o, str)]
    assert len(errors) < len(outcomes) // 2
    for message in ["expected a", "expected '", "unexpected", "bare", "C0", "L0", "length", "integer",
                    "exponent", "expression", "polynomial"]:
        assert any(e.startswith(message) for e in errors), message
