"""At most one comprehension and one lambda per source line in ``src/``.

A profiler keys a function by (file, first line, name), and each
comprehension or lambda is a function of its own, named ``<listcomp>``,
``<genexpr>``, ``<lambda>`` and so on.  Two on one line can share a key,
and a profile then keeps the call count of only one of them, chosen by
memory address.  The per-module call counts of the benchmark's traced runs
would then differ between two runs of the same queries.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def crowded_lines(source: str) -> list[tuple[int, str]]:
    """(line, kind) for each line holding two comprehensions or two lambdas."""
    counts = Counter()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, COMPREHENSIONS):
            counts[node.lineno, "comprehensions"] += 1
        elif isinstance(node, ast.Lambda):
            counts[node.lineno, "lambdas"] += 1
    return sorted(key for key, n in counts.items() if n > 1)


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_one_comprehension_and_one_lambda_per_line(path):
    assert crowded_lines(path.read_text()) == []


def test_the_rule_sees_nesting_and_neighbours():
    assert crowded_lines("x = [[e for e in p] for p in q]\n") == [(1, "comprehensions")]
    assert crowded_lines("x = {i: [e for e in p] for i, p in q}\n") == [(1, "comprehensions")]
    assert crowded_lines("f = [lambda: 1] + [lambda: 2]\n") == [(1, "lambdas")]
    assert crowded_lines("x = [\n    [e for e in p] for p in q\n]\n") == []
    assert crowded_lines("f = lambda: (e for e in p)\n") == []
