"""Rules on the source of ``src/``, checked on its syntax tree.

At most one comprehension and one lambda per source line.  A profiler
keys a function by (file, first line, name), and each comprehension or
lambda is a function of its own, named ``<listcomp>``, ``<genexpr>``,
``<lambda>`` and so on.  Two on one line can share a key, and a profile
then keeps the call count of only one of them, chosen by memory address.
The per-module call counts of the benchmark's traced runs would then
differ between two runs of the same queries.

The solvers of ``division``, ``structure`` and ``poly`` choose their
coordinates in one place: only ``division.layout`` calls ``kept_bits``
and ``coprime_bits``.  A second call site would be a second policy on
when a layout is worth building.

No solver factors k.  A solver layout is built over a coprime base found
by gcds; only a window, which lists every divisor of k, needs the primes.
So in ``lattice`` only ``_window_layout``, the builder behind
``window_bits``, calls ``_prime_factors``, and in
``division``, ``structure``, ``poly`` and ``chains`` only the window
enumerators call ``window_bits``, ``divisors`` or ``divisor_count``.

The chain solvers convert each operand to Z-coordinates in one place:
only the entry points ``divide_chains`` and ``divide_full``, and
``ChainDivision`` for the chain sum it is asked about, call
``to_orthogonal``.  The branch and interval code below them runs on the
masks it is given, so no call converts an operand again.

No code that runs at import subscripts a ``typing`` form, as in
``Coords = Union[A, B]``.  ``typing`` caches every such form for good, and
through its classes the cache would keep each module of that import alive
after the package is dropped and imported again.  Annotations do not run
in a module that imports ``annotations`` from ``__future__``.

Every module-level definition of ``src/`` is reached from outside the
tests: another part of the package uses it, ``bench/`` names it, it is the
``cyclechain`` script or it is in ``cyclechain.__all__``.  What only the
tests use belongs in a test reference module such as
``tests/algebra_reference.py``, where no set-up compiles it.  The one
exception, with its reason, is on ``ALLOWED_UNREACHED``.
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


def callers_of(source: str, callee: str) -> list[str]:
    """The top-level definitions of source that call ``callee``."""
    callers = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee:
                    callers.append(getattr(top, "name", "<module>"))
    return callers


@pytest.mark.parametrize(
    "module, allowed", [("division.py", {"layout"}), ("structure.py", set()), ("poly.py", set())]
)
def test_only_layout_builds_a_layout(module, allowed):
    source = (SRC / "cyclechain" / module).read_text()
    assert set(callers_of(source, "coprime_bits") + callers_of(source, "kept_bits")) <= allowed


def test_the_layout_rule_sees_every_call_site():
    source = (
        "def layout():\n    return coprime_bits(3, [3])\n"
        "class S:\n    def f(self):\n        return lattice.coprime_bits(3, [3])\n"
        "bits = coprime_bits(5, [5])\n"
    )
    assert callers_of(source, "coprime_bits") == ["layout", "S", "<module>"]


WINDOW_CODE = {"enumerate_restricted", "divide_full_restricted"}
FACTORING = ("window_bits", "divisors", "divisor_count")


def factoring_callers(source: str, callees: tuple[str, ...]) -> set[str]:
    """The top-level definitions of source that call one of callees."""
    return set().union(*(callers_of(source, callee) for callee in callees))


@pytest.mark.parametrize("module", ["division.py", "structure.py", "poly.py", "chains.py"])
def test_only_window_code_factors(module):
    source = (SRC / "cyclechain" / module).read_text()
    assert factoring_callers(source, FACTORING) <= WINDOW_CODE


def test_only_window_code_calls_the_factoriser():
    source = (SRC / "cyclechain" / "lattice.py").read_text()
    assert set(callers_of(source, "_prime_factors")) == {"_window_layout"}


def test_the_factoring_rule_flags_a_solver():
    source = (
        "def solve(a, b):\n    bits = lattice.window_bits(a.k)\n"
        "def classify(x):\n    return _prime_factors(x.k)\n"
        "def green(x, y):\n    return len(divisors(x.k))\n"
        "def enumerate_restricted(sol, k, n):\n    return window_bits(k)\n"
    )
    assert factoring_callers(source, FACTORING) - WINDOW_CODE == {"solve", "green"}
    assert factoring_callers(source, ("_prime_factors",)) == {"classify"}


def test_chain_operands_are_converted_once():
    source = (SRC / "cyclechain" / "chains.py").read_text()
    assert set(callers_of(source, "to_orthogonal")) <= {"ChainDivision", "divide_chains", "divide_full"}


def typing_subscripts_at_import(source: str) -> list[int]:
    """The lines where code that runs at import subscripts a name imported
    from ``typing`` or an attribute of ``typing``: function bodies,
    lambdas and, under ``from __future__ import annotations``, annotations
    do not run."""
    tree = ast.parse(source)
    forms = set()
    postponed = False
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "typing":
            forms.update(alias.asname or alias.name for alias in node.names)
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            postponed |= any(alias.name == "annotations" for alias in node.names)
    idle = set()
    for node in ast.walk(tree):
        parts = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            parts = node.body + ([node.returns] if postponed else [])
        elif isinstance(node, ast.Lambda):
            parts = [node.body]
        elif postponed and isinstance(node, (ast.arg, ast.AnnAssign)):
            parts = [node.annotation]
        for part in parts:
            idle.update(map(id, ast.walk(part)) if part else ())
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and id(node) not in idle:
            value = node.value
            if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
                typed = value.value.id == "typing"
            else:
                typed = isinstance(value, ast.Name) and value.id in forms
            if typed:
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_no_typing_form_built_at_import(path):
    assert typing_subscripts_at_import(path.read_text()) == []


def test_the_typing_rule_sees_only_code_that_runs():
    head = "from __future__ import annotations\nimport typing\nfrom typing import Optional, Union as U\n"
    source = head + (
        "A = U[int, str]\n"
        "class S:\n    b: Optional[int] = 0\n    c = typing.Callable[[], int]\n"
        "    def f(self, x: Optional[int] = dict[int, str]) -> U[int, str]:\n        return Optional[x]\n"
        "g = lambda: Optional[int]\n"
        "h = tuple[int, ...]\n"
        "def k(x=Optional[int]):\n    pass\n"
    )
    assert typing_subscripts_at_import(source) == [4, 7, 12]
    assert typing_subscripts_at_import("from typing import Optional\ndef f(x: Optional[int]): pass\n") == [2]


BENCH = SRC.parent / "bench"
# Reached from outside ``src/`` and ``bench/`` only, each with its reason.
ALLOWED_UNREACHED = {
    ("structure", "coregular_representative"): "the acceptance tests call it",
}
# The ``cyclechain`` script of pyproject.toml.
ENTRY_POINTS = {("cli", "main")}


def module_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """The module-level defs, classes and assigned names of a module, each
    with the statement that defines it; dunder names are left out."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node
    return {name: node for name, node in out.items() if not name.startswith("__")}


def unreached(modules: dict[str, str], outside: list[str], exported: set[str]) -> set[tuple[str, str]]:
    """(module, name) for each module-level definition of the package
    ``modules`` (name -> source) that no other part of the package uses,
    that no source in ``outside`` names, and that ``exported`` does not
    hold.

    Inside the package a use is a load of the name in its own module
    outside its definition, ``from .m import name`` in any module, or
    ``m.name`` where ``m`` is bound to the module by ``from . import m``.
    Outside it, any name, attribute or imported name counts.
    """
    trees = {m: ast.parse(source) for m, source in modules.items()}
    used = set()
    for m, tree in trees.items():
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        used.add((node.module, alias.name))
                    else:
                        bound[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
                used.add((bound[node.value.id], node.attr))
        for name, definition in module_definitions(tree).items():
            inside = set(map(id, ast.walk(definition)))
            loads = (
                node
                for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and id(node) not in inside
            )
            if any(node.id == name for node in loads):
                used.add((m, name))
    named = set(exported)
    for source in outside:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                named.update(alias.name.rpartition(".")[2] for alias in node.names)
    return {
        (m, name)
        for m, tree in trees.items()
        for name in module_definitions(tree)
        if (m, name) not in used and name not in named
    }


def test_no_definition_only_tests_reach():
    package = SRC / "cyclechain"
    modules = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    outside = [path.read_text() for path in sorted(BENCH.rglob("*.py"))]
    exported = set(ast.literal_eval(next(
        node.value
        for node in ast.parse(modules["__init__"]).body
        if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"
    )))
    assert unreached(modules, outside, exported) - ENTRY_POINTS == set(ALLOWED_UNREACHED)


def test_the_reach_rule_sees_each_kind_of_use():
    modules = {
        "a": "from .b import used\nfrom . import c as cm\n"
        "def helper():\n    return helper()\n"
        "def caller():\n    return cm.attr\n"
        "LIMIT = 3\nLEFT = 4\n"
        "def f(x=LIMIT):\n    pass\n",
        "b": "def used():\n    pass\ndef unused():\n    pass\nclass Exported:\n    pass\n",
        "c": "attr = 1\nbench_name = 2\n",
    }
    outside = ["import m\nm.bench_name\n"]
    assert unreached(modules, outside, {"Exported"}) == {
        ("a", "helper"), ("a", "caller"), ("a", "LEFT"), ("a", "f"), ("b", "unused")
    }
