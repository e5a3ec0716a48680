"""The expression parser as it was before it evaluated while parsing: a
syntax tree of frozen dataclasses, walked by one evaluator per mode.  The
test reference for ``cyclechain.parser``.

``tests/test_parser_reference.py`` parses a seeded corpus of valid and
malformed expressions with both and compares the values, or the
exception types and messages.  The code below is the old module's,
unchanged but for its imports.  The old tokenizer read any Unicode digit
and passed every digit run to ``int()``, and it skipped any character
that ``str.isspace`` accepts where the new one skips only ASCII
whitespace; inputs with such runs or such characters are the only ones
on which the two parsers may differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from cyclechain.chains import ChainSum, Element
from cyclechain.cycles import CycleSum
from cyclechain.poly import CubicPoly, fold_coeffs, fold_exponent, reduce_poly

MAX_INT = 10**6
# Deepest nesting of parentheses and chained powers; the parser and the
# evaluators recurse once per level, so this keeps them far from Python's
# recursion limit.
MAX_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Atom:
    kind: str  # "C" | "L"
    n: int


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class Add:
    parts: tuple


@dataclass(frozen=True)
class Mul:
    parts: tuple


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


Node = "Atom | Var | Zero | Add | Mul | Pow"


@dataclass(frozen=True)
class _Token:
    kind: str  # one of + * ^ ( ) atom_C atom_L int var end
    value: Optional[int]
    pos: int


def _tokenize(text: str, allow_var: bool) -> list[_Token]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+*^()":
            out.append(_Token(ch, None, i))
            i += 1
            continue
        if ch in "CL":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"expected a length after {ch!r}", i)
            n = int(text[i + 1 : j])
            if n == 0:
                raise ParseError(f"{ch}0 is not a valid atom", i)
            if n > MAX_INT:
                raise ParseError(f"length {n} exceeds the limit {MAX_INT}", i)
            out.append(_Token("atom_" + ch, n, i))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            n = int(text[i:j])
            if n > MAX_INT:
                raise ParseError(f"integer {n} exceeds the limit {MAX_INT}", i)
            out.append(_Token("int", n, i))
            i = j
            continue
        if ch == "x" and allow_var:
            out.append(_Token("var", None, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", None, len(text)))
    return out


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self, kind: str) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.kind!r}", tok.pos)
        self.i += 1
        return tok

    def expr(self) -> Node:
        parts = [self.term()]
        while self.peek().kind == "+":
            self.take("+")
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else Add(tuple(parts))

    def term(self) -> Node:
        parts = [self.factor()]
        while self.peek().kind == "*":
            self.take("*")
            parts.append(self.factor())
        return parts[0] if len(parts) == 1 else Mul(tuple(parts))

    def factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "(":
            self.take("(")
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError(f"expression nested deeper than {MAX_DEPTH}", tok.pos)
            node: Node = self.expr()
            self.take(")")
            self.depth -= 1
        elif tok.kind == "atom_C":
            self.take("atom_C")
            node = Atom("C", tok.value)
        elif tok.kind == "atom_L":
            self.take("atom_L")
            node = Atom("L", tok.value)
        elif tok.kind == "int":
            self.take("int")
            if tok.value == 0:
                node = Zero()
            elif tok.value == 1:
                node = Atom("C", 1)
            else:
                raise ParseError(
                    f"bare integer {tok.value} is not an atom "
                    f"(use C{tok.value} or L{tok.value})",
                    tok.pos,
                )
        elif tok.kind == "var":
            self.take("var")
            node = Var()
        else:
            raise ParseError(
                f"expected an atom or '(', found {tok.kind!r}", tok.pos
            )
        powers = 0
        while self.peek().kind == "^":
            ctok = self.take("^")
            powers += 1
            if self.depth + powers > MAX_DEPTH:
                raise ParseError(f"expression nested deeper than {MAX_DEPTH}", ctok.pos)
            etok = self.take("int")
            if etok.value < 1:
                raise ParseError("exponent must be >= 1", etok.pos)
            node = Pow(node, etok.value)
        return node


def parse(text: str, allow_var: bool = False) -> Node:
    tokens = _tokenize(text, allow_var)
    parser = _Parser(tokens)
    node = parser.expr()
    parser.take("end")
    return node


def eval_element(node: Node) -> Element:
    """Evaluate a variable-free expression to a sum of chains and cycles."""
    if isinstance(node, Zero):
        return Element.zero()
    if isinstance(node, Atom):
        if node.kind == "C":
            return Element.from_cycles(CycleSum.single(node.n))
        return Element.from_chains(ChainSum([node.n]))
    if isinstance(node, Var):
        raise ValueError("the variable x is not allowed in this expression")
    if isinstance(node, Add):
        out = Element.zero()
        for part in node.parts:
            out = out + eval_element(part)
        return out
    if isinstance(node, Mul):
        out = Element.one()
        for part in node.parts:
            out = out * eval_element(part)
        return out
    if isinstance(node, Pow):
        return eval_element(node.base) ** node.exponent
    raise TypeError(f"unknown node {node!r}")


def parse_element(text: str) -> Element:
    return eval_element(parse(text))


def _poly_add(p: list[CycleSum], q: list[CycleSum]) -> list[CycleSum]:
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else CycleSum.zero()
        b = q[i] if i < len(q) else CycleSum.zero()
        out.append(a + b)
    return out


def _poly_mul(p: list[CycleSum], q: list[CycleSum]) -> list[CycleSum]:
    out = [CycleSum.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return fold_coeffs(out)


def _eval_poly_node(node: Node) -> list[CycleSum]:
    if isinstance(node, Zero):
        return [CycleSum.zero()]
    if isinstance(node, Atom):
        if node.kind == "L":
            raise ValueError("polynomial coefficients must be cycle sums")
        return [CycleSum.single(node.n)]
    if isinstance(node, Var):
        return [CycleSum.zero(), CycleSum.one()]
    if isinstance(node, Add):
        out = [CycleSum.zero()]
        for part in node.parts:
            out = _poly_add(out, _eval_poly_node(part))
        return out
    if isinstance(node, Mul):
        out = [CycleSum.one()]
        for part in node.parts:
            out = _poly_mul(out, _eval_poly_node(part))
        return out
    if isinstance(node, Pow):
        base = _eval_poly_node(node.base)
        out = [CycleSum.one()]
        for _ in range(fold_exponent(node.exponent)):
            out = _poly_mul(out, base)
        return out
    raise TypeError(f"unknown node {node!r}")


def parse_poly(text: str) -> CubicPoly:
    """Parse a univariate polynomial over cycle sums into reduced form."""
    coeffs = _eval_poly_node(parse(text, allow_var=True))
    return reduce_poly(coeffs)
