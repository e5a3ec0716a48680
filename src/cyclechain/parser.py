"""Recursive-descent parser for cycle/chain expressions, evaluating as it reads.

Grammar:  expr := term ('+' term)*;  term := factor ('*' factor)*;
factor := primary ('^' INT)*;  primary := atom | '(' expr ')'.  Atoms are
C<int>, L<int>, the literals 0 and 1 (1 means C1), and optionally the
variable x for polynomial input.  Integers are runs of ASCII digits.
ASCII whitespace is ignored and errors carry the offset of the offence.

Each rule returns the value of the text it read and combines values with
their own ``+``, ``*`` and ``**``: ``Element``'s for ``parse_element``,
``_Poly``'s for ``parse_poly``.  Both fold powers by x**4 = x**2.
"""

from __future__ import annotations

from typing import Callable

from .chains import ChainSum, Element
from .cycles import CycleSum
from .poly import CubicPoly, fold_exponent, reduce_poly

MAX_INT = 10**6
DIGITS = "0123456789"
WHITESPACE = " \t\n\r\f\v"
# Deepest nesting of parentheses and chained powers; the parser recurses
# once per level, so this keeps it far from Python's recursion limit.
MAX_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


def _digits(text: str, start: int, pos: int, what: str) -> tuple[int, int]:
    """The value of the ASCII digit run at ``start`` and the offset after it.
    A value above ``MAX_INT`` is refused at ``pos`` as ``what``; ``int()``
    reads only runs with few enough significant digits to be in range."""
    end = start
    while end < len(text) and text[end] in DIGITS:
        end += 1
    digits = text[start:end].lstrip("0") or "0"
    if len(digits) > len(str(MAX_INT)) or int(digits) > MAX_INT:
        raise ParseError(f"{what} {digits} exceeds the limit {MAX_INT}", pos)
    return int(digits), end


def _tokenize(text: str, allow_var: bool) -> list[tuple]:
    """The whole text as (kind, value, offset) tuples, kind one of
    + * ^ ( ) atom_C atom_L int var end."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in WHITESPACE:
            i += 1
            continue
        if ch in "+*^()":
            out.append((ch, None, i))
            i += 1
            continue
        if ch in "CL":
            n, j = _digits(text, i + 1, i, "length")
            if j == i + 1:
                raise ParseError(f"expected a length after {ch!r}", i)
            if n == 0:
                raise ParseError(f"{ch}0 is not a valid atom", i)
            out.append(("atom_" + ch, n, i))
            i = j
            continue
        if ch in DIGITS:
            n, j = _digits(text, i, i, "integer")
            out.append(("int", n, i))
            i = j
            continue
        if ch == "x" and allow_var:
            out.append(("var", None, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("end", None, len(text)))
    return out


class _Parser:
    """One pass over the tokens; ``leaf(kind, n)`` gives the value of an
    atom, the literal 0 or 1 (as ``int``) or the variable."""

    def __init__(self, tokens: list[tuple], leaf: Callable):
        self.tokens = tokens
        self.leaf = leaf
        self.i = 0
        self.depth = 0

    def take(self, kind: str) -> tuple:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        self.i += 1
        return tok

    def run(self):
        value = self.expr()
        self.take("end")
        return value

    def expr(self):
        value = self.term()
        while self.tokens[self.i][0] == "+":
            self.i += 1
            value = value + self.term()
        return value

    def term(self):
        value = self.factor()
        while self.tokens[self.i][0] == "*":
            self.i += 1
            value = value * self.factor()
        return value

    def factor(self):
        kind, n, pos = self.tokens[self.i]
        if kind == "(":
            self.i += 1
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError(f"expression nested deeper than {MAX_DEPTH}", pos)
            value = self.expr()
            self.take(")")
            self.depth -= 1
        elif kind == "int" and n > 1:
            raise ParseError(f"bare integer {n} is not an atom (use C{n} or L{n})", pos)
        elif kind in ("atom_C", "atom_L", "int", "var"):
            self.i += 1
            value = self.leaf(kind, n)
        else:
            raise ParseError(f"expected an atom or '(', found {kind!r}", pos)
        powers = 0
        while self.tokens[self.i][0] == "^":
            pos = self.take("^")[2]
            powers += 1
            if self.depth + powers > MAX_DEPTH:
                raise ParseError(f"expression nested deeper than {MAX_DEPTH}", pos)
            exponent = self.take("int")
            if exponent[1] < 1:
                raise ParseError("exponent must be >= 1", exponent[2])
            value = value ** exponent[1]
        return value


def _element_leaf(kind: str, n: int) -> Element:
    if kind == "atom_L":
        return Element.from_chains(ChainSum([n]))
    return Element.from_cycles(CycleSum.single(n)) if n else Element.zero()


def parse_element(text: str) -> Element:
    """Evaluate a variable-free expression to a sum of chains and cycles."""
    return _Parser(_tokenize(text, False), _element_leaf).run()


parse = parse_element


class _Poly:
    """A polynomial in x over cycle sums: its four coefficients, lowest
    first.  Products fold to degree 3 by ``fold_exponent``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: list[CycleSum]):
        self.coeffs = coeffs

    @staticmethod
    def leaf(kind: str, n: int) -> "_Poly":
        zero = CycleSum.zero()
        if kind == "var":
            return _Poly([zero, CycleSum.one(), zero, zero])
        # an L atom stands for 0 here: parse_poly refuses it once the text has parsed
        return _Poly([CycleSum.single(n) if n and kind != "atom_L" else zero, zero, zero, zero])

    def __add__(self, other: "_Poly") -> "_Poly":
        return _Poly([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "_Poly") -> "_Poly":
        out = [CycleSum.zero()] * 4
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                if a and b:
                    k = fold_exponent(i + j)
                    out[k] = out[k] + a * b
        return _Poly(out)

    def __pow__(self, e: int) -> "_Poly":
        out = _Poly.leaf("int", 1)
        for _ in range(fold_exponent(e)):
            out = out * self
        return out


def parse_poly(text: str) -> CubicPoly:
    """Parse a univariate polynomial over cycle sums into reduced form."""
    tokens = _tokenize(text, True)
    coeffs = _Parser(tokens, _Poly.leaf).run().coeffs
    if any(tok[0] == "atom_L" for tok in tokens):
        raise ValueError("polynomial coefficients must be cycle sums")
    return reduce_poly(coeffs)
