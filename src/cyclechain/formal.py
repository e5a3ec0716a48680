"""Formal sums over an abstract generator set with coefficients mod 2.

A sum is just its support: a finite set of generators, each carried with
coefficient 1.  Multiplication is driven by a pluggable rule giving the
product of two generators as another formal sum; ``check_axioms`` probes a
rule for the laws that make the whole construction a commutative semiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional

GeneratorId = Hashable


class UndefinedProductError(KeyError):
    """Raised when a product rule has no value for a queried pair."""

    def __init__(self, pair: tuple[GeneratorId, GeneratorId]):
        super().__init__(pair)
        self.pair = pair

    def __str__(self) -> str:
        return f"product rule undefined for pair {self.pair!r}"


class FormalSum:
    """A finite set of generators, i.e. a formal sum with 0/1 coefficients."""

    __slots__ = ("support",)

    def __init__(self, support: Iterable[GeneratorId] = ()):
        self.support: frozenset = frozenset(support)

    def __bool__(self) -> bool:
        return bool(self.support)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FormalSum) and self.support == other.support

    def __hash__(self) -> int:
        return hash(("FormalSum", self.support))

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum(self.support ^ other.support)

    def __len__(self) -> int:
        return len(self.support)

    def __repr__(self) -> str:
        return f"FormalSum({sorted(self.support, key=repr)!r})"


ZERO = FormalSum()


@dataclass(frozen=True)
class ProductRule:
    """How two generators multiply, plus the identity generator if any."""

    pair_product: Callable[[GeneratorId, GeneratorId], FormalSum]
    identity: Optional[GeneratorId] = None

    def __call__(self, g: GeneratorId, h: GeneratorId) -> FormalSum:
        try:
            out = self.pair_product(g, h)
        except UndefinedProductError:
            raise
        except (KeyError, LookupError):
            raise UndefinedProductError((g, h)) from None
        if out is None:
            raise UndefinedProductError((g, h))
        return out


def add(s: FormalSum, t: FormalSum) -> FormalSum:
    """Coefficient-wise sum mod 2: the symmetric difference of supports."""
    return s + t


def mul(s: FormalSum, t: FormalSum, rule: ProductRule) -> FormalSum:
    """Bilinear product: sum of rule(g, h) over all support pairs."""
    acc = ZERO
    for g in s.support:
        for h in t.support:
            acc = acc + rule(g, h)
    return acc


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of a finite axiom probe; a refutation tool, not a proof."""

    ok: bool
    condition: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "all checked axioms hold"
        return f"violated {self.condition} at {self.witness!r}"


def check_axioms(rule: ProductRule, gens: Iterable[GeneratorId]) -> AxiomReport:
    """Probe commutativity, identity behaviour and generator associativity.

    The associativity condition compares, for every generator triple
    (g, h, i), the expansions of (g*h)*i and g*(h*i) at every generator of
    either side.  Only finitely many triples are tested, so a pass is
    evidence, not proof; a failure is conclusive and names the witness.
    """
    gens = sorted(set(gens), key=repr)
    products: dict[tuple[GeneratorId, GeneratorId], FormalSum] = {}
    for g in gens:
        for h in gens:
            products[(g, h)] = rule(g, h)

    for g in gens:
        for h in gens:
            if products[(g, h)] != products[(h, g)]:
                return AxiomReport(False, "commutativity", (g, h))

    e = rule.identity
    if e is not None:
        for g in gens:
            if rule(e, g) != FormalSum([g]) or rule(g, e) != FormalSum([g]):
                return AxiomReport(False, "identity", (e, g))

    for g in gens:
        for h in gens:
            gh = products[(g, h)]
            for i in gens:
                hi = products[(h, i)]
                left = ZERO
                for j in gh.support:
                    left = left + rule(j, i)
                right = ZERO
                for j in hi.support:
                    right = right + rule(j, g)
                if left != right:
                    return AxiomReport(False, "associativity", (g, h, i))

    return AxiomReport(True)
