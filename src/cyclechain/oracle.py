"""Ground-truth computations on explicit functional digraphs.

Everything here counts with natural-number multiplicities and reduces to
parity only at the very end, staying independent of the closed-form mod-2
arithmetic it is used to cross-check.  Products are built vertex by
vertex, components are classified by walking the explicit graph, and the
equation search in a finite window solves a*x = b by Gaussian elimination
over F2 on the window's product formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .chains import ChainSum, Element
from .cycles import CycleSum
from .lattice import MAX_WINDOW_K, divisor_count, divisors, ones


@dataclass(frozen=True)
class Digraph:
    """A partial transformation: out-degree at most one, as a succ table."""

    n: int
    succ: tuple[Optional[int], ...]

    def __post_init__(self):
        if len(self.succ) != self.n:
            raise ValueError("successor table length differs from vertex count")
        for v in self.succ:
            if v is not None and not (0 <= v < self.n):
                raise ValueError(f"successor {v} out of range")

    @classmethod
    def cycle(cls, d: int) -> "Digraph":
        if d < 1:
            raise ValueError("cycle length must be >= 1")
        return cls(d, tuple((i + 1) % d for i in range(d)))

    @classmethod
    def chain(cls, d: int) -> "Digraph":
        if d < 1:
            raise ValueError("chain length must be >= 1")
        return cls(d, tuple(i + 1 if i + 1 < d else None for i in range(d)))

    @classmethod
    def disjoint_union(cls, parts: Iterable["Digraph"]) -> "Digraph":
        succ: list[Optional[int]] = []
        for g in parts:
            base = len(succ)
            succ.extend(None if v is None else v + base for v in g.succ)
        return cls(len(succ), tuple(succ))

    @classmethod
    def empty(cls) -> "Digraph":
        return cls(0, ())


MAX_PRODUCT_VERTICES = 4 * 10**6


def product(g: Digraph, h: Digraph) -> Digraph:
    """Direct product: arcs exist where both factors have one.  ValueError
    before any work beyond ``MAX_PRODUCT_VERTICES`` vertices."""
    n = g.n * h.n
    if n > MAX_PRODUCT_VERTICES:
        raise ValueError(f"product of {n} vertices exceeds the limit of {MAX_PRODUCT_VERTICES}")
    succ: list[Optional[int]] = [None] * n
    for u in range(g.n):
        gu = g.succ[u]
        if gu is None:
            continue
        row = u * h.n
        grow = gu * h.n
        for v in range(h.n):
            hv = h.succ[v]
            if hv is not None:
                succ[row + v] = grow + hv
    return Digraph(n, tuple(succ))


class ComponentMultiset:
    """Cycle and chain components with natural-number multiplicities."""

    __slots__ = ("cycles", "chains")

    def __init__(
        self,
        cycles: Optional[dict[int, int]] = None,
        chains: Optional[dict[int, int]] = None,
    ):
        self.cycles = {d: m for d, m in (cycles or {}).items() if m}
        self.chains = {d: m for d, m in (chains or {}).items() if m}
        for d in (*self.cycles, *self.chains):
            if d < 1:
                raise ValueError(f"component length must be >= 1, got {d}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ComponentMultiset)
            and self.cycles == other.cycles
            and self.chains == other.chains
        )

    def __hash__(self) -> int:
        return hash(
            (
                "ComponentMultiset",
                tuple(sorted(self.cycles.items())),
                tuple(sorted(self.chains.items())),
            )
        )

    def __add__(self, other: "ComponentMultiset") -> "ComponentMultiset":
        cycles = dict(self.cycles)
        for d, m in other.cycles.items():
            cycles[d] = cycles.get(d, 0) + m
        chains = dict(self.chains)
        for d, m in other.chains.items():
            chains[d] = chains.get(d, 0) + m
        return ComponentMultiset(cycles, chains)

    def scaled(self, m: int) -> "ComponentMultiset":
        return ComponentMultiset(
            {d: c * m for d, c in self.cycles.items()},
            {d: c * m for d, c in self.chains.items()},
        )

    @classmethod
    def from_element(cls, x: Element) -> "ComponentMultiset":
        return cls(
            {q: 1 for q in x.cycles.lengths()},
            {d: 1 for d in x.chains.lengths},
        )

    def __str__(self) -> str:
        parts = [
            (f"{m}" if m != 1 else "") + f"C{d}"
            for d, m in sorted(self.cycles.items())
        ]
        parts += [
            (f"{m}" if m != 1 else "") + f"L{d}"
            for d, m in sorted(self.chains.items())
        ]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"ComponentMultiset({str(self)!r})"


def digraph_from_components(cm: ComponentMultiset) -> Digraph:
    parts = []
    for d, m in sorted(cm.cycles.items()):
        parts.extend(Digraph.cycle(d) for _ in range(m))
    for d, m in sorted(cm.chains.items()):
        parts.extend(Digraph.chain(d) for _ in range(m))
    return Digraph.disjoint_union(parts)


def digraph_from_element(x: Element) -> Digraph:
    return digraph_from_components(ComponentMultiset.from_element(x))


def weak_components(g: Digraph) -> list[list[int]]:
    """Vertex classes under the undirected reachability of arcs."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in enumerate(g.succ):
        if v is None:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for u in range(g.n):
        groups.setdefault(find(u), []).append(u)
    return list(groups.values())


def decompose(g: Digraph) -> ComponentMultiset:
    """Classify each weak component of an injective graph as cycle or chain.

    Raises if some vertex has in-degree two or more, naming it.
    """
    indeg = [0] * g.n
    for u, v in enumerate(g.succ):
        if v is not None:
            indeg[v] += 1
            if indeg[v] > 1:
                raise ValueError(
                    f"not injective: vertex {v} has in-degree >= 2"
                )
    cycles: dict[int, int] = {}
    chains: dict[int, int] = {}
    for comp in weak_components(g):
        size = len(comp)
        arcs = sum(1 for u in comp if g.succ[u] is not None)
        if arcs == size:
            cycles[size] = cycles.get(size, 0) + 1
        else:
            # a weakly connected out-degree<=1, in-degree<=1 graph with
            # size-1 arcs is a path
            chains[size] = chains.get(size, 0) + 1
    return ComponentMultiset(cycles, chains)


def _tree_key(root: int, children: dict[int, list[int]]) -> tuple:
    return tuple(
        sorted(_tree_key(c, children) for c in children.get(root, []))
    )


def component_keys(g: Digraph) -> dict[tuple, int]:
    """Canonical isomorphism keys of the weak components, with counts.

    Works for arbitrary partial transformations: a component either ends
    in a terminal vertex (encoded as a rooted in-tree) or closes a cycle
    (encoded as the rotation-minimal tuple of the trees hanging off it).
    """
    keys: dict[tuple, int] = {}
    for comp in weak_components(g):
        members = set(comp)
        # locate the cycle, if any, by walking until repetition
        seen: dict[int, int] = {}
        u = comp[0]
        path = []
        while u is not None and u not in seen:
            seen[u] = len(path)
            path.append(u)
            u = g.succ[u]
        if u is None:
            cycle_set: set[int] = set()
            root = path[-1]
        else:
            cycle = path[seen[u]:]
            cycle_set = set(cycle)
        children: dict[int, list[int]] = {}
        for v in members:
            w = g.succ[v]
            if w is not None and v not in cycle_set:
                children.setdefault(w, []).append(v)
        if not cycle_set:
            key = ("tree", _tree_key(root, children))
        else:
            hung = [_tree_key(c, children) for c in cycle]
            rotations = [
                tuple(hung[i:] + hung[:i]) for i in range(len(hung))
            ]
            key = ("cycle", len(cycle), min(rotations))
        keys[key] = keys.get(key, 0) + 1
    return keys


def closed_form_product(
    a: ComponentMultiset, b: ComponentMultiset
) -> ComponentMultiset:
    """Bilinear expansion of the three single-component product formulas."""
    out = ComponentMultiset()
    for d, md in a.cycles.items():
        for e, me in b.cycles.items():
            out = out + _pair_cc(d, e).scaled(md * me)
        for e, me in b.chains.items():
            out = out + _pair_lc(e, d).scaled(md * me)
    for d, md in a.chains.items():
        for e, me in b.cycles.items():
            out = out + _pair_lc(d, e).scaled(md * me)
        for e, me in b.chains.items():
            out = out + _pair_ll(d, e).scaled(md * me)
    return out


# Entries kept by each of the single-component product caches.
PAIR_CACHE_SIZE = 4096


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _pair_cc(d: int, e: int) -> ComponentMultiset:
    from math import gcd, lcm

    return ComponentMultiset({lcm(d, e): gcd(d, e)}, {})


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _pair_lc(e: int, d: int) -> ComponentMultiset:
    # chain of length e times cycle of length d: d copies of the chain
    return ComponentMultiset({}, {e: d})


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _pair_ll(d: int, e: int) -> ComponentMultiset:
    m = min(d, e)
    chains = {m: abs(d - e) + 1}
    for i in range(1, m):
        chains[i] = chains.get(i, 0) + 2
    return ComponentMultiset({}, chains)


def mod2(a: ComponentMultiset) -> Element:
    """Keep the components of odd multiplicity."""
    cycles = CycleSum.from_lengths(
        q for q, m in a.cycles.items() for _ in range(m % 2)
    )
    chains = ChainSum(d for d, m in a.chains.items() if m % 2)
    return Element(chains=chains, cycles=cycles)


def oracle_mul(a: Element, b: Element) -> Element:
    """Product via natural-number formulas, reduced mod 2 at the end."""
    return mod2(
        closed_form_product(
            ComponentMultiset.from_element(a), ComponentMultiset.from_element(b)
        )
    )


# Largest window modulus that always factors.
MAX_SPACE_K = MAX_WINDOW_K


@dataclass(frozen=True)
class SearchSpace:
    """Finite candidate window: chain lengths up to max_chain, cycle odd
    parts dividing k, cycle levels up to max_level."""

    k: int = 1
    max_level: int = 0
    max_chain: int = 0

    def generators(self) -> tuple[tuple[str, int], ...]:
        gens = [("C", q << i) for q in divisors(self.k) for i in range(self.max_level + 1)]
        gens.extend(("L", d) for d in range(1, self.max_chain + 1))
        return tuple(gens)

    def generator_count(self) -> int:
        """len(generators()), counted without listing them."""
        if self.max_level < 0 or self.max_chain < 0:
            raise ValueError("window bounds must be >= 0")
        return divisor_count(self.k) * (self.max_level + 1) + self.max_chain

    def size(self) -> int:
        return 1 << self.generator_count()


def _element_from_gens(gens: Iterable[tuple[str, int]]) -> Element:
    cycles = []
    chains = []
    for kind, n in gens:
        (cycles if kind == "C" else chains).append(n)
    return Element(
        chains=ChainSum(chains), cycles=CycleSum.from_lengths(cycles)
    )


def element_gens(x: Element) -> list[tuple[str, int]]:
    gens: list[tuple[str, int]] = [("C", q) for q in x.cycles.lengths()]
    gens.extend(("L", d) for d in sorted(x.chains.lengths))
    return gens


class _SpaceTables:
    """Per-window product tables: the window's generator set is closed under
    the oracle product, so x -> a*x is F2-linear on bitmasks over the
    generators.  The products of one generator with each generator are
    built when a divisor first uses it."""

    def __init__(self, space: SearchSpace):
        self.gens = space.generators()
        self.index = {g: t for t, g in enumerate(self.gens)}
        self._products: dict[int, list[int]] = {}

    def products(self, t: int) -> list[int]:
        """The masks of generator t times each generator, in window order."""
        if t not in self._products:
            g = self.element_of(1 << t)
            row = [oracle_mul(g, self.element_of(1 << u)) for u in range(len(self.gens))]
            self._products[t] = list(map(self.mask, row))
        return self._products[t]

    def mask(self, x: Element) -> Optional[int]:
        """The mask of x, or None when x has a component outside the window."""
        bits = [self.index.get(g) for g in element_gens(x)]
        return None if None in bits else sum(1 << t for t in bits)

    def element_of(self, mask: int) -> Element:
        return _element_from_gens(self.gens[t] for t in ones(mask))


@lru_cache(maxsize=8)
def _space_tables(space: SearchSpace) -> _SpaceTables:
    return _SpaceTables(space)


def _affine_divide(
    a: Element, b: Element, space: SearchSpace
) -> Optional[tuple[int, list[int]]]:
    """The mask of one x in the window with a*x = b and the masks of a basis
    of the x with a*x = 0, or None when the window holds no solution.

    Column u is the mask of a times generator u, and b is column n.  Each
    column is reduced on its leading bit by the pivots before it, recording
    the columns it combines; one that reduces to 0 is a kernel vector.  So
    b has a solution exactly when the last kernel vector combines b.
    """
    tables = _space_tables(space)
    a_mask = tables.mask(a)
    if a_mask is None:
        raise ValueError("divisor has a component outside the window")
    b_mask = tables.mask(b)
    if b_mask is None:
        # products of window elements stay inside the window
        return None
    n = len(tables.gens)
    columns = [0] * n
    for t in ones(a_mask):
        columns = [c ^ p for c, p in zip(columns, tables.products(t))]
    pivots: dict[int, tuple[int, int]] = {}
    kernel = []
    for u, v in enumerate([*columns, b_mask]):
        combo = 1 << u
        while (lead := v.bit_length() - 1) in pivots:
            v ^= pivots[lead][0]
            combo ^= pivots[lead][1]
        if v:
            pivots[lead] = v, combo
        else:
            kernel.append(combo)
    if not kernel or not kernel[-1] >> n:
        return None
    return kernel.pop() ^ 1 << n, kernel


def exhaustive_divide(
    a: Element, b: Element, space: SearchSpace
) -> frozenset[Element]:
    """All x in the window with a*x = b: one solution plus each sum of kernel
    vectors, by Gaussian elimination over F2.  Every solution is built, so
    windows of more than 2**20 candidates are refused.

    Products come from the natural-number component formulas reduced mod 2
    (never the level shortcut); the divisor must live inside the window.
    """
    if space.generator_count() > 20:
        raise ValueError(
            f"search space of 2**{space.generator_count()} candidates is too large"
        )
    solved = _affine_divide(a, b, space)
    if solved is None:
        return frozenset()
    x, kernel = solved
    masks = [x]
    for z in kernel:  # one XOR per member
        masks += [m ^ z for m in masks]
    return frozenset(map(_space_tables(space).element_of, masks))
