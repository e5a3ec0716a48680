"""Sum-algebra and oracle definitions that only the tests use: the test
reference for ``cyclechain.lattice`` and ``cyclechain.oracle``.

The package's commands and solvers run on ``BoolElem`` products,
``atom_for`` and ``Interval``, and on the oracle's component multisets.
The tests also read a sum by its atoms (``atoms_below``, ``norm``), build
one from them (``from_atoms``, ``unit_vector``), split an interval by a
norm, list the covers of an element, build the sum algebra of a
meet-semilattice by adjoining a top, and compare digraphs by the
isomorphism types of their components.  Those definitions live here, on
the lattice's order masks and the oracle's digraphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from cyclechain.lattice import BoolElem, FiniteLattice, Interval, atom_for, ones
from cyclechain.oracle import Digraph, weak_components

# ---------------------------------------------------------------- lattices


def covers_below(lat: FiniteLattice, a: Hashable) -> tuple:
    """Elements covered by a: strictly below with nothing in between.

    By transitive reduction: j is covered by a when j is strictly below a
    but not strictly below any other element strictly below a.
    """
    i = lat.index[a]
    below = lat._down[i] & ~(1 << i)
    deeper = 0
    for k in ones(below):
        deeper |= lat._down[k] & ~(1 << k)
    return tuple(lat.elements[j] for j in ones(below & ~deeper))


def unit_vector(lat: FiniteLattice, l: Hashable) -> BoolElem:
    return BoolElem._from_mask(lat, lat._down[lat.index[l]])


def atoms(lat: FiniteLattice) -> tuple[BoolElem, ...]:
    """All atoms, one per lattice element, in ground-set order."""
    return tuple(atom_for(lat, l) for l in lat.elements)


def atoms_below(x: BoolElem) -> frozenset:
    """Lattice elements l with atom_for(l) <= x."""
    return frozenset(map(x.lattice.elements.__getitem__, ones(x.mask)))


def from_atoms(lat: FiniteLattice, ls: Iterable[Hashable]) -> BoolElem:
    """The sum of the atoms at ls; an element listed twice cancels."""
    mask = 0
    for l in ls:
        mask ^= 1 << lat.index[l]
    return BoolElem._from_mask(lat, mask)


def norm(x: BoolElem, l: Hashable) -> int:
    """1 when x dominates the atom at l, else 0.

    At the lattice bottom this is the parity of the support size of x.
    """
    return x.mask >> x.lattice.index[l] & 1


def interval_parity_split(iv: Interval, l: Hashable) -> tuple[Interval, Interval]:
    """Split [lo, hi] by the norm at l: (norm 0 part, norm 1 part).

    Either returned interval may be empty.  At the lattice bottom the two
    parts are the even- and odd-support-size members.
    """
    if iv.is_empty:
        raise ValueError("cannot split an empty interval")
    a = atom_for(iv.lo.lattice, l)
    return Interval(iv.lo, iv.hi * a.complement()), Interval(iv.lo | a, iv.hi)


class _AdjoinedTop:
    """Fresh top element adjoined to a semilattice."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "TOP"


ADJOINED_TOP = _AdjoinedTop()


@dataclass(frozen=True)
class SemilatticeAlgebra:
    """Boolean algebra on the sums over a meet-semilattice without a top.

    Elements are the BoolElem values of ``lattice`` (the semilattice with a
    fresh top adjoined) supported away from the adjoined top; the algebra
    top is e_top + atom_for(top) and its atoms are all other atoms.
    """

    lattice: FiniteLattice
    top: BoolElem
    atoms: tuple[BoolElem, ...]

    def embed(self, support: Iterable[Hashable]) -> BoolElem:
        return BoolElem(self.lattice, support)

    def complement(self, x: BoolElem) -> BoolElem:
        return x + self.top


def semilattice_algebra(
    elements: Sequence[Hashable],
    meet: Callable[[Hashable, Hashable], Hashable],
) -> SemilatticeAlgebra:
    """Build the sum algebra of a finite meet-semilattice.

    The input must be meet-closed with a least element; a fresh top is
    adjoined to make it a lattice, whose constructor checks both.
    """
    elems = tuple(elements)

    def adj_meet(a, b):
        if a is ADJOINED_TOP:
            return b
        if b is ADJOINED_TOP:
            return a
        return meet(a, b)

    lat = FiniteLattice((ADJOINED_TOP,) + elems, adj_meet)
    top_atom = atom_for(lat, ADJOINED_TOP)
    full_top = unit_vector(lat, ADJOINED_TOP) + top_atom
    rest = tuple(atom_for(lat, l) for l in elems)
    return SemilatticeAlgebra(lattice=lat, top=full_top, atoms=rest)


# ---------------------------------------------------------------- digraphs


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
