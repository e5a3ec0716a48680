"""The OddSet formulas of division, structure and poly, and the pair loop
of the chain product: the test reference.

Each is the per-level formula of a solver written directly on ``OddSet``
values and ``CycleSum`` products, independently of the coordinate
interface that ``division``, ``structure`` and ``poly`` run on.  The
differential tests compare the solvers with these, value for value,
generators, witnesses and reason texts included.  ``chain_mul_pairs``
multiplies chain sums chain by chain, where ``ChainSum.__mul__`` sweeps
the Z-coordinates.  ``cycle_mul_pairs`` multiplies cycle sums by two loops
over the levels merged in a dict, where ``CycleSum.__mul__`` builds each
output level once.  ``SetCycleSum`` holds a cycle sum as one frozenset of
odd parts per level, where ``CycleSum`` holds a tuple of raw lengths, and
derives each view of ``CycleSum`` from that.
"""

import math
from typing import Optional

from cyclechain.chains import ChainSum
from cyclechain.cycles import CycleSum, ODD_ONE, ODD_ZERO, OddSet, split_length
from cyclechain.division import ODD_COORDS, IntervalSolutionSet
from cyclechain.poly import CubicPoly
from cyclechain.structure import (
    Classification,
    IdealMeetResult,
    _cross_checked,
    _odd_times_even,
    _verified,
    coregular_representative,
    is_regular,
    is_unit,
)


def chain_mul_pairs(a: ChainSum, b: ChainSum) -> ChainSum:
    """``ChainSum.__mul__`` by the pair loop: L_e * L_d is L_min(e, d) when
    e and d agree mod 2, and 0 otherwise."""
    acc: set[int] = set()
    for e in a.lengths:
        for d in b.lengths:
            if (e ^ d) & 1 == 0:
                acc ^= {min(e, d)}
    return ChainSum(acc)


def odd_mul_pairs(a: OddSet, b: OddSet) -> OddSet:
    """``OddSet.__mul__`` by its own pair loop: the lcm-convolution mod 2."""
    acc: set[int] = set()
    for p in a.lengths:
        for q in b.lengths:
            acc ^= {math.lcm(p, q)}
    return OddSet(acc)


def cycle_mul_pairs(x: CycleSum, y: CycleSum) -> CycleSum:
    """``CycleSum.__mul__`` by two loops over the levels: z_0 = x_0 y_0 and
    z_i = x_0 y_i + x_i y_0, the y-terms merged into the x-terms in a dict
    and the result built by the checked constructor."""
    x0 = x.level(0)
    y0 = y.level(0)
    acc: dict[int, OddSet] = {}
    z0 = odd_mul_pairs(x0, y0)
    if z0:
        acc[0] = z0
    for i, xi in x.items():
        if i == 0:
            continue
        zi = odd_mul_pairs(xi, y0)
        if zi:
            acc[i] = zi
    for i, yi in y.items():
        if i == 0:
            continue
        merged = acc.get(i, ODD_ZERO) + odd_mul_pairs(x0, yi)
        if merged:
            acc[i] = merged
        else:
            acc.pop(i, None)
    return CycleSum(acc)


class SetCycleSum:
    """A cycle sum as a dict from level i to the frozenset of the odd parts
    of its lengths at valuation i, with the views of ``CycleSum`` derived
    from it; built from a multiset of lengths, odd multiplicities kept."""

    def __init__(self, lengths=(), levels=None):
        if levels is None:
            support = set()
            for q in lengths:
                support ^= {q}
            levels = {}
            for q in support:
                i, odd = split_length(q)
                levels.setdefault(i, set()).add(odd)
        self.levels = {i: frozenset(odds) for i, odds in levels.items() if odds}

    def items(self):
        return tuple((i, OddSet(self.levels[i])) for i in sorted(self.levels))

    def level(self, i):
        return OddSet(self.levels.get(i, ()))

    @property
    def odd_part(self):
        return self.level(0)

    @property
    def even_part(self):
        return SetCycleSum(levels={i: odds for i, odds in self.levels.items() if i})

    @property
    def plus_closure(self):
        out = ODD_ZERO
        for _, odd in self.items():
            out = out + odd + odd_mul_pairs(out, odd)
        return out

    def restrict_level(self, n):
        return SetCycleSum(levels={i: odds for i, odds in self.levels.items() if i <= n})

    def restrict_div(self, k):
        kept = {i: {q for q in odds if k % q == 0} for i, odds in self.levels.items()}
        return SetCycleSum(levels=kept)

    def stats(self):
        if not self.levels:
            return (1, 0)
        return (math.lcm(*(q for odds in self.levels.values() for q in odds)), max(self.levels))

    def lengths(self):
        return tuple(sorted(q << i for i, odds in self.levels.items() for q in odds))

    def __str__(self):
        return " + ".join(f"C{q}" for q in self.lengths()) or "0"

    def __eq__(self, other):
        return self.levels == other.levels

    def cycles(self):
        """The same element as a ``CycleSum``, by the checked constructor."""
        return CycleSum(self.items())


def solve_sets(a: CycleSum, b: CycleSum, n: int) -> IntervalSolutionSet:
    """``division.solve`` by the OddSet formulas, with intervals up to level n."""
    a0 = a.odd_part
    b0 = b.odd_part

    lam0 = ODD_ZERO
    ups0 = ODD_ONE
    for i in range(n + 1):
        ai = a.level(i)
        bi = b.level(i)
        li = bi + a0 * bi + ai * b0
        ui = li + ai + ODD_ONE
        lam0 = lam0 | li
        ups0 = ups0 * ui

    head = []
    for i in range(1, n + 1):
        lo = a0 * b.level(i) + a.level(i) * b0
        head.append((lo, lo + a0 + ODD_ONE))

    return IntervalSolutionSet(
        a, b, lam0 * ups0 == lam0, lam0, ups0, tuple(head), a0 + ODD_ONE, n, ODD_COORDS
    )


def membership_sets(sol: IntervalSolutionSet, x: CycleSum) -> bool:
    """``division.membership`` by the OddSet order."""
    if not sol.solvable:
        return False
    checked = set()
    for i, xi in x.items():
        lo, hi = sol.level_interval(i)
        if not (lo <= xi and xi <= hi):
            return False
        checked.add(i)
    for i in range(sol.n + 1):
        if i in checked:
            continue
        lo, _ = sol.level_interval(i)
        if lo:
            return False
    return True


def classify_sets(x: CycleSum) -> Classification:
    am = _odd_times_even(x)
    return Classification(
        is_unit=is_unit(x),
        is_idempotent=x.is_idempotent,
        is_regular=am == x.even_part,
        is_coregular=not am,
        plus_closure=x.plus_closure,
        coregular_rep=x + am,
    )


def green_sets(x: CycleSum, y: CycleSum, relation: str) -> bool:
    if relation == "Rtilde":
        return x.plus_closure == y.plus_closure
    if relation == "Rstar":
        return x.plus_closure == y.plus_closure and x.odd_part == y.odd_part
    x0 = x.odd_part
    by_formula = x0 == y.odd_part and (x + y).plus_closure <= x0
    by_rep = coregular_representative(x) == coregular_representative(y)
    return _cross_checked(x, y, by_formula, by_rep)


def ideal_reduce(x: CycleSum, y: CycleSum) -> tuple[CycleSum, CycleSum]:
    """Replace (x, y) by (x*yc, y*xc) without changing the ideal meet.

    The two results have equal closures; that postcondition is checked.
    """
    alpha = x * y.plus_closure.as_cycles()
    beta = y * x.plus_closure.as_cycles()
    if alpha.plus_closure != beta.plus_closure:
        raise RuntimeError(f"reduced pair ({alpha}, {beta}) has unequal closures")
    return alpha, beta


def ideal_intersect_sets(x: CycleSum, y: CycleSum) -> IdealMeetResult:
    if is_regular(x) or is_regular(y):
        return _verified(x, y, x * y)
    alpha, beta = ideal_reduce(x, y)
    if not alpha * beta:
        gamma = (CycleSum.one() + (alpha + beta).plus_closure.as_cycles()) * alpha
        return _verified(x, y, gamma)
    return IdealMeetResult(kind="unknown")


def collision_pair_sets(p: CubicPoly) -> tuple[CycleSum, CycleSum]:
    """The collision pair of ``poly.degenerate_witness``, by CycleSum products."""
    a0 = p.a.odd_part
    c0 = p.c.odd_part
    b0 = p.b.odd_part
    c2 = CycleSum.single(2)
    if (a0, c0) != (OddSet(), ODD_ONE):
        for x0 in (OddSet(), ODD_ONE):
            mu = a0 * x0 + c0
            if mu != ODD_ONE:
                x = x0.as_cycles()
                return x, x + (mu + ODD_ONE).as_cycles() * c2
        raise AssertionError("unreachable: some choice above must differ from C1")
    drift = (p.a + p.b + p.c).even_part
    y = b0.as_cycles() + drift * b0.as_cycles()
    return CycleSum.zero(), y


def is_reachable_sets(p: CubicPoly, s: CycleSum) -> bool:
    """``poly.is_reachable`` by OddSet products: bad0 * bad1 = 0."""
    r = s + p.d
    r0 = r.odd_part
    lead = p.a + p.b + p.c
    e = lead.odd_part
    if e * r0 != r0:
        return False
    a0 = p.a.odd_part
    c0 = p.c.odd_part
    bad0 = r0 | (r.even_part.plus_closure * c0.complement())
    bad1 = (e + r0) | ((r + lead).even_part.plus_closure * (a0 + c0).complement())
    return not bad0 * bad1


def unreached_target_sets(p: CubicPoly) -> tuple[Optional[CycleSum], str]:
    """The unreached target of ``poly.degenerate_witness`` and its reason."""
    e = (p.a + p.b + p.c).odd_part
    c2 = CycleSum.single(2)
    drift = (p.a + p.b + p.c).even_part
    t1 = p.d + CycleSum.one() + c2 + drift
    if e != ODD_ONE:
        return t1, (
            "level-0 equation needs the combined leading coefficient "
            f"odd part to be C1, found {e}"
        )
    c0 = p.c.odd_part
    t2 = p.d + c2
    if c0 != ODD_ONE:
        return t2, (
            "forced level-0 value 0 leaves the even levels scaled by "
            f"{c0}, which cannot produce C2"
        )
    a0 = p.a.odd_part
    if a0:
        return t1, (
            "forced level-0 value C1 leaves the even levels scaled by "
            f"{a0 + ODD_ONE}, which cannot produce C2"
        )
    return None, ""
