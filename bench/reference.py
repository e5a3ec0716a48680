"""Reference arithmetic on plain length sets, independent of the package.

The benchmark plants answers and checks outputs with these functions, so a
defect in the package's level-coordinate arithmetic cannot hide itself by
producing the expected answer.  A cycle sum is a frozenset of cycle lengths;
an element is a pair (cycle lengths, chain lengths).  Every rule is the
natural-number product formula reduced mod 2:

- C_m * C_n = gcd(m, n) copies of C_lcm(m, n), so one copy when gcd is odd;
- L_e * L_d = L_min(e, d) when e and d have the same parity, else 0;
- L_e * C_d = d copies of L_e, so L_e when d is odd.
"""

from __future__ import annotations

from math import gcd, lcm

Cycles = frozenset
Elem = tuple  # (cycle lengths, chain lengths)

ONE: Cycles = frozenset({1})


def divisors(k: int) -> list[int]:
    return [d for d in range(1, k + 1) if k % d == 0]


def add(a: Cycles, b: Cycles) -> Cycles:
    return a ^ b


def mul(a: Cycles, b: Cycles) -> Cycles:
    out: set[int] = set()
    for p in a:
        for q in b:
            if gcd(p, q) & 1:
                out ^= {lcm(p, q)}
    return frozenset(out)


def power(a: Cycles, e: int) -> Cycles:
    """a**e by binary exponentiation with `mul` (no x**4 = x**2 folding)."""
    out, base = ONE, a
    while e:
        if e & 1:
            out = mul(out, base)
        base = mul(base, base)
        e >>= 1
    return out


def odd_part(a: Cycles) -> Cycles:
    return frozenset(q for q in a if q & 1)


def elem_mul(a: Elem, b: Elem) -> Elem:
    (ac, al), (bc, bl) = a, b
    chains: set[int] = set()
    for e in al:
        for d in bl:
            if (e - d) % 2 == 0:
                chains ^= {min(e, d)}
        if len(odd_part(bc)) & 1:
            chains ^= {e}
    if len(odd_part(ac)) & 1:
        chains ^= set(bl)
    return (mul(ac, bc), frozenset(chains))


def poly_eval(coeffs: tuple[Cycles, Cycles, Cycles, Cycles], x: Cycles) -> Cycles:
    """a*x^3 + b*x^2 + c*x + d for coeffs (a, b, c, d)."""
    a, b, c, d = coeffs
    x2 = mul(x, x)
    return mul(a, mul(x2, x)) ^ mul(b, x2) ^ mul(c, x) ^ d


def modulus(*parts: Cycles) -> int:
    """Least odd k that every odd part of every cycle length divides."""
    k = 1
    for part in parts:
        for q in part:
            k = lcm(k, q >> ((q & -q).bit_length() - 1))
    return k


def atom_bits(e: Cycles, divs: list[int]) -> int:
    """An idempotent (odd lengths) in the atom basis of the k-divisor algebra.

    Bit t is set when an odd number of the lengths in e divide divs[t]: the
    mod-2 zeta transform, under which product is AND and order is inclusion.
    """
    bits = 0
    for t, j in enumerate(divs):
        if sum(1 for q in e if j % q == 0) & 1:
            bits |= 1 << t
    return bits


def free_atoms(lo: Cycles, hi: Cycles, divs: list[int]) -> int:
    """log2 of the size of the order interval [lo, hi] (which must be nonempty)."""
    return (atom_bits(hi, divs) & ~atom_bits(lo, divs)).bit_count()


def window_nullity(a: Elem, k: int, max_level: int, max_chain: int) -> int:
    """log2 of the number of x in the window with a*x = a*x0, for any x0.

    x -> a*x is linear over GF(2) and maps the window into itself (cycle
    odd parts dividing k, levels <= max_level, chains <= max_chain), so the
    count of solutions is 2**(window dimension - rank of that map).
    """
    gens = [(frozenset({q << i}), frozenset()) for q in divisors(k) for i in range(max_level + 1)]
    gens += [(frozenset(), frozenset({d})) for d in range(1, max_chain + 1)]
    index = {g: t for t, g in enumerate(gens)}
    pivots: dict[int, int] = {}
    for g in gens:
        c, l = elem_mul(a, g)
        row = 0
        for q in c:
            row |= 1 << index[(frozenset({q}), frozenset())]
        for d in l:
            row |= 1 << index[(frozenset(), frozenset({d}))]
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(gens) - len(pivots)
