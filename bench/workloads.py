"""The four seeded workloads: query pools built from a seed, with checks.

A workload is a list of rounds; a round is a fixed list of query templates
whose operands are drawn from the seed.  Every round holds the same mix, so
two seeds differ only in operands and a run's figures do not depend on where
the clock happened to stop inside an unusual stretch of queries.

Each query is timed around `fn(*args)` only.  Its `check` runs afterwards,
outside the timed span, and compares the output with answers planted through
`reference` (never through the package's own level arithmetic) or with an
independent path of the package (the oracle, or the library beside the CLI).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import operator
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable, Optional

import reference as ref

D765765 = ref.divisors(765765)
SIZES = (4, 32, 96)  # terms per cycle sum in solve-mix
LEVELS = 5  # dyadic levels 0-4
CHAIN_HEIGHT = 64  # chain lengths in solve-mix's mixed elements
RELATIONS = ("R", "Rstar", "Rtilde")
POLY_TERMS = {4: 2, 32: 3, 96: 4}  # terms per polynomial coefficient
# is_reachable scans its interval until it meets a solution, so its cost is
# up to 2**free members; above ~12 free atoms one query takes seconds.
POLY_FREE_MAX = 8
FEW_MULTIPLES = [q for q in D765765 if sum(j % q == 0 for j in D765765) <= POLY_FREE_MAX]
ENUM_M = 64  # solutions taken per enumeration query
CYCLE_WINDOWS = tuple((k, n) for k in (15, 105, 1155, 3465, 5005) for n in (1, 2))
MIXED_WINDOW_K = 3
MIXED_HEIGHTS = (8, 12, 16, 20, 24)
ORACLE_CHECK_MAX = 1 << 12  # windows this small are compared with the oracle
# (name, k, max_level, max_chain, queries per round): 2**(d(k)*(n+1)+max_chain)
# candidates.  The counts put the median of all 45 queries of a round, and of
# its 40 searches, in the middle of the w12 searches, and the 90th percentile
# in the middle of the five w14 searches and 10**5-vertex products, not in a
# gap between clusters, where it would jump with the operands.
ORACLE_WINDOWS = (
    ("w10", 15, 1, 2, 10),
    ("w12", 105, 0, 4, 23),
    ("w13", 105, 0, 5, 2),
    ("w14", 15, 1, 6, 3),
    ("w15", 105, 0, 7, 1),
    ("w16", 15, 3, 0, 1),
)
# Every search has exactly 2**6 solutions in its window, so the result sets,
# the cost of listing them and the memory they take do not vary with the seed.
ORACLE_NULLITY = 6
PRODUCT_VERTICES = (2_000, 17_000, 64_000, 104_000, 104_000)
# The CLI caps lengths at 10**6, so its operands use the divisors of
# 45045 = 765765 / 17, whose level-4 lengths stay below that cap.
CLI_DIVS = [d for d in D765765 if 45045 % d == 0]
CLI_NULLITY = 3


@dataclass
class Stream:
    """Result of an enumeration query: when the first solution arrived."""

    first_ns: int
    items: list


@dataclass
class Query:
    kind: str  # template label, e.g. "mul.t32"
    name: str  # span name, "<module>.<function>" of the function called
    spec: tuple  # plain-data inputs, for comparing pools across runs
    fn: Callable[..., Any]
    args: tuple
    check: Callable[[Any], bool]
    # number of solutions in a result, for solution-producing queries
    solutions: Optional[Callable[[Any], int]] = None

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass
class Workload:
    name: str
    rounds: list[list[Query]]
    lattice_ks: set[int] = field(default_factory=set)  # divisor lattices to warm
    warm: list[tuple] = field(default_factory=list)  # other warm-up calls (fn, args)
    cli: Optional["CliInvoker"] = None


# ---------------------------------------------------------------- inputs


def rand_cycles(rng: random.Random, t: int, divs: list[int], levels: int) -> frozenset:
    t = min(t, len(divs) * levels)
    out: set[int] = set()
    while len(out) < t:
        out.add(rng.choice(divs) << rng.randrange(levels))
    return frozenset(out)


def rand_chains(rng: random.Random, c: int, height: int) -> frozenset:
    return frozenset(rng.sample(range(1, height + 1), min(c, height)))


def divs_of(k: int) -> list[int]:
    if 765765 % k == 0:
        return [d for d in D765765 if k % d == 0]
    return ref.divisors(k)


def even_cycles(rng: random.Random, t: int, divs: list[int] = D765765) -> frozenset:
    return frozenset(rng.choice(divs) << rng.randint(1, LEVELS - 1) for _ in range(t))


def text(cycles: frozenset = frozenset(), chains: frozenset = frozenset()) -> str:
    terms = [f"C{q}" for q in sorted(cycles)] + [f"L{d}" for d in sorted(chains)]
    return " + ".join(terms) if terms else "0"


class Lib:
    """Converters between plain length sets and the package's types.

    `build_ns` sums the time spent constructing package objects, the part of
    input generation that the package itself pays for; the benchmark's own
    random draws are not in it.
    """

    def __init__(self, mods):
        self.m = mods
        self.build_ns = 0

    def _make(self, fn, *args):
        t0 = perf_counter_ns()
        out = fn(*args)
        self.build_ns += perf_counter_ns() - t0
        return out

    def cyc(self, lengths) -> Any:
        return self._make(self.m.cycles.CycleSum.from_lengths, lengths)

    def elem(self, e) -> Any:
        c = self.m.chains
        return self._make(lambda: c.Element(chains=c.ChainSum(e[1]),
                                            cycles=c.CycleSum.from_lengths(e[0])))

    def poly(self, coeffs) -> Any:
        from_lengths = self.m.cycles.CycleSum.from_lengths
        return self._make(lambda: self.m.poly.CubicPoly(*(from_lengths(c) for c in coeffs)))

    @staticmethod
    def lengths(x) -> frozenset:
        return frozenset(x.lengths())

    @staticmethod
    def elem_lengths(x) -> tuple:
        """(cycle lengths, chain lengths) of an Element, or of a CycleSum."""
        if hasattr(x, "chains"):
            return (frozenset(x.cycles.lengths()), frozenset(x.chains.lengths))
        return (frozenset(x.lengths()), frozenset())


# ---------------------------------------------------------------- solve-mix


def _solve_query(division, a, b, x):
    sol = division.solve(a, b)
    return sol.solvable, division.min_solution(sol), division.membership(sol, x)


def _reachable_poly(rng, terms):
    """A cubic and a planted target s = p(x) whose scan stays small.

    is_reachable scans an interval with one free atom per divisor j of the
    modulus outside the atom support of e = odd part of a + b + c.  Choosing
    c so that e = C1 + C_q leaves exactly the multiples of q free, at most
    POLY_FREE_MAX.
    """
    a, b, d, x = (rand_cycles(rng, terms, D765765, LEVELS) for _ in range(4))
    q = rng.choice(FEW_MULTIPLES)
    c = (ref.odd_part(a) ^ ref.odd_part(b) ^ ref.ONE ^ {q}) | even_cycles(rng, terms)
    coeffs = (a, b, c, d)
    return coeffs, ref.poly_eval(coeffs, x)


def _bijective_poly(rng, terms, divs=D765765):
    a = even_cycles(rng, terms, divs)
    b = even_cycles(rng, terms, divs)
    c = ref.ONE | even_cycles(rng, terms, divs)
    d = rand_cycles(rng, terms, divs, LEVELS)
    return (a, b, c, d)


def _degenerate_poly(rng, terms, divs=D765765):
    a = frozenset({rng.choice(divs)}) | even_cycles(rng, terms, divs)
    return (a,) + tuple(rand_cycles(rng, terms, divs, LEVELS) for _ in range(3))


def stratified(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n draws from [lo, hi], one from each of n equal strata, shuffled: the
    pool's mean exponent, and with it the cost of its powers, barely
    depends on the seed."""
    width = (hi - lo + 1) / n
    out = [lo + int((i + rng.random()) * width) for i in range(n)]
    rng.shuffle(out)
    return out


def solve_mix(lib: Lib, rng: random.Random, rounds: int) -> Workload:
    m = lib.m
    wl = Workload("solve-mix", [], lattice_ks={765765})
    exponents = {t: stratified(rng, rounds, 2, 256) for t in SIZES}
    for r in range(rounds):
        qs: list[Query] = []
        for t in SIZES:
            a, b, x = (rand_cycles(rng, t, D765765, LEVELS) for _ in range(3))
            A, B, X = lib.cyc(a), lib.cyc(b), lib.cyc(x)
            qs.append(Query(f"add.t{t}", "cycles.add", ("add", a, b), operator.add, (A, B),
                            lambda res, a=a, b=b: lib.lengths(res) == a ^ b))
            qs.append(Query(f"mul.t{t}", "cycles.mul", ("mul", a, b), operator.mul, (A, B),
                            lambda res, a=a, b=b: lib.lengths(res) == ref.mul(a, b)))
            e = exponents[t][r]
            qs.append(Query(f"pow.t{t}", "cycles.pow", ("pow", a, e), operator.pow, (A, e),
                            lambda res, a=a, e=e: lib.lengths(res) == ref.power(a, e)))

            ax = ref.mul(a, x)
            qs.append(Query(
                f"solve.t{t}", "division.solve", ("solve", a, ax, x),
                _solve_query, (m.division, A, lib.cyc(ax), X),
                lambda res, a=a, ax=ax: res[0] and res[2] and ref.mul(a, lib.lengths(res[1])) == ax,
                solutions=lambda res: 1))

            def check_classify(c, a=a):
                a2 = ref.mul(a, a)
                a3 = ref.mul(a2, a)
                return (c.is_unit == (ref.odd_part(a) == ref.ONE)
                        and c.is_idempotent == (a2 == a)
                        and c.is_regular == (a3 == a)
                        and lib.lengths(c.coregular_rep) == a ^ a2 ^ a3)

            qs.append(Query(f"classify.t{t}", "structure.classify", ("classify", a),
                            m.structure.classify, (A,), check_classify))

            # y = x*u for a unit u, so all three relations hold
            rel = RELATIONS[r % 3]
            y = ref.mul(x, ref.ONE | even_cycles(rng, 4))
            qs.append(Query(f"green.t{t}", "structure.green", ("green", x, y, rel),
                            m.structure.green, (X, lib.cyc(y), rel), lambda res: res is True))

            # every other round one operand is an idempotent, hence regular,
            # so both the principal and the "unknown" paths are exercised
            u = frozenset(rng.sample(D765765, min(t, 48))) if r % 2 == 0 else a
            U = lib.cyc(u)

            def check_ideal(res, U=U, B=B):
                if res.kind != "principal":
                    return res.kind == "unknown"
                return all(m.division.solve(d, res.generator).solvable for d in (U, B))

            qs.append(Query(f"ideal_intersect.t{t}", "structure.ideal_intersect",
                            ("ideal", u, b), m.structure.ideal_intersect, (U, B), check_ideal))

            ea = (a, rand_chains(rng, rng.randint(1, 8), CHAIN_HEIGHT))
            ex = (x, rand_chains(rng, rng.randint(1, 8), CHAIN_HEIGHT))
            eb = ref.elem_mul(ea, ex)
            EX = lib.elem(ex)
            qs.append(Query(f"divide_full.t{t}", "chains.divide_full", ("divide_full", ea, eb),
                            m.chains.divide_full, (lib.elem(ea), lib.elem(eb)),
                            lambda res, EX=EX: res.solvable and res.contains(EX)))

            terms = POLY_TERMS[t]
            coeffs, s = _reachable_poly(rng, terms)
            wl.lattice_ks.add(ref.modulus(*coeffs, s ^ coeffs[3]))
            qs.append(Query(f"is_reachable.t{t}", "poly.is_reachable", ("reach", coeffs, s),
                            m.poly.is_reachable, (lib.poly(coeffs), lib.cyc(s)),
                            lambda res: res is True))

            pb = _bijective_poly(rng, terms)
            sb = ref.poly_eval(pb, rand_cycles(rng, terms, D765765, LEVELS))
            # not counted as solution-producing: it answers in ~0.06 ms at
            # every size, so with the solves the median of the 6 x 32 times
            # to a solution would fall in the gap between it and solve.t4;
            # the solves alone put it in the middle of solve.t32
            qs.append(Query(f"solve_bijective.t{t}", "poly.solve_bijective", ("bij", pb, sb),
                            m.poly.solve_bijective, (lib.poly(pb), lib.cyc(sb)),
                            lambda res, pb=pb, sb=sb: ref.poly_eval(pb, lib.lengths(res)) == sb))

            pd = _degenerate_poly(rng, terms)
            PD = lib.poly(pd)

            def check_witness(w, pd=pd, PD=PD):
                x0, x1 = (lib.lengths(v) for v in w.collision)
                if x0 == x1 or ref.poly_eval(pd, x0) != ref.poly_eval(pd, x1):
                    return False
                return w.unreached is None or not m.poly.is_reachable(PD, w.unreached)

            qs.append(Query(f"degenerate_witness.t{t}", "poly.degenerate_witness", ("deg", pd),
                            m.poly.degenerate_witness, (PD,), check_witness))
        wl.rounds.append(qs)
    return wl


# ---------------------------------------------------------------- enumerate-window


def _enumerate_cycles(division, a, b, k, n, m):
    it = division.enumerate_restricted(division.solve(a, b), k, n)
    return _take(it, m)


def _enumerate_mixed(chains, a, b, k, max_level, max_height, m):
    it = chains.divide_full_restricted(a, b, k, max_level=max_level, max_height=max_height)
    return _take(it, m)


def _take(it, m) -> Stream:
    first = next(it)
    first_ns = perf_counter_ns()
    return Stream(first_ns, [first, *itertools.islice(it, m - 1)])


def _window_size(k: int, n: int, max_chain: int) -> int:
    return 1 << (len(divs_of(k)) * (n + 1) + max_chain)


def _check_stream(lib, res, a, b, oracle_full=None) -> bool:
    """Every solution verified by the reference product, none repeated, and
    on small windows the complete set equal to the oracle's."""
    sols = [lib.elem_lengths(x) for x in res.items]
    if len(set(sols)) != len(sols):
        return False
    if any(ref.elem_mul(a, x) != b for x in sols):
        return False
    return oracle_full is None or oracle_full()


def _even_odd_count(rng, divs) -> frozenset:
    """Nonzero cycles with an even number of odd lengths.  A divisor with
    such a cycle part leaves chain solutions a free tail above its height,
    so the chain candidates, and the time to the first solution, grow with
    the window's height bound.  Its chains always include L3 and L4, which
    fixes the height where the tails start."""
    while True:
        c = rand_cycles(rng, rng.randint(1, 3), divs, 2)
        if len(ref.odd_part(c)) % 2 == 0:
            return c


def enumerate_window(lib: Lib, rng: random.Random, rounds: int) -> Workload:
    m = lib.m
    o = m.oracle
    wl = Workload("enumerate-window", [])
    for _ in range(rounds):
        qs: list[Query] = []
        for k, n in CYCLE_WINDOWS:
            wl.lattice_ks.add(k)
            divs = divs_of(k)
            # the widest level has half of the window's atoms free, at most
            # 10: 2 at k=15 up to 10 at k=3465.  The enumerator lists every
            # member of every level before the first solution, so that time
            # grows with the window; random divisors of the large windows
            # leave up to 24 free atoms, seconds per query.
            target = min(len(divs) // 2, 10)
            make = m.cycles.CycleSum.from_lengths  # rejected draws stay out of setup_s
            for _ in range(10_000):
                a = rand_cycles(rng, rng.randint(4, 10), divs, n + 1)
                x = rand_cycles(rng, rng.randint(1, 4), divs, n + 1)
                b = ref.mul(a, x)
                sol = m.division.solve(make(a), make(b))
                free = [ref.free_atoms(*(frozenset(e.lengths) for e in sol.level_interval(i)), divs)
                        for i in range(n + 1)]
                if max(free) == target:
                    break
            else:
                raise RuntimeError(f"no cycle window query with {target} free atoms at k={k}")
            A, B = lib.cyc(a), lib.cyc(b)
            ea, eb = (a, frozenset()), (b, frozenset())
            oracle_full = None
            if _window_size(k, n, 0) <= ORACLE_CHECK_MAX:
                def oracle_full(A=A, B=B, k=k, n=n):
                    full = m.division.enumerate_restricted(m.division.solve(A, B), k, n)
                    mine = {lib.lengths(v) for v in full}
                    E = m.chains.Element.from_cycles
                    theirs = o.exhaustive_divide(E(A), E(B), o.SearchSpace(k=k, max_level=n))
                    return mine == {lib.lengths(v.cycles) for v in theirs}
            qs.append(Query(
                f"cycles.k{k}.n{n}", "division.enumerate_restricted", ("enum", a, b, k, n),
                _enumerate_cycles, (m.division, A, B, k, n, ENUM_M),
                lambda res, ea=ea, eb=eb, f=oracle_full: _check_stream(lib, res, ea, eb, f),
                solutions=lambda res: len(res.items)))
        k = MIXED_WINDOW_K
        divs = divs_of(k)
        for h in MIXED_HEIGHTS:
            ea = (_even_odd_count(rng, divs), frozenset({3, 4}) | rand_chains(rng, rng.randint(0, 2), 2))
            ex = (rand_cycles(rng, rng.randint(0, 2), divs, 2), rand_chains(rng, rng.randint(0, 3), h))
            eb = ref.elem_mul(ea, ex)
            A, B = lib.elem(ea), lib.elem(eb)
            oracle_full = None
            if _window_size(k, 1, h) <= ORACLE_CHECK_MAX:
                def oracle_full(A=A, B=B, k=k, h=h):
                    full = m.chains.divide_full_restricted(A, B, k, max_level=1, max_height=h)
                    mine = {lib.elem_lengths(v) for v in full}
                    theirs = o.exhaustive_divide(A, B, o.SearchSpace(k=k, max_level=1, max_chain=h))
                    return mine == {lib.elem_lengths(v) for v in theirs}
            qs.append(Query(
                f"mixed.h{h}", "chains.divide_full_restricted", ("enum_mixed", ea, eb, k, h),
                _enumerate_mixed, (m.chains, A, B, k, 1, h, ENUM_M),
                lambda res, ea=ea, eb=eb, f=oracle_full: _check_stream(lib, res, ea, eb, f),
                solutions=lambda res: len(res.items)))
        wl.rounds.append(qs)
    return wl


# ---------------------------------------------------------------- oracle-check


def _explicit_product(oracle, a, b):
    g = oracle.product(oracle.digraph_from_element(a), oracle.digraph_from_element(b))
    return oracle.decompose(g)


def oracle_check(lib: Lib, rng: random.Random, rounds: int) -> Workload:
    m = lib.m
    o = m.oracle
    wl = Workload("oracle-check", [])
    # The search builds its per-window product rows lazily, one per divisor
    # generator.  One search per window with every generator in the divisor
    # builds them all in set-up; only windows of at most 2**14 candidates,
    # whose scan is cheap, so w15 and w16 still build theirs in the loop.
    for _, k, n, mc, _ in ORACLE_WINDOWS:
        if _window_size(k, n, mc) <= 1 << 14:
            full = lib.elem((frozenset(q << i for q in divs_of(k) for i in range(n + 1)),
                             frozenset(range(1, mc + 1))))
            wl.warm.append((o.exhaustive_divide, (full, full * full,
                                                  o.SearchSpace(k=k, max_level=n, max_chain=mc))))
    for _ in range(rounds):
        qs: list[Query] = []
        for label, k, n, mc, count in ORACLE_WINDOWS:
            divs = divs_of(k)
            space = o.SearchSpace(k=k, max_level=n, max_chain=mc)
            for _ in range(count):
                while True:
                    chains_a = rand_chains(rng, rng.randint(0, 2), mc) if mc else frozenset()
                    ea = (rand_cycles(rng, rng.randint(2, 4), divs, n + 1), chains_a)
                    if ref.window_nullity(ea, k, n, mc) == ORACLE_NULLITY:
                        break
                chains_x = rand_chains(rng, rng.randint(0, mc), mc) if mc else frozenset()
                ex = (rand_cycles(rng, rng.randint(1, 4), divs, n + 1), chains_x)
                eb = ref.elem_mul(ea, ex)
                A, B = lib.elem(ea), lib.elem(eb)

                def check(res, A=A, B=B, ea=ea, eb=eb, ex=ex, k=k, n=n, mc=mc):
                    got = {lib.elem_lengths(v) for v in res}
                    fast = m.chains.divide_full_restricted(A, B, k, max_level=n, max_height=mc)
                    return ex in got and got == {lib.elem_lengths(v) for v in fast}

                qs.append(Query(f"exhaustive.{label}", "oracle.exhaustive_divide",
                                ("exhaustive", ea, eb, k, n, mc),
                                o.exhaustive_divide, (A, B, space), check,
                                solutions=len))
        for v in PRODUCT_VERTICES:
            na = max(2, round(v ** 0.5 * rng.uniform(0.8, 1.25)))
            nb = max(2, v // na)
            p, q = round(na * rng.uniform(0.4, 0.6)), round(nb * rng.uniform(0.4, 0.6))
            ea = (frozenset({p}), frozenset({na - p}))
            eb = (frozenset({q}), frozenset({nb - q}))
            A, B = lib.elem(ea), lib.elem(eb)

            def check(cm, A=A, B=B, ea=ea, eb=eb):
                closed = o.closed_form_product(o.ComponentMultiset.from_element(A),
                                               o.ComponentMultiset.from_element(B))
                return cm == closed and lib.elem_lengths(o.mod2(cm)) == ref.elem_mul(ea, eb)

            qs.append(Query(f"product.v{v}", "oracle.product", ("product", ea, eb),
                            _explicit_product, (o, A, B), check))
        wl.rounds.append(qs)
    return wl


# ---------------------------------------------------------------- cli-batch


# Runs the CLI as `python -m cyclechain.cli` does, then writes the process's
# own peak RSS to stderr.  VmHWM belongs to the program started by exec;
# ru_maxrss would also keep the peak of the process that launched it.
CLI_MAIN = (
    "import atexit, runpy, sys\n"
    "def peak():\n"
    "    with open('/proc/self/status') as f:\n"
    "        sys.stderr.write(''.join(l for l in f if l.startswith('VmHWM:')))\n"
    "atexit.register(peak)\n"
    "runpy.run_module('cyclechain.cli', run_name='__main__', alter_sys=True)\n"
)


class CliInvoker:
    """Runs one `cyclechain` command: as a subprocess (the measured path) or,
    for the traced run, in-process through `cli.main` with output captured.
    `peak_kb` is the largest peak RSS of any command process so far."""

    def __init__(self, cli_module, src: str):
        self.cli = cli_module
        self.in_process = False
        self.peak_kb = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue()
        proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *argv],
                              env=self.env, capture_output=True, text=True, timeout=120)
        for line in proc.stderr.splitlines():
            if line.startswith("VmHWM:"):
                self.peak_kb = max(self.peak_kb, int(line.split()[1]))
        return proc.returncode, proc.stdout


def _cli_check(expect: Callable[[], tuple[int, Callable[[dict], bool]]]):
    """Check (exit code, JSON payload) against the answer `expect` computes
    in-process."""

    def check(res) -> bool:
        want_code, ok = expect()
        got_code, out = res
        return got_code == want_code and ok(json.loads(out))

    return check


def _poly_text(coeffs) -> str:
    parts = []
    for c, name in zip(coeffs, ("*x^3", "*x^2", "*x", "")):
        if c:
            parts.append(f"({text(c)}){name}")
    return " + ".join(parts) or "0"


def cli_batch(lib: Lib, rng: random.Random, rounds: int, invoker: CliInvoker) -> Workload:
    m = lib.m
    o = m.oracle
    wl = Workload("cli-batch", [], lattice_ks={765765}, cli=invoker)

    def lens(values) -> list[int]:
        return sorted(int(v) for v in values)

    def add(qs, kind, argv, expect, solutions=None):
        qs.append(Query(kind, "cli.main", tuple(argv), invoker, (argv,),
                        _cli_check(expect), solutions=solutions))

    def one(res):
        return 1

    def listed(res):
        return len(json.loads(res[1])["solutions"])

    for r in range(rounds):
        qs: list[Query] = []
        for _ in range(2):
            e1 = (rand_cycles(rng, 3, CLI_DIVS, LEVELS), rand_chains(rng, 2, 16))
            e2 = (rand_cycles(rng, 3, CLI_DIVS, LEVELS), rand_chains(rng, 2, 16))
            e3 = (rand_cycles(rng, 4, CLI_DIVS, LEVELS), frozenset())
            want = ref.elem_mul(e1, e2)
            want = (want[0] ^ e3[0], want[1])
            expr = f"({text(*e1)})*({text(*e2)}) + {text(*e3)}"
            add(qs, "eval", ["eval", expr, "--json"],
                lambda want=want: (0, lambda p, want=want: p == {"cycles": lens(want[0]), "chains": lens(want[1])}))

        a, x = rand_cycles(rng, 8, CLI_DIVS, LEVELS), rand_cycles(rng, 8, CLI_DIVS, LEVELS)
        b = ref.mul(a, x)

        def expect_divide(a=a, b=b):
            mine = lib.lengths(m.division.min_solution(m.division.solve(lib.cyc(a), lib.cyc(b))))
            return 0, lambda p: (p["solvable"] and set(p["min_solution"]["cycles"]) == mine
                                 and ref.mul(a, mine) == b)

        add(qs, "divide", ["divide", text(a), text(b), "--json"], expect_divide, one)

        # every enumeration has at least 8 solutions in its window, and the
        # window search exactly 8, so each round lists the same number
        k, n = CYCLE_WINDOWS[r % 4]
        divs = divs_of(k)
        a = rand_cycles(rng, 3, divs, n + 1)
        while ref.window_nullity((a, frozenset()), k, n, 0) < CLI_NULLITY:
            a = rand_cycles(rng, 3, divs, n + 1)
        x = rand_cycles(rng, 2, divs, n + 1)
        b = ref.mul(a, x)

        def expect_enum(a=a, b=b, k=k, n=n):
            sol = m.division.solve(lib.cyc(a), lib.cyc(b))
            mine = [lens(v.lengths()) for v in itertools.islice(m.division.enumerate_restricted(sol, k, n), 8)]
            return 0, lambda p: p["solutions"] == mine and all(ref.mul(a, frozenset(v)) == b for v in mine)

        add(qs, "divide.enumerate",
            ["divide", text(a), text(b), "--k", str(k), "--n", str(n), "--enumerate", "8", "--json"],
            expect_enum, listed)

        h = MIXED_HEIGHTS[r % len(MIXED_HEIGHTS)]
        divs = divs_of(MIXED_WINDOW_K)
        ea = (rand_cycles(rng, 2, divs, 2), rand_chains(rng, 2, 8))
        ex = (rand_cycles(rng, 1, divs, 2), rand_chains(rng, 2, h))
        eb = ref.elem_mul(ea, ex)

        def expect_mixed(ea=ea, eb=eb, h=h):
            it = m.chains.divide_full_restricted(lib.elem(ea), lib.elem(eb), MIXED_WINDOW_K,
                                                 max_level=1, max_height=h)
            mine = [{"cycles": lens(v.cycles.lengths()), "chains": lens(v.chains.lengths)}
                    for v in itertools.islice(it, 8)]
            ok_ref = all(ref.elem_mul(ea, (frozenset(v["cycles"]), frozenset(v["chains"]))) == eb
                         for v in mine)
            return 0, lambda p: p["solutions"] == mine and ok_ref

        add(qs, "divide.mixed",
            ["divide", text(*ea), text(*eb), "--k", str(MIXED_WINDOW_K), "--n", "1",
             "--max-chain", str(h), "--enumerate", "8", "--json"],
            expect_mixed, listed)

        a = rand_cycles(rng, 8, CLI_DIVS, LEVELS)

        def expect_ann(a=a):
            ann = m.division.annihilators(lib.cyc(a))
            want = {"odd_bound": lens(ann.odd_bound.lengths), "closure_bound": lens(ann.closure_bound.lengths)}
            return 0, lambda p: p == want

        add(qs, "annihilators", ["annihilators", text(a), "--json"], expect_ann)

        for k in (765765, rng.choice([d for d in D765765 if len(divs_of(d)) >= 8])):
            def expect_atoms(k=k):
                lat = m.lattice
                divs = divs_of(k)
                atoms = {str(j): lens(lat.divisor_atom(k, j).support()) for j in divs}
                exps = {str(i): [int(j) for j in lat.divisor_atom_indices(k, i)] for i in divs}
                return 0, lambda p: p == {"atoms": atoms, "expansions": exps}

            add(qs, "atoms.765765" if k == 765765 else "atoms", ["atoms", str(k), "--json"], expect_atoms)

        a = rand_cycles(rng, 8, CLI_DIVS, LEVELS)

        def expect_classify(a=a):
            c = m.structure.classify(lib.cyc(a))
            want = {"unit": c.is_unit, "idempotent": c.is_idempotent, "regular": c.is_regular,
                    "coregular": c.is_coregular, "closure": lens(c.plus_closure.lengths),
                    "coregular_rep": lens(c.coregular_rep.lengths())}
            return 0, lambda p: p == want

        add(qs, "classify", ["classify", text(a), "--json"], expect_classify)

        x = rand_cycles(rng, 8, CLI_DIVS, LEVELS)
        y = ref.mul(x, ref.ONE | even_cycles(rng, 3, CLI_DIVS))
        rel = RELATIONS[r % 3]
        add(qs, "green", ["green", text(x), text(y), "--rel", rel, "--json"],
            lambda rel=rel: (0, lambda p, rel=rel: p == {"relation": rel, "related": True}))

        u = frozenset(rng.sample(CLI_DIVS, 6)) if r % 2 == 0 else rand_cycles(rng, 6, CLI_DIVS, LEVELS)
        v = rand_cycles(rng, 6, CLI_DIVS, LEVELS)

        def expect_meet(u=u, v=v):
            res = m.structure.ideal_intersect(lib.cyc(u), lib.cyc(v))
            want = {"kind": res.kind}
            if res.generator is not None:
                want["generator"] = lens(res.generator.lengths())
            return (0 if res.kind == "principal" else 1), lambda p: p == want

        add(qs, "ideal-meet", ["ideal-meet", text(u), text(v), "--json"], expect_meet)

        pb = _bijective_poly(rng, 2, CLI_DIVS)
        sb = ref.poly_eval(pb, rand_cycles(rng, 3, CLI_DIVS, LEVELS))

        def expect_bij(pb=pb, sb=sb):
            mine = lib.lengths(m.poly.solve_bijective(lib.poly(pb), lib.cyc(sb)))
            return 0, lambda p: (p == {"bijective": True, "solution": lens(mine)}
                                 and ref.poly_eval(pb, mine) == sb)

        add(qs, "poly-solve.bijective",
            ["poly-solve", "--poly", _poly_text(pb), "--target", text(sb), "--json"],
            expect_bij, one)

        pd = _degenerate_poly(rng, 2, CLI_DIVS)
        sd = rand_cycles(rng, 3, CLI_DIVS, LEVELS)

        def expect_deg(pd=pd):
            w = m.poly.degenerate_witness(lib.poly(pd))
            pair = [lens(w.collision[0].lengths()), lens(w.collision[1].lengths())]
            return 1, lambda p: p["bijective"] is False and p["collision"] == pair

        add(qs, "poly-solve.degenerate",
            ["poly-solve", "--poly", _poly_text(pd), "--target", text(sd), "--json"], expect_deg)

        ea = (frozenset({rng.randint(2, 30)}), frozenset({rng.randint(1, 20)}))
        eb = (frozenset({rng.randint(2, 30)}), frozenset({rng.randint(1, 20)}))

        def expect_product(ea=ea, eb=eb):
            cm = o.closed_form_product(o.ComponentMultiset.from_element(lib.elem(ea)),
                                       o.ComponentMultiset.from_element(lib.elem(eb)))
            want_c, want_l = ref.elem_mul(ea, eb)
            want = {"cycles": {str(d): c for d, c in sorted(cm.cycles.items())},
                    "chains": {str(d): c for d, c in sorted(cm.chains.items())},
                    "mod2": {"cycles": lens(want_c), "chains": lens(want_l)}}
            return 0, lambda p: p == want

        add(qs, "oracle.product", ["oracle", "product", text(*ea), text(*eb), "--json"], expect_product)

        _, k, n, mc, _ = ORACLE_WINDOWS[0]
        divs = divs_of(k)
        ea = (rand_cycles(rng, 3, divs, n + 1), rand_chains(rng, 1, mc))
        while ref.window_nullity(ea, k, n, mc) != CLI_NULLITY:
            ea = (rand_cycles(rng, 3, divs, n + 1), rand_chains(rng, 1, mc))
        ex = (rand_cycles(rng, 2, divs, n + 1), rand_chains(rng, 1, mc))
        eb = ref.elem_mul(ea, ex)

        def expect_check_divide(ea=ea, eb=eb, ex=ex, k=k, n=n, mc=mc):
            sols = o.exhaustive_divide(lib.elem(ea), lib.elem(eb), o.SearchSpace(k=k, max_level=n, max_chain=mc))
            mine = {lib.elem_lengths(v) for v in sols}

            def ok(p):
                got = {(frozenset(v["cycles"]), frozenset(v["chains"])) for v in p["solutions"]}
                return got == mine and ex in got

            return 0, ok

        add(qs, "oracle.check-divide",
            ["oracle", "check-divide", text(*ea), text(*eb), "--k", str(k), "--n", str(n),
             "--max-chain", str(mc), "--json"],
            expect_check_divide, listed)
        wl.rounds.append(qs)
    return wl
