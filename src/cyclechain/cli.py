"""Command-line surface: expression evaluation, solvers and the oracle.

Exit codes: 0 on success, 1 when an equation has no solution or a queried
relation is false, 2 on usage or parse errors.

Each command builds its answer once, as a JSON payload and as text lines,
and ``_render`` prints one of them: text lines are made only when they are
printed, so ``--json`` formats no element.  Bad input raises
``ValueError``, which ``main`` prints as ``error: ...`` with exit 2.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from typing import Callable, Iterable, Iterator, Optional

from . import chains as chains_mod
from . import division, lattice, oracle, poly, structure
from .chains import Element
from .cycles import CycleSum, OddSet
from .parser import parse_element, parse_poly


def element_json(x: Element) -> dict:
    return {
        "cycles": [int(q) for q in x.cycles.lengths()],
        "chains": [int(d) for d in sorted(x.chains.lengths)],
    }


def oddset_json(e: OddSet) -> list[int]:
    return [int(q) for q in sorted(e.lengths)]


def cyclesum_json(x: CycleSum) -> list[int]:
    return [int(q) for q in x.lengths()]


def _parse_or_exit(text: str) -> Element:
    try:
        return parse_element(text)
    except ValueError as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _cycles_or_exit(text: str, what: str) -> CycleSum:
    x = _parse_or_exit(text)
    if x.chains:
        print(f"error: {what} must not contain chains", file=sys.stderr)
        raise SystemExit(2)
    return x.cycles


def _render(args, payload, lines: Callable[[], Iterable[object]], code: int = 0) -> int:
    """Print a command's answer and return its exit code: the payload as
    JSON under ``--json``, else each of ``lines()``, made only then."""
    if args.json:
        print(json.dumps(payload))
    else:
        for line in lines():
            print(line)
    return code


def cmd_eval(args) -> int:
    x = _parse_or_exit(args.expr)
    return _render(args, element_json(x), lambda: [x])


def _division_text(solvable: bool, summary: Iterable[str], found: list) -> Iterator[str]:
    """The text of ``divide``: its summary and each solution listed."""
    if not solvable:
        yield "no solution"
        return
    yield from summary
    for x in found:
        yield f"solution: {x}"


def _divide_cycles(a: CycleSum, b: CycleSum, args) -> int:
    sol = division.solve(a, b)
    least = division.min_solution(sol) if sol.solvable else None
    payload: dict = {
        "solvable": sol.solvable,
        "lambda0": oddset_json(sol.lambda0),
        "upsilon0": oddset_json(sol.upsilon0),
        "head": [
            {"i": i, "lo": oddset_json(lo), "hi": oddset_json(hi)}
            for i, (lo, hi) in enumerate(sol.head, start=1)
        ],
        "tail_hi": oddset_json(sol.tail_hi),
        "min_solution": None,
    }
    if sol.solvable:
        payload["min_solution"] = {"cycles": cyclesum_json(least), "chains": []}
    found: list = []
    if args.enumerate is not None:
        k = args.k if args.k is not None else math.lcm(a.stats()[0], b.stats()[0])
        n = args.n if args.n is not None else max(a.max_level, b.max_level)
        found = list(itertools.islice(division.enumerate_restricted(sol, k, n), args.enumerate))
        payload["solutions"] = [cyclesum_json(x) for x in found]

    def summary():
        yield f"solvable; minimal solution: {least}"
        yield f"level 0 interval: [{sol.lambda0}, {sol.upsilon0}]"
        for i, (lo, hi) in enumerate(sol.head, start=1):
            yield f"level {i} interval: [{lo}, {hi}]"
        yield f"tail bound (levels > {sol.n}): {sol.tail_hi}"

    return _render(args, payload, lambda: _division_text(sol.solvable, summary(), found),
                   0 if sol.solvable else 1)


def _divide_mixed(a: Element, b: Element, args) -> int:
    sols = chains_mod.divide_full(a, b)
    payload: dict = {"solvable": sols.solvable, "branches": []}
    for br in sols.branches:
        cyc: dict = {"nonempty": br.cycle.nonempty, "free": br.cycle.free}
        if br.cycle.sol is not None:
            s = br.cycle.sol
            cyc.update(solvable=s.solvable, lambda0=oddset_json(s.lambda0),
                       upsilon0=oddset_json(s.upsilon0), tail_hi=oddset_json(s.tail_hi))
        chains_payload = []
        for cb in br.chains:
            entry: dict = {"parity": cb.parity, "kind": cb.kind, "cutoff": cb.cutoff}
            if cb.kind == "interval":
                entry["lo"] = [int(d) for d in sorted(cb.lo.lengths)]
                entry["hi"] = [int(d) for d in sorted(cb.hi.lengths)]
                entry["free_tail"] = cb.free_tail
            chains_payload.append(entry)
        payload["branches"].append(
            {"t": br.t, "nonempty": br.nonempty, "cycle": cyc, "chains": chains_payload}
        )
    found: list = []
    if args.enumerate is not None:
        k = args.k if args.k is not None else math.lcm(a.cycles.stats()[0], b.cycles.stats()[0])
        restricted = chains_mod.divide_full_restricted(
            a, b, k, max_level=args.n, max_height=args.max_chain
        )
        found = list(itertools.islice(restricted, args.enumerate))
        payload["solutions"] = [element_json(x) for x in found]
    summary = (f"branch t={br.t}: {'nonempty' if br.nonempty else 'empty'}" for br in sols.branches)
    return _render(args, payload, lambda: _division_text(sols.solvable, summary, found),
                   0 if sols.solvable else 1)


def cmd_divide(args) -> int:
    a = _parse_or_exit(args.a)
    b = _parse_or_exit(args.b)
    if args.k is not None and not (1 <= args.k <= 10**6):
        raise ValueError("--k must be between 1 and 10^6")
    if not a.chains and not b.chains:
        return _divide_cycles(a.cycles, b.cycles, args)
    return _divide_mixed(a, b, args)


def cmd_annihilators(args) -> int:
    a = _cycles_or_exit(args.a, "annihilator query")
    ann = division.annihilators(a)
    payload = {
        "odd_bound": oddset_json(ann.odd_bound),
        "closure_bound": oddset_json(ann.closure_bound),
    }
    return _render(args, payload, lambda: [
        f"z annihilates {a} iff",
        f"  level-0 part of z is below {ann.odd_bound}",
        f"  and the closure of z is below {ann.closure_bound}",
    ])


def cmd_atoms(args) -> int:
    k = args.k
    if k < 1 or k % 2 == 0 or k > 10**6:
        raise ValueError("k must be odd, positive and at most 10^6")
    bits = lattice.window_bits(k)
    divisors = sorted(bits.divisors)
    atoms = {j: sorted(bits.decode(1 << bits.index[j])) for j in divisors}
    expansions = {i: list(lattice.divisor_atom_indices(k, i)) for i in divisors}
    return _render(args, {"atoms": atoms, "expansions": expansions}, lambda: itertools.chain(
        (f"T{j} = " + " + ".join(map("C{}".format, atom)) for j, atom in atoms.items()),
        (f"C{i} = " + " + ".join(map("T{}".format, e)) for i, e in expansions.items()),
    ))


def cmd_classify(args) -> int:
    x = _cycles_or_exit(args.x, "classification query")
    c = structure.classify(x)
    payload = {
        "unit": c.is_unit,
        "idempotent": c.is_idempotent,
        "regular": c.is_regular,
        "coregular": c.is_coregular,
        "closure": oddset_json(c.plus_closure),
        "coregular_rep": cyclesum_json(c.coregular_rep),
    }
    keys = ("unit", "idempotent", "regular", "coregular")
    return _render(args, payload, lambda: [
        *(f"{key}: {'yes' if payload[key] else 'no'}" for key in keys),
        f"closure: {c.plus_closure}",
        f"coregular representative: {c.coregular_rep}",
    ])


def cmd_green(args) -> int:
    x = _cycles_or_exit(args.x, "relation query")
    y = _cycles_or_exit(args.y, "relation query")
    related = structure.green(x, y, args.rel)
    return _render(args, {"relation": args.rel, "related": related},
                   lambda: ["true" if related else "false"], 0 if related else 1)


def cmd_ideal_meet(args) -> int:
    x = _cycles_or_exit(args.x, "ideal query")
    y = _cycles_or_exit(args.y, "ideal query")
    result = structure.ideal_intersect(x, y)
    payload = {"kind": result.kind}
    if result.generator is not None:
        payload["generator"] = cyclesum_json(result.generator)
    if result.kind == "principal":
        return _render(args, payload, lambda: [f"principal, generated by {result.generator}"])
    unknown = "unknown (no principal generator found by the implemented cases)"
    return _render(args, payload, lambda: [unknown], 1)


def cmd_poly_solve(args) -> int:
    p = parse_poly(args.poly)
    s = _cycles_or_exit(args.target, "polynomial target")
    if poly.is_bijective(p):
        x = poly.solve_bijective(p, s)
        return _render(args, {"bijective": True, "solution": cyclesum_json(x)},
                       lambda: [f"bijective; unique solution: {x}"])
    w = poly.degenerate_witness(p)
    payload = {
        "bijective": False,
        "collision": [cyclesum_json(w.collision[0]), cyclesum_json(w.collision[1])],
        "unreached_target": cyclesum_json(w.unreached),
        "unreached_reason": w.unreached_reason,
    }
    return _render(args, payload, lambda: [
        "not bijective",
        f"collision: {w.collision[0]}  and  {w.collision[1]}",
        f"unreached target: {w.unreached}  ({w.unreached_reason})",
    ], 1)


def cmd_oracle_product(args) -> int:
    a = _parse_or_exit(args.a)
    b = _parse_or_exit(args.b)
    from_element = oracle.ComponentMultiset.from_element
    cm = oracle.closed_form_product(from_element(a), from_element(b))
    g = oracle.product(oracle.digraph_from_element(a), oracle.digraph_from_element(b))
    if cm != oracle.decompose(g):
        print("error: closed form and explicit product disagree", file=sys.stderr)
        return 1
    mod2 = oracle.mod2(cm)
    payload = {
        "cycles": {str(d): m for d, m in sorted(cm.cycles.items())},
        "chains": {str(d): m for d, m in sorted(cm.chains.items())},
        "mod2": element_json(mod2),
    }
    return _render(args, payload, lambda: [cm, f"mod 2: {mod2}"])


def cmd_oracle_check_divide(args) -> int:
    a = _parse_or_exit(args.a)
    b = _parse_or_exit(args.b)
    space = oracle.SearchSpace(k=args.k, max_level=args.n, max_chain=args.max_chain)
    sols = sorted(oracle.exhaustive_divide(a, b, space), key=str)
    return _render(args, {"solutions": [element_json(x) for x in sols]},
                   lambda: sols or ["no solution in the window"], 0 if sols else 1)


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return 0 if run_selftest(seed=args.seed) else 1


def _at_most(text: str, cap: Optional[int] = None) -> int:
    """argparse type for an int at most cap."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if cap is not None and n > cap:
        raise argparse.ArgumentTypeError(f"must be <= {cap}, got {n}")
    return n


def _count(text: str, cap: Optional[int] = None) -> int:
    """argparse type for a count of items: an int >= 0, at most cap."""
    n = _at_most(text, cap)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once: parsing keeps no state."""
    ap = argparse.ArgumentParser(
        prog="cyclechain",
        description="Exact arithmetic and division for sums of cycles and chains mod 2",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression to canonical form")
    p.add_argument("expr")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("divide", help="solve a*x = b")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--k", type=int, default=None, help="odd modulus for restricted enumeration")
    p.add_argument("--n", type=functools.partial(_count, cap=10**5), default=None,
                   help="level bound for restricted enumeration, 0 to 10^5")
    p.add_argument("--max-chain", type=functools.partial(_count, cap=10**6), default=None,
                   help="chain height bound (mixed inputs), 0 to 10^6")
    p.add_argument("--enumerate", type=_count, default=None, metavar="M",
                   help="list up to M solutions")
    p.set_defaults(func=cmd_divide)

    p = sub.add_parser("annihilators", help="describe all z with a*z = 0")
    p.add_argument("a")
    p.set_defaults(func=cmd_annihilators)

    p = sub.add_parser("atoms", help="atoms of the divisor algebra of odd k")
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_atoms)

    p = sub.add_parser("classify", help="classify a cycle sum")
    p.add_argument("x")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("green", help="test a divisibility relation")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--rel", choices=list(structure.RELATIONS), required=True)
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("ideal-meet", help="intersect two principal ideals")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_ideal_meet)

    p = sub.add_parser("poly-solve", help="solve P(x) = s for a cubic P")
    p.add_argument("--poly", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(func=cmd_poly_solve)

    po = sub.add_parser("oracle", help="explicit digraph computations")
    osub = po.add_subparsers(dest="oracle_command", required=True)

    p = osub.add_parser("product", help="natural-number product of two elements")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_oracle_product)

    p = osub.add_parser("check-divide", help="solve a*x = b in a window by elimination over F2")
    p.add_argument("a")
    p.add_argument("b")
    # only the size of --k is checked here, so that every k it takes
    # factors; a k that is not odd and positive is the window's error
    p.add_argument("--k", type=functools.partial(_at_most, cap=oracle.MAX_SPACE_K),
                   default=1, help="odd modulus of the window, at most 10^12")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--max-chain", type=int, default=0)
    p.set_defaults(func=cmd_oracle_check_divide)

    p = sub.add_parser("selftest", help="run the randomized consistency suite")
    p.add_argument("--seed", type=int, default=20240801)
    p.set_defaults(func=cmd_selftest)

    # every command but selftest answers through _render
    for p in [*sub.choices.values(), *osub.choices.values()]:
        if p.get_default("func") not in (None, cmd_selftest):
            p.add_argument("--json", action="store_true")
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command.  A ``ValueError`` it raises is bad input: printed
    as ``error: ...``, exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
