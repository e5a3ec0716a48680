"""Command-line surface: expression evaluation, solvers and the oracle.

Exit codes: 0 on success, 1 when an equation has no solution or a queried
relation is false, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from typing import Optional

from . import chains as chains_mod
from . import division, lattice, oracle, poly, structure
from .chains import Element
from .cycles import CycleSum, OddSet
from .parser import ParseError, parse_element, parse_poly


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
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _cycles_or_exit(text: str, what: str) -> CycleSum:
    x = _parse_or_exit(text)
    if x.chains:
        print(f"error: {what} must not contain chains", file=sys.stderr)
        raise SystemExit(2)
    return x.cycles


def cmd_eval(args) -> int:
    x = _parse_or_exit(args.expr)
    if args.json:
        print(json.dumps(element_json(x)))
    else:
        print(x)
    return 0


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
    sols: list = []
    if args.enumerate is not None:
        k = args.k if args.k is not None else math.lcm(sol.a.stats()[0], sol.b.stats()[0])
        n = args.n if args.n is not None else max(a.max_level, b.max_level)
        sols = list(
            itertools.islice(
                division.enumerate_restricted(sol, k, n), args.enumerate
            )
        )
        payload["solutions"] = [cyclesum_json(x) for x in sols]
    if args.json:
        print(json.dumps(payload))
    else:
        if not sol.solvable:
            print("no solution")
        else:
            print(f"solvable; minimal solution: {least}")
            print(f"level 0 interval: [{sol.lambda0}, {sol.upsilon0}]")
            for i, (lo, hi) in enumerate(sol.head, start=1):
                print(f"level {i} interval: [{lo}, {hi}]")
            print(f"tail bound (levels > {sol.n}): {sol.tail_hi}")
            for x in sols:
                print("solution:", x)
    return 0 if sol.solvable else 1


def _divide_mixed(a: Element, b: Element, args) -> int:
    sols = chains_mod.divide_full(a, b)
    payload: dict = {"solvable": sols.solvable, "branches": []}
    for br in sols.branches:
        cyc: dict = {"nonempty": br.cycle.nonempty, "free": br.cycle.free}
        if br.cycle.sol is not None:
            s = br.cycle.sol
            cyc.update(
                {
                    "solvable": s.solvable,
                    "lambda0": oddset_json(s.lambda0),
                    "upsilon0": oddset_json(s.upsilon0),
                    "tail_hi": oddset_json(s.tail_hi),
                }
            )
        chains_payload = []
        for cb in br.chains:
            entry: dict = {
                "parity": cb.parity,
                "kind": cb.kind,
                "cutoff": cb.cutoff,
            }
            if cb.kind == "interval":
                entry["lo"] = [int(d) for d in sorted(cb.lo.lengths)]
                entry["hi"] = [int(d) for d in sorted(cb.hi.lengths)]
                entry["free_tail"] = cb.free_tail
            chains_payload.append(entry)
        payload["branches"].append(
            {"t": br.t, "nonempty": br.nonempty, "cycle": cyc, "chains": chains_payload}
        )
    sols_list: list = []
    if args.enumerate is not None:
        k = args.k if args.k is not None else math.lcm(a.cycles.stats()[0], b.cycles.stats()[0])
        sols_list = list(
            itertools.islice(
                chains_mod.divide_full_restricted(
                    a, b, k, max_level=args.n, max_height=args.max_chain
                ),
                args.enumerate,
            )
        )
        payload["solutions"] = [element_json(x) for x in sols_list]
    if args.json:
        print(json.dumps(payload))
    else:
        if not sols.solvable:
            print("no solution")
        else:
            for br in sols.branches:
                status = "nonempty" if br.nonempty else "empty"
                print(f"branch t={br.t}: {status}")
            for x in sols_list:
                print("solution:", x)
    return 0 if sols.solvable else 1


def cmd_divide(args) -> int:
    a = _parse_or_exit(args.a)
    b = _parse_or_exit(args.b)
    if args.k is not None and not (1 <= args.k <= 10**6):
        print("error: --k must be between 1 and 10^6", file=sys.stderr)
        return 2
    try:
        if not a.chains and not b.chains:
            return _divide_cycles(a.cycles, b.cycles, args)
        return _divide_mixed(a, b, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_annihilators(args) -> int:
    a = _cycles_or_exit(args.a, "annihilator query")
    ann = division.annihilators(a)
    if args.json:
        print(
            json.dumps(
                {
                    "odd_bound": oddset_json(ann.odd_bound),
                    "closure_bound": oddset_json(ann.closure_bound),
                }
            )
        )
    else:
        print(f"z annihilates {a} iff")
        print(f"  level-0 part of z is below {ann.odd_bound}")
        print(f"  and the closure of z is below {ann.closure_bound}")
    return 0


def cmd_atoms(args) -> int:
    k = args.k
    if k < 1 or k % 2 == 0 or k > 10**6:
        print("error: k must be odd, positive and at most 10^6", file=sys.stderr)
        return 2
    bits = lattice.window_bits(k)
    divisors = sorted(bits.divisors)
    atoms = {j: sorted(bits.decode(1 << bits.index[j])) for j in divisors}
    expansions = {i: list(lattice.divisor_atom_indices(k, i)) for i in divisors}
    if args.json:
        print(json.dumps({"atoms": atoms, "expansions": expansions}))
    else:
        lines = [
            f"T{j} = " + " + ".join(f"C{l}" for l in atom)
            for j, atom in atoms.items()
        ]
        lines += [
            f"C{i} = " + " + ".join(f"T{j}" for j in expansion)
            for i, expansion in expansions.items()
        ]
        print("\n".join(lines))
    return 0


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
    if args.json:
        print(json.dumps(payload))
    else:
        for key in ("unit", "idempotent", "regular", "coregular"):
            print(f"{key}: {'yes' if payload[key] else 'no'}")
        print(f"closure: {c.plus_closure}")
        print(f"coregular representative: {c.coregular_rep}")
    return 0


def cmd_green(args) -> int:
    x = _cycles_or_exit(args.x, "relation query")
    y = _cycles_or_exit(args.y, "relation query")
    try:
        related = structure.green(x, y, args.rel)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"relation": args.rel, "related": related}))
    else:
        print("true" if related else "false")
    return 0 if related else 1


def cmd_ideal_meet(args) -> int:
    x = _cycles_or_exit(args.x, "ideal query")
    y = _cycles_or_exit(args.y, "ideal query")
    result = structure.ideal_intersect(x, y)
    if args.json:
        payload = {"kind": result.kind}
        if result.generator is not None:
            payload["generator"] = cyclesum_json(result.generator)
        print(json.dumps(payload))
    else:
        if result.kind == "principal":
            print(f"principal, generated by {result.generator}")
        else:
            print("unknown (no principal generator found by the implemented cases)")
    return 0 if result.kind == "principal" else 1


def cmd_poly_solve(args) -> int:
    try:
        p = parse_poly(args.poly)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    s = _cycles_or_exit(args.target, "polynomial target")
    if poly.is_bijective(p):
        x = poly.solve_bijective(p, s)
        if args.json:
            print(json.dumps({"bijective": True, "solution": cyclesum_json(x)}))
        else:
            print(f"bijective; unique solution: {x}")
        return 0
    w = poly.degenerate_witness(p)
    if args.json:
        print(json.dumps({
            "bijective": False,
            "collision": [cyclesum_json(w.collision[0]), cyclesum_json(w.collision[1])],
            "unreached_target": cyclesum_json(w.unreached),
            "unreached_reason": w.unreached_reason,
        }))
    else:
        print("not bijective")
        print(f"collision: {w.collision[0]}  and  {w.collision[1]}")
        print(f"unreached target: {w.unreached}  ({w.unreached_reason})")
    return 1


def cmd_oracle_product(args) -> int:
    a = _parse_or_exit(args.a)
    b = _parse_or_exit(args.b)
    cm = oracle.closed_form_product(
        oracle.ComponentMultiset.from_element(a),
        oracle.ComponentMultiset.from_element(b),
    )
    try:
        g = oracle.product(oracle.digraph_from_element(a), oracle.digraph_from_element(b))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    explicit = oracle.decompose(g)
    if cm != explicit:
        print("error: closed form and explicit product disagree", file=sys.stderr)
        return 1
    if args.json:
        print(
            json.dumps(
                {
                    "cycles": {str(d): m for d, m in sorted(cm.cycles.items())},
                    "chains": {str(d): m for d, m in sorted(cm.chains.items())},
                    "mod2": element_json(oracle.mod2(cm)),
                }
            )
        )
    else:
        print(cm)
        print(f"mod 2: {oracle.mod2(cm)}")
    return 0


def cmd_oracle_check_divide(args) -> int:
    a = _parse_or_exit(args.a)
    b = _parse_or_exit(args.b)
    space = oracle.SearchSpace(
        k=args.k, max_level=args.n, max_chain=args.max_chain
    )
    try:
        sols = sorted(oracle.exhaustive_divide(a, b, space), key=str)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"solutions": [element_json(x) for x in sols]}))
    else:
        if not sols:
            print("no solution in the window")
        for x in sols:
            print(x)
    return 0 if sols else 1


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    ok = run_selftest(seed=args.seed)
    return 0 if ok else 1


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
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("divide", help="solve a*x = b")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--k", type=int, default=None, help="odd modulus for restricted enumeration")
    p.add_argument("--n", type=functools.partial(_count, cap=10**5), default=None,
                   help="level bound for restricted enumeration, 0 to 10^5")
    p.add_argument("--max-chain", type=functools.partial(_count, cap=10**6), default=None,
                   help="chain height bound (mixed inputs), 0 to 10^6")
    p.add_argument("--enumerate", type=_count, default=None, metavar="M", help="list up to M solutions")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_divide)

    p = sub.add_parser("annihilators", help="describe all z with a*z = 0")
    p.add_argument("a")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_annihilators)

    p = sub.add_parser("atoms", help="atoms of the divisor algebra of odd k")
    p.add_argument("k", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_atoms)

    p = sub.add_parser("classify", help="classify a cycle sum")
    p.add_argument("x")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("green", help="test a divisibility relation")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--rel", choices=list(structure.RELATIONS), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("ideal-meet", help="intersect two principal ideals")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ideal_meet)

    p = sub.add_parser("poly-solve", help="solve P(x) = s for a cubic P")
    p.add_argument("--poly", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_poly_solve)

    po = sub.add_parser("oracle", help="explicit digraph computations")
    osub = po.add_subparsers(dest="oracle_command", required=True)

    p = osub.add_parser("product", help="natural-number product of two elements")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle_product)

    p = osub.add_parser("check-divide", help="solve a*x = b in a window by elimination over F2")
    p.add_argument("a")
    p.add_argument("b")
    # only the size of --k is checked here, so that factoring it cannot
    # run away; a k that is not odd and positive is the window's error
    p.add_argument("--k", type=functools.partial(_at_most, cap=oracle.MAX_SPACE_K),
                   default=1, help="odd modulus of the window, at most 10^12")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--max-chain", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle_check_divide)

    p = sub.add_parser("selftest", help="run the randomized consistency suite")
    p.add_argument("--seed", type=int, default=20240801)
    p.set_defaults(func=cmd_selftest)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    code = args.func(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
