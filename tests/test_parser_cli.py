import argparse
import json
import os
import subprocess
import sys
import time

import pytest

import cyclechain
from cyclechain import cli
from cyclechain.chains import ChainSum, Element
from cyclechain.lattice import divisor_atom, divisor_atom_indices, divisor_lattice
from cyclechain.cycles import CycleSum
from cyclechain.parser import (
    MAX_DEPTH,
    Add,
    Atom,
    Mul,
    ParseError,
    parse,
    parse_element,
    parse_poly,
)
from cyclechain.poly import CubicPoly

from conftest import rand_element

C = CycleSum.single


class TestParse:
    def test_precedence(self):
        node = parse("C3 + C5*C2")
        assert node == Add((Atom("C", 3), Mul((Atom("C", 5), Atom("C", 2)))))

    def test_unit_square(self):
        assert parse_element("(C1+C2)^2") == Element.one()

    def test_zero_length_atom_rejected(self):
        with pytest.raises(ParseError):
            parse("L0")
        with pytest.raises(ParseError):
            parse("C0")

    def test_error_carries_offset(self):
        with pytest.raises(ParseError) as err:
            parse("C3 + @")
        assert err.value.pos == 5

    def test_one_is_the_unit(self):
        assert parse_element("1") == Element.one()
        assert parse_element("0") == Element.zero()

    def test_bare_integers_rejected(self):
        with pytest.raises(ParseError):
            parse("2")

    def test_oversized_length_rejected(self):
        with pytest.raises(ParseError):
            parse("C1000001")

    def test_exponent_must_be_positive(self):
        with pytest.raises(ParseError):
            parse("C2^0")

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse("C2 C3")

    def test_variable_only_when_allowed(self):
        with pytest.raises(ParseError):
            parse("x")
        parse("x", allow_var=True)

    def test_roundtrip_on_canonical_forms(self, rng):
        for _ in range(200):
            x = rand_element(rng)
            assert parse_element(str(x)) == x

    def test_print_order(self):
        x = Element(chains=ChainSum([5, 2]), cycles=CycleSum.from_lengths([10, 1]))
        assert str(x) == "C1 + C10 + L2 + L5"


class TestParsePoly:
    def test_worked_polynomial(self):
        p = parse_poly("C2*x^3 + (C1+C4)*x + C5")
        assert p == CubicPoly(
            a=C(2), b=CycleSum.zero(), c=CycleSum.from_lengths([1, 4]), d=C(5)
        )

    def test_high_powers_fold(self):
        assert parse_poly("x^5 + x^3") == CubicPoly(
            a=CycleSum.zero(),
            b=CycleSum.zero(),
            c=CycleSum.zero(),
            d=CycleSum.zero(),
        )

    def test_chains_rejected(self):
        with pytest.raises(ValueError):
            parse_poly("L2*x")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCli:
    def test_eval(self, capsys):
        code, out = run_cli(capsys, "eval", "C3 + C5*C2")
        assert code == 0 and out.strip() == "C3 + C10"

    def test_eval_json(self, capsys):
        code, out = run_cli(capsys, "eval", "C3 + L2", "--json")
        assert code == 0
        assert json.loads(out) == {"cycles": [3], "chains": [2]}

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_main_calls_share_no_state(self, capsys):
        # one parser serves both calls; the second must not keep --json
        assert cli.main(["eval", "C3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"cycles": [3], "chains": []}
        assert cli.main(["eval", "C3"]) == 0
        assert capsys.readouterr().out == "C3\n"

    def test_divide_solvable(self, capsys):
        code, out = run_cli(capsys, "divide", "C3", "C15")
        assert code == 0
        assert "minimal solution: C15" in out

    def test_divide_unsolvable_exit_code(self, capsys):
        code, out = run_cli(capsys, "divide", "C3 + C5", "C1")
        assert code == 1
        assert "no solution" in out

    def test_divide_json_schema(self, capsys):
        code, out = run_cli(capsys, "divide", "C3", "C15", "--json")
        payload = json.loads(out)
        assert payload["solvable"] is True
        assert payload["lambda0"] == [15]
        assert payload["upsilon0"] == [1, 3, 15]
        assert payload["tail_hi"] == [1, 3]
        assert payload["min_solution"] == {"cycles": [15], "chains": []}

    def test_divide_enumerate(self, capsys):
        code, out = run_cli(
            capsys, "divide", "C3", "C15", "--k", "15", "--n", "0",
            "--enumerate", "10", "--json",
        )
        payload = json.loads(out)
        assert sorted(payload["solutions"]) == sorted(
            [[15], [5], [1, 3, 5], [1, 3, 15]]
        )

    def test_divide_mixed(self, capsys):
        code, out = run_cli(
            capsys, "divide", "L1 + C2", "L1", "--k", "1", "--enumerate", "20",
            "--json",
        )
        payload = json.loads(out)
        assert code == 0 and payload["solvable"]
        assert {"cycles": [], "chains": [1]} in payload["solutions"]

    def test_divide_mixed_chain_bound(self, capsys):
        code, out = run_cli(
            capsys, "divide", "L3", "L1", "--k", "1", "--max-chain", "5",
            "--enumerate", "20", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        sols = payload["solutions"]
        assert {"cycles": [], "chains": [1]} in sols
        assert {"cycles": [], "chains": [1, 3, 5]} in sols

    def test_divide_k_bound(self, capsys):
        code, _ = run_cli(capsys, "divide", "C3", "C3", "--k", str(3 * 10**6),
                          "--enumerate", "1")
        assert code == 2

    def test_annihilators(self, capsys):
        code, out = run_cli(capsys, "annihilators", "C3 + C5*C2", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["odd_bound"] == [1, 3, 5, 15]
        assert payload["closure_bound"] == [1, 3]

    def test_atoms_45(self, capsys):
        code, out = run_cli(capsys, "atoms", "45")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 12
        assert lines[0] == "T1 = C1 + C3 + C5 + C15"
        assert lines[-1] == "C45 = T45"

    @pytest.mark.parametrize("ks", [range(1, 4002, 2), (765765, 15015, 18225, 999999)],
                             ids=["odd-up-to-4001", "large"])
    def test_atoms_match_the_lattice_atoms(self, capsys, ks):
        # the command reads the atoms from the bit layout; divisor_atom and
        # divisor_atom_indices build them on the divisor lattice
        for k in ks:
            divisors = divisor_lattice(k).elements
            atoms = {j: sorted(divisor_atom(k, j).support()) for j in divisors}
            expansions = {i: divisor_atom_indices(k, i) for i in divisors}
            text = [f"T{j} = " + " + ".join(map("C{}".format, atom)) for j, atom in atoms.items()]
            text += [f"C{i} = " + " + ".join(map("T{}".format, e)) for i, e in expansions.items()]
            # cmd_atoms directly, on the Namespace that parsing would give
            assert cli.cmd_atoms(argparse.Namespace(k=k, json=False)) == 0
            assert capsys.readouterr().out == "\n".join(text) + "\n"
            assert cli.cmd_atoms(argparse.Namespace(k=k, json=True)) == 0
            assert capsys.readouterr().out == json.dumps({
                "atoms": {str(j): atom for j, atom in atoms.items()},
                "expansions": {str(i): list(e) for i, e in expansions.items()},
            }) + "\n"

    def test_atoms_even_rejected(self, capsys):
        code, _ = run_cli(capsys, "atoms", "6")
        assert code == 2

    def test_classify(self, capsys):
        code, out = run_cli(capsys, "classify", "C1 + C2", "--json")
        payload = json.loads(out)
        assert payload["unit"] is True and payload["regular"] is True

    def test_green_true_false(self, capsys):
        code, out = run_cli(capsys, "green", "C1", "C2", "--rel", "Rtilde")
        assert code == 0 and out.strip() == "true"
        code, out = run_cli(capsys, "green", "C1", "C2", "--rel", "Rstar")
        assert code == 1 and out.strip() == "false"

    def test_ideal_meet(self, capsys):
        code, out = run_cli(capsys, "ideal-meet", "C2", "C2", "--json")
        assert code == 0
        assert json.loads(out) == {"kind": "principal", "generator": [2]}
        code, out = run_cli(capsys, "ideal-meet", "C3 + C2", "C5 + C2", "--json")
        assert code == 1
        assert json.loads(out) == {"kind": "unknown"}

    def test_poly_solve_bijective(self, capsys):
        code, out = run_cli(
            capsys, "poly-solve", "--poly", "x", "--target", "C7", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"bijective": True, "solution": [7]}

    def test_poly_solve_degenerate(self, capsys):
        code, out = run_cli(
            capsys, "poly-solve", "--poly", "x^2", "--target", "C2", "--json"
        )
        payload = json.loads(out)
        assert code == 1 and payload["bijective"] is False
        assert payload["collision"] == [[], [2]]

    def test_oracle_product(self, capsys):
        code, out = run_cli(capsys, "oracle", "product", "C6", "C4", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["cycles"] == {"12": 2}
        assert payload["mod2"] == {"cycles": [], "chains": []}

    def test_oracle_check_divide(self, capsys):
        code, out = run_cli(
            capsys, "oracle", "check-divide", "C1", "C3", "--k", "3", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"solutions": [{"cycles": [3], "chains": []}]}

    def test_parse_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "C0"])
        assert exc.value.code == 2

    def test_selftest_runs_clean(self, capsys):
        code, out = run_cli(capsys, "selftest", "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_cycle_only_commands_reject_chains(self, capsys):
        for argv in (
            ["classify", "L1"],
            ["green", "L1", "C1", "--rel", "R"],
            ["annihilators", "L2 + C3"],
            ["poly-solve", "--poly", "x", "--target", "L1"],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2


class TestInputBudgets:
    def test_deep_nesting_exits_2_without_traceback(self):
        text = "(" * 5000 + "C1" + ")" * 5000
        src = os.path.dirname(os.path.dirname(cyclechain.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "cyclechain.cli", "eval", text],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert "nested deeper" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_nesting_limit(self):
        inner = "(" * MAX_DEPTH + "C3" + ")" * MAX_DEPTH
        assert parse_element(inner) == Element.from_cycles(C(3))
        with pytest.raises(ParseError):
            parse("(" + inner + ")")
        with pytest.raises(ParseError):
            parse("C1" + "^2" * 3000)
        sums = "(C1+" * (MAX_DEPTH - 1) + "C3" + ")" * (MAX_DEPTH - 1)
        assert parse_element(sums) == Element.from_cycles(CycleSum.from_lengths([1, 3]))
        powers = "C3"
        for _ in range(MAX_DEPTH // 2):
            powers = f"({powers} + C5)^3"
        parse_element(powers)

    def test_check_divide_sizes_the_window_first(self, capsys):
        # 999999999 = 3^4 * 37 * 333667 has 20 divisors
        t0 = time.perf_counter()
        code, out = run_cli(capsys, "oracle", "check-divide", "C3", "C15", "--k", "999999999")
        assert code == 1 and "no solution" in out
        code = cli.main(["oracle", "check-divide", "C3", "C3", "--k", "999999999", "--n", "1"])
        assert code == 2
        assert "2**40 candidates" in capsys.readouterr().err
        assert time.perf_counter() - t0 < 5

    def test_check_divide_scans_the_largest_window(self, capsys):
        # 20 divisors: the 2**20 window, the largest the scan accepts
        t0 = time.perf_counter()
        code, out = run_cli(capsys, "oracle", "check-divide", "C3", "C3", "--k", "999999999")
        assert time.perf_counter() - t0 < 10
        assert code == 0 and out.splitlines()[0] == "C1"
        code = cli.main(["oracle", "check-divide", "C3", "C3", "--k", "999999999", "--max-chain", "1"])
        assert code == 2
        assert "2**21 candidates" in capsys.readouterr().err

    def test_check_divide_huge_k_is_a_usage_error(self):
        src = os.path.dirname(os.path.dirname(cyclechain.__file__))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "cyclechain.cli", "oracle", "check-divide", "C3", "C3",
             "--k", "10000000000000000000001"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert time.perf_counter() - t0 < 5
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage:") and "argument --k: must be <=" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_oracle_product_vertex_budget(self, capsys):
        src = os.path.dirname(os.path.dirname(cyclechain.__file__))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "cyclechain.cli", "oracle", "product", "C1000000", "C1000000"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert time.perf_counter() - t0 < 5
        assert proc.returncode == 2
        assert "exceeds the limit" in proc.stderr
        assert "Traceback" not in proc.stderr
        code, out = run_cli(capsys, "oracle", "product", "C1500", "C1500")
        assert code == 0 and out.startswith("1500C1500")

    @pytest.mark.parametrize("a", ["C3", "C3+L1"])
    @pytest.mark.parametrize("n", ["-1", "100001", "10000000"])
    def test_level_bound_out_of_range_is_a_usage_error(self, capsys, a, n):
        with pytest.raises(SystemExit) as exc:
            cli.main(["divide", a, a, "--enumerate", "1", f"--n={n}"])
        assert exc.value.code == 2
        assert "--n" in capsys.readouterr().err

    def test_negative_enumerate_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["divide", "C3", "C15", "--enumerate", "-1"])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_poly_power_folds(self, capsys):
        t0 = time.perf_counter()
        high = run_cli(capsys, "poly-solve", "--poly", "(x+C2)^200000", "--target", "C3", "--json")
        assert time.perf_counter() - t0 < 5
        low = run_cli(capsys, "poly-solve", "--poly", "(x+C2)^2", "--target", "C3", "--json")
        assert high == low
        assert parse_poly("(x+C3)^200001") == parse_poly("(x+C3)^3")

    def test_eval_power_folds(self, capsys):
        t0 = time.perf_counter()
        high = run_cli(capsys, "eval", "C3^1000000")
        assert time.perf_counter() - t0 < 2
        assert high == run_cli(capsys, "eval", "C3^2")
        assert parse_element("(C3 + C2 + L2)^999999") == parse_element("(C3 + C2 + L2)^3")

    def test_poly_solve_beyond_the_divisor_layout(self):
        # the joint modulus of these coefficients has 2**13 divisors
        wide = "C3+C5+C7+C11+C13+C17+C19+C23+C29+C31+C37+C41+C43"
        src = os.path.dirname(os.path.dirname(cyclechain.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "cyclechain.cli", "poly-solve",
             "--poly", f"({wide})*x^3 + (1+{wide})*x", "--target", "C1"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "\nunreached target: " in proc.stdout

    @pytest.mark.parametrize("a", ["C3", "C3+L1"])
    def test_deep_level_bound_exits_0_without_traceback(self, a):
        src = os.path.dirname(os.path.dirname(cyclechain.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "cyclechain.cli", "divide", a, a,
             "--k", "3", "--n", "5000", "--enumerate", "1"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.count("\nsolution:") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("h", ["-3", "1000001", "100000000"])
    def test_max_chain_out_of_range_is_a_usage_error(self, capsys, h):
        with pytest.raises(SystemExit) as exc:
            cli.main(["divide", "L1", "L1", "--enumerate", "1", f"--max-chain={h}"])
        assert exc.value.code == 2
        assert "--max-chain" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["L1", "L1", "--enumerate", "1", "--max-chain", "40"],
        ["L1", "L1", "--enumerate", "1", "--max-chain", "1000000"],
        ["C3", "C15", "--k", "765765", "--enumerate", "1"],
        ["C2", "C2", "--k", "15015", "--n", "1", "--enumerate", "1"],
        ["L1", "L1", "--k", "15015", "--enumerate", "1"],
    ])
    def test_first_solution_does_not_wait_for_the_window(self, capsys, argv):
        t0 = time.perf_counter()
        code, out = run_cli(capsys, "divide", *argv)
        assert time.perf_counter() - t0 < 5
        assert code == 0 and out.count("\nsolution:") == 1
