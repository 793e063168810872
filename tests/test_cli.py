"""CLI contract: JSON schema, exit codes, determinism."""

import ast
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import schubert_fusion
from schubert_fusion import acceptance, cli
from schubert_fusion.cli import main
from schubert_fusion.fusion import character_recursive

SRC = Path(schubert_fusion.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def assert_schema(report):
    assert set(report) == {"command", "input", "result", "checks"}
    for chk in report["checks"]:
        assert set(chk) == {"name", "pass", "detail"}
        assert isinstance(chk["pass"], bool)


def test_cli_imports_no_private_name():
    # the cross-checks, their caps and helpers live in acceptance; the CLI
    # computes each result and hands it over
    tree = ast.parse(Path(cli.__file__).read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert "Composition" in names
    assert not [name for name in names if name.startswith("_")]


def test_dim_example(capsys):
    code, report, _ = run_json(capsys, "dim", "2,2,2")
    assert code == 0
    assert_schema(report)
    assert report["result"] == 8
    assert report["checks"][0]["name"] == "product_formula"
    assert report["checks"][0]["pass"]


def test_poincare_example(capsys):
    code, report, _ = run_json(capsys, "poincare", "2,1")
    assert code == 0
    assert report["result"]["coefficients"] == [1, 2, 2, 1]


def test_poincare_recursive_flag(capsys):
    code, report, _ = run_json(capsys, "poincare", "2,3", "--recursive")
    assert code == 0
    assert report["checks"][0]["name"] == "matches_closed_form"
    assert report["checks"][0]["pass"]


def test_poincare_recursive_long_part(capsys):
    code, report, _ = run_json(capsys, "poincare", "3000", "--recursive")
    assert code == 0
    assert report["checks"][0]["pass"]
    assert report["result"]["coefficients"] == [1] * 3001


def test_order_example(capsys):
    code, report, _ = run_json(capsys, "order", "2,1", "1,2")
    assert code == 0
    assert report["result"] == {"leq": False, "geq": False, "comparable": False}


def test_char_self_checks(capsys):
    code, report, _ = run_json(capsys, "char", "2,3")
    assert code == 0
    assert report["result"]["dimension"] == 6
    assert all(chk["pass"] for chk in report["checks"])


@pytest.mark.parametrize("argv, result", [
    (("sections", "4,4,4,4", "4"), 625),
    (("coordring", "9,9,9", "1"), [1, 729]),
], ids=["sections", "coordring"])
def test_module_over_the_oracle_limit_is_checked_by_peeling(capsys, argv,
                                                           result):
    # a module over 512 dimensions is not built: its closed form is checked
    # against the total of the span-free peeling recursion instead
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    assert report["result"] == result
    [check] = report["checks"]
    assert check["pass"]
    assert check["detail"].endswith(", by peeling")


@pytest.mark.parametrize("argv, result", [
    (("sections", "99,99,99", "3"), 10 ** 6),
    (("coordring", "100,100,100", "1"), [1, 10 ** 6]),
], ids=["sections", "coordring"])
def test_module_past_the_peeling_cap_prints_no_check(capsys, argv, result):
    # neither route runs past the dimension cap, so no check is printed: a
    # passing check that no second route decided would read as confirmed
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    assert report["result"] == result
    assert report["checks"] == []


def test_every_subcommand_emits_schema(capsys):
    invocations = [
        ("dim", "2,3"),
        ("char", "2,2"),
        ("relations", "2", "2"),
        ("submodule", "2,3", "1"),
        ("exactseq", "2,3", "1"),
        ("type", "2,2,3"),
        ("order", "2,1", "2,1"),
        ("poincare", "1,1"),
        ("isom", "2,2", "3,3"),
        ("morphism", "1,1", "2"),
        ("bundle-split", "2,1", "1"),
        ("bundle-exists", "1,1,2", "2,1"),
        ("sections", "1,1,2", "2,1"),
        ("degrees", "1,2"),
        ("picard", "2,1"),
        ("coordring", "2,2", "2"),
        ("flag-check", "2,1"),
        ("verlinde-fuse", "2", "1", "1"),
        ("verlinde-limit", "2,2"),
        ("stabilize", "1", "2", "1"),
    ]
    for argv in invocations:
        code, report, _ = run_json(capsys, *argv)
        assert code == 0, argv
        assert_schema(report)
        assert report["command"] == argv[0]
        assert all(chk["pass"] for chk in report["checks"]), argv


def test_invalid_input_exits_2(capsys):
    code, out, err = run(capsys, "dim", "3,2")
    assert code == 2
    assert not out
    assert "invalid input" in err


def test_whitespace_rejected(capsys):
    code, _, err = run(capsys, "dim", "2, 3")
    assert code == 2


def test_unknown_command_exits_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_resource_cap_exits_3(capsys):
    code, out, err = run(capsys, "dim", "7,7,7,7,7,7,7")
    assert code == 3
    assert not out
    assert "resource cap" in err


@pytest.mark.parametrize("argv", [("1000", "1"), ("20", "4")])
def test_long_relation_series_exits_3(argv):
    # in a fresh process, as a user runs it
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "schubert_fusion.cli", "relations", *argv],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert not proc.stdout
    assert "resource cap" in proc.stderr
    assert "Traceback" not in proc.stderr


# Runs the CLI on its arguments, in a child process of `run_child`.
_CLI_CHILD = """\
import sys
from schubert_fusion.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("weights", ["11,11,11,11"])
def test_over_budget_module_exits_3(run_child, weights):
    # far below the dimension cap (14 641); its ten factors of truncation 4
    # make C(25, 10) multisets of their 16 labels, and the closure's factor
    # model interns 2**18 of them after about 2.7 s at about 210 MB
    child = run_child(_CLI_CHILD, "dim", weights)
    assert child.returncode == 3
    assert not child.stdout
    [message] = child.stderr.splitlines()
    assert message.startswith("resource cap: wedge model on")
    assert "budget of 262144 blocks" in message
    assert child.seconds < 30
    assert child.rss_kib < 600 * 1024


@pytest.mark.parametrize("weights", ["6,6,6,6", "3,3,3,3,3,3,3"])
def test_module_past_the_wedge_budget_answers(run_child, weights):
    # both exited 3 on the block budget after 1.5-2.6 s in wedge
    # coordinates (and ran for 85-103 s in 1.4-1.5 GB before the budget);
    # in factor coordinates they answer in 0.1-0.3 s at 20-25 MB, and
    # the whole character is the span-free recursion's
    child = run_child(_CLI_CHILD, "char", weights)
    assert child.returncode == 0, child.stderr
    assert not child.stderr
    report = json.loads(child.stdout)
    assert [c["name"] for c in report["checks"]] == ["total_dimension",
                                                    "peeling_recursion"]
    assert all(c["pass"] for c in report["checks"])
    vector = tuple(int(a) for a in weights.split(","))
    char = {(e["weight"], e["energy"]): e["mult"]
            for e in report["result"]["entries"]}
    assert char == character_recursive(vector)
    assert report["result"]["dimension"] == math.prod(vector)
    assert child.seconds < 10
    assert child.rss_kib < 120 * 1024


def test_large_module_builds_in_a_child_process(run_child):
    # the closure stops at h-weight 0, so (5,5,5,5) interns 92 193 blocks;
    # closing the whole span it interned 148 995 in 2.9-3.4 s and 148 MB
    child = run_child(_CLI_CHILD, "dim", "5,5,5,5")
    assert child.returncode == 0, child.stderr
    assert not child.stderr
    report = json.loads(child.stdout)
    assert report["result"] == 625
    assert report["checks"] == [{"name": "product_formula", "pass": True,
                                 "detail": "product of weights is 625"}]
    assert child.seconds < 10
    assert child.rss_kib < 120 * 1024


@pytest.mark.parametrize("argv, seconds, mib", [
    # each power past the vanishing one still costs its entry of the
    # report: this ran for 16 s to a 1.5 GB peak before every power was
    # charged
    (("relations", "1", "3000000"), 15, 400),
    # the top wedge is a 2n-bit mask, made only once the first power is
    # charged: the first ended in a MemoryError traceback and exit 1, and
    # the second peaked near 270 MB, when it was made before
    (("relations", "99999999999", "1"), 5, 40),
    (("relations", "1000000000", "1"), 5, 40),
    # the chain is built step by step, so the first step over the cap
    # stops it before the later, ever longer steps are built
    (("stabilize", "1", "100000", "3"), 10, 200),
    # a level-k ring holds k + 1 coefficients: this ran into a MemoryError
    # traceback and exit 1 under a 1 GB address-space limit before the
    # level was checked against the dimension cap
    (("verlinde-fuse", "300000000", "0", "0"), 10, 200),
    # the bundle's level is 3 000 001; this took 6.7 s and 174 MB
    (("verlinde-limit", "0,3000000"), 10, 200),
    # far under the level cap, but each fold of the product is charged its
    # coefficient updates: this ran past 60 s in the classical check's fold
    # at level 10 000 before
    (("verlinde-limit", ",".join(["50"] * 200)), 10, 200),
    # the graded pieces, coefficients, entries and translates are charged
    # against the dimension cap: the first ran past 35 s, the second took
    # 5.9 s at a 713 MB peak, the next two 8.3 s and 14.4 s, and the three
    # after them ended in a MemoryError traceback and exit 1 under a
    # 1.5 GB address-space limit; the last ran past 35 s
    (("coordring", "1,1", "99999999999"), 10, 200),
    (("coordring", "2,2", "10000000"), 10, 200),
    (("poincare", "10000000"), 10, 200),
    (("bundle-split", "10000000,1", "1"), 10, 200),
    (("poincare", "100000000"), 10, 200),
    (("bundle-split", "100000000,1", "1"), 10, 200),
    (("morphism", "100000000", "100000000"), 10, 200),
    (("flag-check", "1", "--random", "100000000"), 10, 200),
    # the chain's s * 2n rows are charged too: this ended in a MemoryError
    # traceback and exit 1 under a 1.5 GB address-space limit when not even
    # the 2n unit vectors of the flag space were
    (("flag-check", "100000000"), 10, 200),
    # each graded piece is charged its len(weights) factors: this ran past
    # 30 s when only the i_max + 1 pieces were charged
    (("coordring", ",".join(["2"] * 2000), "99999"), 10, 200),
    # each membership check is charged its s * 2n vectors: this took 32 s
    # when only the 2n coordinates of each translate were charged
    (("flag-check", ",".join(["1"] * 1000), "--random", "4"), 10, 200),
    # results with an integer past the interpreter's limit on printed
    # digits (4300 by default): these ended in a ValueError traceback and
    # exit 1 when the report was rendered after the error handling
    (("coordring", ",".join(["1000000000"] * 1000), "1"), 10, 200),
    (("sections", ",".join(["0"] + ["1000000000"] * 600), "1,600"), 10, 200),
    # the middle coefficient of 15 000 ones has 4514 digits; this exited 2
    # ("invalid input") when the euler_value check put 2^15000, with 4516
    # digits, into its detail
    (("poincare", ",".join(["1"] * 15000)), 10, 200),
], ids=["relations", "relations-huge-n", "relations-long-n", "stabilize",
        "verlinde-fuse", "verlinde-limit", "verlinde-limit-long",
        "coordring-long", "coordring", "poincare", "bundle-split",
        "poincare-long", "bundle-split-long", "morphism", "flag-check-random",
        "flag-check", "coordring-wide", "flag-check-parts", "coordring-digits",
        "sections-digits", "poincare-digits"])
def test_long_input_exits_3(run_child, argv, seconds, mib):
    child = run_child(_CLI_CHILD, *argv)
    assert child.returncode == 3
    assert not child.stdout
    [message] = child.stderr.splitlines()
    assert message.startswith("resource cap: ")
    assert child.seconds < seconds
    assert child.rss_kib < mib * 1024


# edge values: 0, negatives, 10**11 and long runs of 1s and 2s
_EDGE_VECTORS = ["0", "-1", "1", "2", "100000000000", "1,2", "2,1", "0,1",
                 "-1,2", "1,100000000000", ",".join(["1"] * 300),
                 ",".join(["2"] * 300)]
_EDGE_INTS = ["0", "-1", "1", "2", "5", "100000000000"]


def _edge_argvs():
    """Every subcommand but selftest, with one argument (an int option
    included) at a time at each edge value and the rest at 1 (a vector)
    or 2 (an integer)."""
    for name, (_, _, arguments) in cli.COMMANDS.items():
        if name == "selftest":
            continue
        slots = []  # (flag or None, edge values, value at rest)
        for flag, options in arguments:
            if options.get("type") is int:
                slots.append((flag if flag.startswith("--") else None,
                              _EDGE_INTS, "2"))
            elif not flag.startswith("--"):
                slots.append((None, _EDGE_VECTORS, "1"))
        for k, (_, edges, _) in enumerate(slots):
            for edge in edges:
                argv = [name]
                for j, (flag, _, rest) in enumerate(slots):
                    argv += [flag] if flag else []
                    argv.append(edge if j == k else rest)
                yield argv


def test_edge_inputs_exit_0_2_or_3(capsys):
    # each call answers with every check passing, or is refused (2) or
    # capped (3): a failed check (1) or an escaping exception is a fault.
    # `relations 100000000000 2` ended in a MemoryError when the top wedge
    # was made before the first charge, `stabilize 1 2 5` exited 1 on a
    # chain too short to stabilize, and `stabilize 1 2 100000000000` ended
    # in a MemoryError when the depth sized the packing masks
    start = time.perf_counter()
    faults, calls = [], 0
    for argv in _edge_argvs():
        try:
            code = main(argv)
        except Exception as exc:
            code = exc
        capsys.readouterr()
        calls += 1
        if code not in (0, 2, 3):
            faults.append((argv, code))
    assert not faults
    assert calls > 300
    assert time.perf_counter() - start < 20


def test_poincare_of_two_long_parts():
    # each all-ones factor is one pass of prefix sums; the generic product,
    # quadratic in the factors' lengths, took 10.2 s on this
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "schubert_fusion.cli", "poincare", "10000,10000"],
        capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    coeffs = json.loads(proc.stdout)["result"]["coefficients"]
    assert coeffs == [min(j, 20000 - j) + 1 for j in range(20001)]
    assert elapsed < 10


def test_poincare_of_a_long_run():
    # the 8000 equal parts are one power, computed by its recurrence; one
    # pass of prefix sums per part took 36 s on this
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "schubert_fusion.cli", "poincare",
         ",".join(["1"] * 8000)],
        capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    coeffs = json.loads(proc.stdout)["result"]["coefficients"]
    # the binomials of 8000 by their recurrence: one math.comb per j took 7 s
    expected = [1]
    for j in range(8000):
        expected.append(expected[-1] * (8000 - j) // (j + 1))
    assert coeffs == expected
    assert elapsed < 10


def test_poincare_recursive_of_a_long_run():
    # the single-part polynomials are multiplied in a balanced product
    # tree; folding them one part at a time repacked the whole running
    # product per part and took 73 s on this
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "schubert_fusion.cli", "poincare",
         ",".join(["1"] * 4000), "--recursive"],
        capture_output=True, text=True, env=env, timeout=120)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    expected = [1]
    for j in range(4000):
        expected.append(expected[-1] * (4000 - j) // (j + 1))
    assert report["result"]["coefficients"] == expected
    assert [c["pass"] for c in report["checks"]] == [True]
    assert elapsed < 20


def test_bundle_split_of_two_long_parts():
    # the fiber and base polynomials are multiplied by Kronecker
    # substitution, one product of two packed ints; the schoolbook double
    # loop ran past 60 s on these, which the n + 1 charge admits
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "schubert_fusion.cli", "bundle-split",
         "49999,50000", "1"],
        capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    coeffs = report["result"]["total_poincare"]
    assert coeffs == [min(j, 99999 - j) + 1 for j in range(100000)]
    assert [c["pass"] for c in report["checks"]] == [True]
    assert elapsed < 10


def test_curve_degrees_of_a_long_bundle():
    # summing each prefix afresh took 16.3 s on 60 000 ones
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "schubert_fusion.cli", "degrees",
         ",".join(["1"] * 60000)],
        capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"] == list(range(60000, 0, -1))
    assert elapsed < 10


def test_cli_import_skips_dataclasses():
    # importing dataclasses pulls in inspect, ast and dis, and its decorator
    # builds each class with exec: together most of a CLI call's import
    # time, so the result records are namedtuples
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, schubert_fusion.cli; "
            "print('dataclasses' in sys.modules or 'inspect' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_skips_fractions():
    # no module of the package computes with Fraction, so `fractions` (and
    # the decimal and numbers modules it pulls in) load only when
    # linalg.rational is first read
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, schubert_fusion.cli; "
            "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules))); "
            "from schubert_fusion import linalg; import fractions; "
            "print(linalg.rational is fractions.Fraction)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


def test_submodule_needs_valid_index(capsys):
    code, _, err = run(capsys, "submodule", "2,3", "5")
    assert code == 2


@pytest.mark.parametrize("command", ["submodule", "exactseq"])
def test_one_entry_vector_exits_2(capsys, command):
    code, out, err = run(capsys, command, "2", "1")
    assert code == 2
    assert not out
    assert "a one-entry vector has no adjacent pair" in err


def test_flag_check_result_holds_only_dimensions(capsys):
    # the pass flags of the conditions are the checks printed beside it
    code, report, _ = run_json(capsys, "flag-check", "2,1", "--random", "3")
    assert code == 0
    assert report["result"] == {"dimensions": [5, 3]}
    assert [chk["name"] for chk in report["checks"]] == \
        ["profile", "nested", "t_stable", "group_invariance"]
    # s * 2n = 96 000 rows fit the dimension cap
    code, report, _ = run_json(capsys, "flag-check", "12000,12000")
    assert code == 0
    assert report["result"] == {"dimensions": [36000, 24000]}


def test_flag_check_deterministic(capsys):
    first = run(capsys, "flag-check", "2,1", "--random", "15", "--seed", "9")
    second = run(capsys, "flag-check", "2,1", "--random", "15", "--seed", "9")
    assert first == second
    assert first[0] == 0


def test_table_format(capsys):
    code, out, _ = run(capsys, "--format", "table", "dim", "2,2")
    assert code == 0
    assert "command: dim" in out
    assert "check product_formula: pass" in out


def test_verlinde_limit_boundary_flag(capsys):
    code, report, _ = run_json(capsys, "verlinde-limit", "1,1")
    assert code == 0
    assert report["result"]["boundary_nonzero"] is True
    assert report["result"]["multiplicities"] == [1, 0]


def test_selftest_trimmed(capsys):
    code, report, _ = run_json(capsys, "selftest", "--max-n", "2")
    assert code == 0
    assert len(report["checks"]) == 10
    assert all(chk["pass"] for chk in report["checks"])
    assert "2^n ladder n <= 2 ok" in report["result"][0]["detail"]


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_selftest_rejects_nonpositive_max_n(capsys, monkeypatch, max_n):
    def must_not_run(max_n=None):
        pytest.fail("the battery ran on an invalid --max-n")

    monkeypatch.setattr(acceptance, "CRITERIA", (must_not_run,))
    code, out, err = run(capsys, "selftest", "--max-n", max_n)
    assert code == 2
    assert not out
    assert "invalid input" in err


@pytest.mark.parametrize("argv, reason", [
    # no vacuous "0 elements" check
    (("flag-check", "2,1", "--random", "-3"),
     "--random must be a nonnegative integer, got -3"),
    (("coordring", "2,2", "-1"), "imax must be a nonnegative integer, got -1"),
    # one table has nothing to stabilize against
    (("stabilize", "1", "0", "2"), "imax must be a positive integer, got 0"),
    (("degrees", "--", "-1,0"), "entry must be a nonnegative integer"),
    (("bundle-exists", "--", "-1,2", "1,1"), "entry must be a nonnegative"),
    # the help's n, i, t, k, a and b, not the library's truncation, index,
    # cut, level and weight
    (("relations", "0", "1"), "n must be a positive integer, got 0"),
    (("submodule", "2,3", "5"), "i must be an integer in 1..1, got 5"),
    (("exactseq", "2,3,4", "0"), "i must be an integer in 1..2, got 0"),
    (("bundle-split", "2,1", "5"), "t must be an integer in 1..1, got 5"),
    (("verlinde-fuse", "2", "3", "1"), "a must be an integer in 0..2, got 3"),
    (("verlinde-fuse", "-1", "0", "0"),
     "k must be a nonnegative integer, got -1"),
    # i's bound comes from A, so a malformed A keeps the library's message
    (("submodule", "3,2", "5"), "vector must be weakly increasing"),
], ids=["flag-check", "coordring", "stabilize", "degrees", "bundle-exists",
        "relations", "submodule", "exactseq", "bundle-split", "verlinde-fuse",
        "verlinde-fuse-k", "submodule-malformed"])
def test_out_of_domain_input_exits_2(capsys, argv, reason):
    # the message names an argument as the help does (imax, not i_max)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert not out
    assert err.startswith(f"invalid input: {reason}")


def test_stabilize_rejects_a_decreasing_bundle(capsys):
    code, out, err = run(capsys, "stabilize", "2,1", "3", "1")
    assert code == 2
    assert not out
    assert "weakly increasing" in err


def test_bundle_split_of_one_part_composition_exits_2(capsys):
    code, out, err = run(capsys, "bundle-split", "2", "1")
    assert code == 2
    assert not out
    assert "a one-part composition has no fibration to split" in err
    assert "1..0" not in err
