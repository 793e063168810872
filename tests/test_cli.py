"""CLI contract: JSON schema, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import schubert_fusion
from schubert_fusion import acceptance
from schubert_fusion.cli import main

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


# Runs the CLI and prints its own peak RSS (ru_maxrss, KiB on Linux) last.
_RSS_CHILD = """\
import resource, sys
from schubert_fusion.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("weights", ["6,6,6,6", "3,3,3,3,3,3,3"])
def test_over_budget_module_exits_3(weights):
    # both are far below the dimension cap (1296 and 2187) and ran for
    # 85-103 s in 1.4-1.5 GB before the wedge model had a block budget
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _RSS_CHILD, "dim", weights],
                          capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3
    assert not proc.stdout
    message, rss_kib = proc.stderr.splitlines()
    assert message.startswith("resource cap: wedge model on")
    assert "budget of 262144 blocks" in message
    assert elapsed < 30
    assert int(rss_kib) < 600 * 1024


@pytest.mark.parametrize("argv, seconds, mib", [
    # each power past the vanishing one still costs a RelationCheck: this
    # ran for 16 s to a 1.5 GB peak before every power was charged
    (("relations", "1", "3000000"), 15, 400),
    # the chain is built step by step, so the first step over the cap
    # stops it before the later, ever longer steps are built
    (("stabilize", "1", "100000", "3"), 10, 200),
], ids=["relations", "stabilize"])
def test_long_input_exits_3(argv, seconds, mib):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _RSS_CHILD, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3
    assert not proc.stdout
    message, rss_kib = proc.stderr.splitlines()
    assert message.startswith("resource cap: ")
    assert elapsed < seconds
    assert int(rss_kib) < mib * 1024


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


@pytest.mark.parametrize("argv", [
    ("flag-check", "2,1", "--random", "-3"),  # no vacuous "0 elements" check
    ("stabilize", "1", "0", "2"),  # one table has nothing to stabilize against
    ("degrees", "--", "-1,0"),  # bundle weights are nonnegative
    ("bundle-exists", "--", "-1,2", "1,1"),
], ids=lambda argv: argv[0])
def test_out_of_domain_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert not out
    assert "invalid input" in err


def test_bundle_split_of_one_part_composition_exits_2(capsys):
    code, out, err = run(capsys, "bundle-split", "2", "1")
    assert code == 2
    assert not out
    assert "a one-part composition has no fibration to split" in err
    assert "1..0" not in err
