"""Golden CLI corpus: exit code and stdout, byte for byte.

`data/cli_golden.json` lists (argv, exit code, stdout) for every subcommand
but `selftest` (covered by test_cli.test_selftest_trimmed), the `--format
table` renderer and the exit-2/exit-3 paths.  A refactor that keeps the
reports must leave this file unchanged.  After a deliberate change of
output, rewrite the recorded results (the argv list is kept) with

    PYTHONPATH=src python tests/test_cli_golden.py --regenerate
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from schubert_fusion.cli import main

CORPUS = Path(__file__).with_name("data") / "cli_golden.json"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def load():
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("case", load(), ids=lambda case: " ".join(case["argv"]))
def test_golden(case):
    code, stdout = run(case["argv"])
    assert code == case["exit_code"]
    assert stdout == case["stdout"]


def test_corpus_covers_every_subcommand():
    from schubert_fusion.cli import _build_parser

    subparsers = next(a for a in _build_parser()._actions
                      if a.dest == "command")
    seen = {}
    for case in load():
        command = next(a for a in case["argv"] if a in subparsers.choices)
        seen[command] = seen.get(command, 0) + 1
    missing = set(subparsers.choices) - set(seen) - {"selftest"}
    assert not missing
    assert all(count >= 2 for count in seen.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    cases = []
    for case in load():
        code, stdout = run(case["argv"])
        cases.append({"argv": case["argv"], "exit_code": code, "stdout": stdout})
    CORPUS.write_text(
        "[\n" + ",\n".join(json.dumps(case) for case in cases) + "\n]\n")
