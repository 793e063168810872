"""Self-test of the benchmark: a failing operation is counted, not crashed
on and not ignored.

    python3 perfbench/selftest.py

Each case runs perfbench/run.py briefly with a fault injected and checks the
exit code and the counts in the printed result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seed", "1",
                           "--seconds", "1", "--trace", "0"] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def expect_failed(label, args, exactly=None):
    code, result = run(args)
    ok = (code == 1 and result is not None and result["correct"] is False
          and result["failed"] >= 1 and result["attempted"] >= result["failed"]
          and (exactly is None or result["failed"] == exactly))
    counts = result and f"{result['failed']} of {result['attempted']} failed"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: exit {code}, {counts}")
    return ok


def bare_checkout():
    """A directory holding only BENCHMARK.json and perfbench/ must be refused."""
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    code, result = run(["--workload", "closure"], cwd=bare)
    shutil.rmtree(bare)
    ok = code != 0 and result is None
    print(f"{'ok  ' if ok else 'FAIL'} no sources: exit {code}, "
          f"{'no result printed' if result is None else 'printed a result'}")
    return ok


def main():
    results = [
        expect_failed(f"{w}: one wrong expected value", ["--workload", w, "--corrupt", "1"],
                      exactly=1)
        for w in ("closure", "peeling", "flags", "cli")
    ]
    results.append(expect_failed("closure: pass over the time guard",
                                 ["--workload", "closure", "--guard-timeout", "0.3"],
                                 exactly=1))
    results.append(expect_failed("peeling: pass over the memory guard",
                                 ["--workload", "peeling", "--guard-mb", "120"]))
    results.append(bare_checkout())
    print("selftest", "passed" if all(results) else "FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
