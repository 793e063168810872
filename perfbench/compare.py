"""Compare result files of perfbench/run.py, e.g. a parent and a change.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each side's value of a metric is the median over its files.  Results with
another Python version, arithmetic backend, workload, trace mode or run
length (`--seconds`) are refused (exit 2).  An end-to-end metric that got worse by more than its
bound in BENCHMARK.json is flagged, and so is a count of traced runs that
differs between runs of one seed on the same side; either makes the exit
code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUST_MATCH = ("python", "backend", "workload", "trace", "seconds")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    base = [json.loads(Path(f).read_text()) for f in args.base]
    new = [json.loads(Path(f).read_text()) for f in args.new]
    first = base[0]["context"]
    for r in base + new:
        for key in MUST_MATCH:
            if r["context"][key] != first[key]:
                print(f"refused: {key} {r['context'][key]!r} differs from {first[key]!r}",
                      file=sys.stderr)
                return 2
    bounds = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    bad = []
    print(f"{'metric':42s} {'base':>12s} {'new':>12s} {'change':>8s}")
    for name, info in base[0]["metrics"].items():
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new if name in r["metrics"])
        change = (n - b) / b if b else 0.0
        note = ""
        if name in bounds and bounds[name]["better"] == "lower" and change > bounds[name]["bound"]:
            note = f"  worse than the bound {bounds[name]['bound']}"
        if first["trace"] and info["unit"] not in ("s", "1/s"):
            for side in (base, new):
                values = {(r["context"]["seed"], r["metrics"][name]["value"]) for r in side}
                if len(values) > len({seed for seed, _ in values}):
                    note = f"  differs between runs of one seed: {sorted(values)}"
        if note:
            bad.append(name)
        print(f"{name:42s} {b:12.6g} {n:12.6g} {change:+8.1%}{note}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
