#!/usr/bin/env python3
"""Print top-anchored character strata along the growing Schubert chain.

For each requested bundle the chain appends 2i copies of the top weight;
the report shows, per extension step i, the co-energy strata of the section
space character down to a chosen depth, plus where the strata stop changing.
The characters come from the peeling recursion, so deep extensions are cheap
even when the section spaces have millions of dimensions: each bundle's
chain is peeled in one pass whose steps share their strata, and only the
top rows of each step's character are read.
"""

import argparse
import sys

from schubert_fusion.fusion import DimensionCapError
from schubert_fusion.verlinde import character_stabilization


def print_report(report) -> None:
    print(f"bundle {report.bundle}:")
    print(f"  section dims {report.dims}"
          f"{' (closed form ok)' if report.dims_match else ' MISMATCH'}")
    for i, table in enumerate(report.tables):
        strata = "; ".join(
            f"d={d}: " + " ".join(
                f"{mult}@{weight}" for weight, mult in sorted(stratum.items()))
            for d, stratum in sorted(table.items()))
        print(f"  i={i}: {strata}")
    if report.stable_from is None:
        print(f"  no stabilization up to i = {len(report.tables) - 1}")
    else:
        print(f"  strata constant from i = {report.stable_from}")
    print()


def parse_bundle(text: str) -> tuple:
    return tuple(int(part) for part in text.split(","))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bundles", nargs="*", type=parse_bundle,
                        default=[(1,), (1, 1), (1, 2)],
                        help="bundles as comma-separated weights, e.g. 1,2")
    parser.add_argument("--i-max", type=int, default=4)
    parser.add_argument("--deg-max", type=int, default=3)
    # recursion cost scales with strata, not dimension
    parser.add_argument("--cap", type=int, default=10 ** 15,
                        help="bound on the section space dimension")
    args = parser.parse_args()
    try:
        reports = [character_stabilization(bundle, args.i_max, args.deg_max,
                                           cap=args.cap)
                   for bundle in args.bundles]
    except ValueError as exc:
        parser.error(str(exc))
    except DimensionCapError as exc:  # exit 3, as the CLI does for its caps
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 3
    for report in reports:
        print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
