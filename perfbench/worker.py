"""One pass of a library workload in a fresh interpreter.

    python3 perfbench/worker.py --workload closure --seed 1 --pass 0 [--trace]

Prints one JSON line per operation as it completes, so a pass that is
killed by the resource guard still shows how far it got, then a summary
line.  `--probe` only imports the package and prints the context.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import reference  # noqa: E402

WRONG = object()  # an expected value no result equals


def emit(record):
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def run_ops(ops, tracer, corrupt):
    """Run and check every operation; return the pass's summary.

    Each operation's call time, and the time of the call plus its check,
    are also reported at the nominal speed of `reference`, measured in the
    reference slices run before and after the operation.
    """
    ready = time.monotonic()
    speed = reference.Speedometer()
    wall = wall_ref = 0.0
    for i, (name, call, expect) in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i)
        start = time.monotonic()
        error = None
        try:
            result = call()
        except Exception as exc:  # a failing operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        end = time.monotonic()
        ok = False
        if tracer is not None:
            tracer.end_op()  # the checks below are not the program's work
        if error is None:
            try:
                pairs = expect(result)
                if i == corrupt:
                    pairs[0] = (pairs[0][0], WRONG)
                ok = all(got == want for got, want in pairs)
            except Exception as exc:
                error = f"check: {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.enabled = True
        checked = time.monotonic()
        factor = speed.scale(checked - start)
        wall += checked - start
        wall_ref += (checked - start) * factor
        emit({"op": i, "name": name, "s": end - start, "ref_s": (end - start) * factor,
              "ok": ok, "error": error})
    return {"first_op": ready, "wall_s": wall, "wall_ref_s": wall_ref,
            "ref_rate": speed.rate(), "ref_s": speed.seconds, "first_slice": speed.first}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pass", type=int, dest="pass_index")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="append the pass's spans to this file")
    parser.add_argument("--corrupt", type=int, default=-1,
                        help="index of an operation checked against a wrong value")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    import schubert_fusion  # noqa: F401  (the import is part of set-up)

    if args.probe:  # also compiles the bytecode of every module, cli included
        from schubert_fusion import cli, linalg  # noqa: F401

        emit({"python": sys.version.split()[0],
              "backend": linalg.rational.__module__})
        return
    import workloads

    ops = workloads.LIBRARY_WORKLOADS[args.workload](args.seed, args.pass_index)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    summary = run_ops(ops, tracer, args.corrupt)
    summary["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        summary["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans, process=f"pass{args.pass_index}")
    emit({"summary": summary})


if __name__ == "__main__":
    main()
