"""Run one CLI request the way `schubert-fusion ARGS...` does, with timings.

    python3 perfbench/cli_boot.py dim 2,2,2

stdout and the exit code are those of `schubert_fusion.cli.main`.  The last
stderr line is "PERFBENCH " + JSON with the monotonic times at which the
interpreter reached this file, finished importing the package and entered
and left `main`, and the process's peak RSS.  With PERFBENCH_TRACE=1 it
also carries the tracing summary, and the spans are appended to the file
named by PERFBENCH_SPANS.
"""

import time

started = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from schubert_fusion import cli  # noqa: E402

imported = time.monotonic()
main, tracer = cli.main, None
if os.environ.get("PERFBENCH_TRACE") == "1":
    import tracing

    tracer = tracing.Tracer()
    tracer.op = int(os.environ.get("PERFBENCH_OP", "0"))
    tracer.install()
    main = tracer.wrap("cli.main", cli.main)
before = time.monotonic()
code = main(sys.argv[1:])
after = time.monotonic()
sys.stdout.flush()
import resource  # noqa: E402  (after the timed part)

record = {"started": started, "imported": imported,
          "before_main": before, "after_main": after,
          "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
if tracer is not None:
    record["trace"] = tracer.summary()
    record["trace"]["counters"].update(tracing.table_sizes())
    if os.environ.get("PERFBENCH_SPANS"):
        tracer.write_spans(os.environ["PERFBENCH_SPANS"], process=sys.argv[1])
print("PERFBENCH " + json.dumps(record), file=sys.stderr)
sys.exit(code)
