"""Benchmark of schubert_fusion: one workload, one seed, timed for N seconds.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each pass runs in a fresh
interpreter (module-level memos start cold, as for every CLI user), one
process at a time, under an address-space ceiling and a wall-clock timeout.
`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced passes on one draw and prints the per-layer metrics.  The last
line of stdout is the JSON result; the exit code is 0 only if every
operation was correct.  A result file with a context block is written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("closure", "peeling", "flags", "cli")
GUARD_MB = 2048          # RLIMIT_AS of every child process
PASS_TIMEOUT_S = 60.0    # wall-clock limit of one library pass
REQUEST_TIMEOUT_S = 30.0 # wall-clock limit of one CLI request
MIN_PASSES = 3
MARKER = "PERFBENCH "    # prefix of the bootstrap's timing line on stderr


def child_env(trace=False):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PERFBENCH_TRACE"] = "1" if trace else "0"
    return env


class Guard:
    """Runs one child at a time under RLIMIT_AS and a wall-clock timeout."""

    def __init__(self, mem_mb, timeout_s):
        self.mem_bytes = mem_mb * 1024 * 1024
        self.timeout_s = timeout_s

    def _limit(self):  # runs in the child only, between fork and exec
        resource.setrlimit(resource.RLIMIT_AS, (self.mem_bytes, self.mem_bytes))

    def run(self, argv, env, timeout_s):
        """(spawn time, end time, exit code or None on timeout, stdout, stderr)."""
        spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=env, cwd=ROOT, preexec_fn=self._limit)
        try:
            out, err = proc.communicate(timeout=min(timeout_s, self.timeout_s))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            code = None
        return spawn, time.monotonic(), code, out, err


def children_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Pass:
    def __init__(self):
        self.latencies = []   # seconds per operation
        self.latencies_ref = []  # the same at the reference's nominal speed
        self.setups = []      # seconds from spawn to first operation
        self.setups_ref = []  # the same at the reference's nominal speed
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.wall_s = None
        self.wall_ref_s = None  # wall_s at the reference's nominal speed
        self.ref_rate = None    # reference units per second in this pass
        self.cpu_s = None
        self.rss_mb = 0.0     # largest ru_maxrss of the pass's processes
        self.trace = None     # merged tracing summary of a traced pass
        self.boot = []        # cli bootstrap timings, one dict per request


def library_pass(guard, workload, seed, index, trace, spans, corrupt):
    p = Pass()
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--pass", str(index), "--corrupt", str(corrupt)]
    if trace:
        argv.append("--trace")
        if spans:
            argv += ["--spans", str(spans)]
    cpu0 = children_cpu_s()
    # the set-up's speed: this slice, run just before the spawn, and the
    # worker's first slice, run just after its set-up
    before = reference.run_slice(reference.FIRST_UNITS)
    spawn, _, code, out, err = guard.run(argv, child_env(), PASS_TIMEOUT_S)
    p.cpu_s = children_cpu_s() - cpu0
    summary = None
    for line in out.splitlines():
        try:
            record = json.loads(line)
        except ValueError:  # cut off when the guard killed the pass
            continue
        if "summary" in record:
            summary = record["summary"]
            continue
        p.attempted += 1
        p.latencies.append(record["s"])
        p.latencies_ref.append(record["ref_s"])
        if not record["ok"]:
            p.failed += 1
            p.errors.append(f"{record['name']} #{record['op']}: {record['error'] or 'wrong result'}")
    if summary is None:  # killed by the guard or crashed: the running op failed
        p.attempted += 1
        p.failed += 1
        reason = "timeout" if code is None else f"exit {code}"
        p.errors.append(f"pass {index}: {reason}: {err.strip()[-300:]}")
        return p
    p.setups.append(summary["first_op"] - spawn)
    p.setups_ref.append(p.setups[-1] * reference.Speedometer.around(
        before, summary["first_slice"]))
    p.wall_s = summary["wall_s"]
    p.wall_ref_s = summary["wall_ref_s"]
    p.ref_rate = summary["ref_rate"]
    p.cpu_s -= summary["ref_s"]  # the reference slices are not the program's work
    p.rss_mb = summary["rss_mb"]
    p.trace = summary.get("trace")
    return p


def cli_pass(guard, seed, index, trace, spans, corrupt):
    p = Pass()
    requests = workloads.cli_requests(workloads.pass_rng("cli", seed, index))
    env = child_env(trace)
    if spans:
        env["PERFBENCH_SPANS"] = str(spans)
    summaries = []
    cpu0 = children_cpu_s()
    speed = reference.Speedometer()  # slices run here, between the requests
    wall = wall_ref = 0.0
    for i, (args, expected_code) in enumerate(requests):
        env["PERFBENCH_OP"] = str(i)
        argv = [sys.executable, str(HERE / "cli_boot.py")] + args
        spawn, end, code, out, err = guard.run(argv, env, REQUEST_TIMEOUT_S)
        checked = time.monotonic()
        factor = speed.scale(checked - spawn)
        wall += checked - spawn
        wall_ref += (checked - spawn) * factor
        p.attempted += 1
        p.latencies.append(end - spawn)
        p.latencies_ref.append((end - spawn) * factor)
        boot = None
        for line in err.splitlines():
            if line.startswith(MARKER):
                boot = json.loads(line[len(MARKER):])
        ok = code == expected_code and boot is not None
        if ok and code == 0:
            try:
                report = json.loads(out)
                ok = report["command"] == args[0] and all(c["pass"] for c in report["checks"])
            except (ValueError, KeyError, TypeError):
                ok = False
        if ok and code != 0:
            ok = not out  # error paths print no report
        if i == corrupt:
            ok = False  # as if the expected exit code had been wrong
        if not ok:
            p.failed += 1
            p.errors.append(f"{' '.join(args)}: exit {code}, expected {expected_code}")
        if boot is not None:
            p.setups.append(boot["before_main"] - spawn)
            p.setups_ref.append(p.setups[-1] * factor)
            p.rss_mb = max(p.rss_mb, boot["rss_mb"])
            p.boot.append({"cli.interpreter_s": boot["started"] - spawn,
                           "cli.import_s": boot["imported"] - boot["started"],
                           "cli.main_s": boot["after_main"] - boot["before_main"]})
            if "trace" in boot:
                summaries.append(boot["trace"])
        if code is None:
            break
    p.cpu_s = children_cpu_s() - cpu0
    if code is not None:
        p.wall_s, p.wall_ref_s, p.ref_rate = wall, wall_ref, speed.rate()
    if trace:
        p.trace = tracing.merge(summaries)
    return p


def run_pass(guard, workload, seed, index, trace=False, spans=None, corrupt=-1):
    if workload == "cli":
        return cli_pass(guard, seed, index, trace, spans, corrupt)
    return library_pass(guard, workload, seed, index, trace, spans, corrupt)


def quantile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes):
    """The gated metrics; times are at the reference's nominal speed."""
    latencies = [s for p in passes for s in p.latencies_ref]
    setups = [s for p in passes for s in p.setups_ref]
    return {
        "wall_ref_s": (statistics.median(p.wall_ref_s for p in passes), "s"),
        "op_ref_ms.p50": (1000 * quantile(latencies, 50), "ms"),
        "op_ref_ms.p90": (1000 * quantile(latencies, 90), "ms"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def raw_times(passes):
    """The same times as measured, with the host's speed in them; not gated."""
    latencies = [s for p in passes for s in p.latencies]
    return {
        "setup_s": (statistics.median(s for p in passes for s in p.setups), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "op_ms.p50": (1000 * quantile(latencies, 50), "ms"),
        "op_ms.p90": (1000 * quantile(latencies, 90), "ms"),
        "ref_rate": (statistics.median(p.ref_rate for p in passes), "1/s"),
    }


def layer_metrics(p):
    """Per-layer metrics of one traced pass."""
    names, counters = p.trace["names"], p.trace["counters"]

    def calls(name):
        return names.get(name, [0, 0.0, 0.0])[0]

    def busy(name):
        return names.get(name, [0, 0.0, 0.0])[1]

    def self_time(name):
        return names.get(name, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "fock.apply_current.calls": (calls("fock.apply_current"), "count"),
        "fock.apply_current.busy_s": (busy("fock.apply_current"), "s"),
        "fock.apply_current.terms_out": (counters.get("fock.apply_current.terms_out", 0), "count"),
        "fock.apply_current.terms_per_s": (ratio(counters.get("fock.apply_current.terms_out", 0),
                                                 busy("fock.apply_current")), "1/s"),
        "fock.blocks": (counters.get("fock.blocks", 0), "count"),
        "fock.moves": (counters.get("fock.moves", 0), "count"),
    }
    accepted = counters.get("linalg.insert_reduced.accepted", 0)
    for method in tracing.SPANBASIS_METHODS:
        out[f"linalg.{method}.calls"] = (calls(f"linalg.{method}"), "count")
        out[f"linalg.{method}.busy_s"] = (busy(f"linalg.{method}"), "s")
    out.update({
        "linalg.insert_reduced.accepted": (accepted, "count"),
        "linalg.useful_ratio": (ratio(accepted, calls("linalg.insert_reduced")), "ratio"),
        "linalg.row_terms.mean": (ratio(counters.get("linalg.row_terms.sum", 0), accepted), "terms"),
        "linalg.row_terms.max": (counters.get("linalg.row_terms.max", 0), "count"),
        "fusion.build_module.calls": (calls("fusion.build_module"), "count"),
        "fusion.build_module.busy_s": (busy("fusion.build_module"), "s"),
        "fusion.build_module.self_s": (self_time("fusion.build_module"), "s"),
        "fusion.build_submodule.busy_s": (busy("fusion.build_submodule"), "s"),
        "fusion.character_recursive.calls": (calls("fusion.character_recursive"), "count"),
        "fusion.character_recursive.busy_s": (busy("fusion.character_recursive"), "s"),
        "fusion.peel.strata": (counters.get("fusion.peel.strata", 0), "count"),
        "fusion.peel.hits": (counters.get("fusion.peel.hits", 0), "count"),
        "schubert.group_act.calls": (calls("schubert.group_act"), "count"),
        "schubert.group_act.busy_s": (busy("schubert.group_act"), "s"),
        "schubert.flag_membership.calls": (calls("schubert.flag_membership"), "count"),
        "schubert.flag_membership.busy_s": (busy("schubert.flag_membership"), "s"),
        "schubert.random_group_element.busy_s": (busy("schubert.random_group_element"), "s"),
        "verlinde.character_stabilization.calls": (calls("verlinde.character_stabilization"), "count"),
        "verlinde.character_stabilization.busy_s": (busy("verlinde.character_stabilization"), "s"),
        "verlinde.product_chain.busy_s": (busy("verlinde.product_chain"), "s"),
    })
    for key in ("cli.interpreter_s", "cli.import_s", "cli.main_s"):
        values = [b[key] for b in p.boot]
        out[key] = (statistics.median(values) if values else 0.0, "s")
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = (sum(self_time(name) for name in names
                                      if name.split(".")[0] == layer), "s")
    out["trace.root_s"] = (p.trace["root_s"], "s")
    out["trace.spans"] = (p.trace["spans"], "count")
    return out


def per_layer(untraced, traced):
    """Times are medians over the traced passes; everything else must repeat."""
    per_pass = [layer_metrics(p) for p in traced]
    out, mismatched = {}, []
    for name, (value, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit in ("s", "1/s"):
            out[name] = (statistics.median(values), unit)
        else:
            out[name] = (value, unit)
            if any(v != value for v in values):
                mismatched.append(f"{name}: {values}")
    # each traced pass ran right after an untraced pass on the same draw
    out["trace.overhead_s"] = (statistics.median(t.wall_ref_s - u.wall_ref_s
                                                 for u, t in zip(untraced, traced)), "s")
    return out, mismatched


def git_commit():
    if not (ROOT / ".git").exists():  # an exported checkout
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # hooks for perfbench/selftest.py
    parser.add_argument("--corrupt", type=int, default=-1,
                        help="check operation N of the first pass against a wrong value")
    parser.add_argument("--guard-timeout", type=float, default=PASS_TIMEOUT_S)
    parser.add_argument("--guard-mb", type=int, default=GUARD_MB)
    args = parser.parse_args()

    if not (ROOT / "src" / "schubert_fusion" / "__init__.py").is_file():
        print(f"no schubert_fusion sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    guard = Guard(args.guard_mb, args.guard_timeout)
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = results_dir / f"{tag}.spans.jsonl"
    spans_path.unlink(missing_ok=True)

    # discarded warm-up: writes the bytecode caches and reads the context
    _, _, code, out, err = guard.run(
        [sys.executable, str(HERE / "worker.py"), "--probe"], child_env(), PASS_TIMEOUT_S)
    if code != 0:
        print(f"warm-up failed (exit {code}): {err.strip()[-500:]}", file=sys.stderr)
        return 2
    context = json.loads(out)
    context.update({"nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
                    "seed": args.seed, "workload": args.workload, "trace": args.trace,
                    "seconds": args.seconds, "machine": platform.machine()})

    untraced, traced = [], []
    start = time.monotonic()
    index = 0
    while True:
        corrupt = args.corrupt if index == 0 else -1
        if args.trace:  # untraced and traced passes on the same draw
            untraced.append(run_pass(guard, args.workload, args.seed, 0, corrupt=corrupt))
            traced.append(run_pass(guard, args.workload, args.seed, 0, trace=True,
                                   spans=spans_path if index == 0 else None))
        else:
            untraced.append(run_pass(guard, args.workload, args.seed, index, corrupt=corrupt))
        index += 1
        passes = untraced + traced
        if any(p.wall_s is None for p in passes):
            break  # a guard tripped: the same pass would trip again
        if time.monotonic() - start >= args.seconds and index >= MIN_PASSES:
            break
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics, raw, mismatched = {}, {}, []
    complete = all(p.wall_s is not None for p in passes)  # no guard tripped
    if complete and args.trace:
        metrics, mismatched = per_layer(untraced, traced)
    elif complete:
        metrics = end_to_end(untraced)
    if complete:
        raw = raw_times(untraced)
    correct = failed == 0 and not mismatched and bool(metrics)

    samples = sum(len(p.latencies) for p in untraced)
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    for name, (value, unit) in raw.items():
        print(f"{'raw ' + name:42s} {value:14.6g} {unit}")
    print(f"{'error_rate':42s} {failed / attempted:14.6g} ({failed} of {attempted} operations)")
    print(f"passes {len(untraced)} untraced, {len(traced)} traced; "
          f"{samples} latency samples")
    for line in [e for p in passes for e in p.errors][:20] + mismatched:
        print(f"FAILED {line}")
    record = {
        "context": context,
        "passes": {"untraced": [p.wall_s for p in untraced],
                   "untraced_ref": [p.wall_ref_s for p in untraced],
                   "traced": [p.wall_s for p in traced],
                   "traced_ref": [p.wall_ref_s for p in traced]},
        "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "latency_samples": samples,
        "error_rate": failed / attempted,
        "attempted": attempted, "failed": failed,
        "errors": [e for p in passes for e in p.errors] + mismatched,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
