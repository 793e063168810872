"""Shared fixtures of the test suite."""

import os
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

import pytest

import schubert_fusion

SRC = Path(schubert_fusion.__file__).resolve().parents[1]

# Put in front of a child's script: at exit, also after sys.exit, the child
# prints its own peak RSS in KiB as the last line of its stderr.  That is
# VmHWM, which counts this process alone, or ru_maxrss where /proc is
# absent: on Linux a child's ru_maxrss starts at its parent's resident size
# (a child of a 300 MB parent read 321 120 KiB there and 13 564 KiB in
# VmHWM).
_PEAK_RSS = """\
import atexit, os, resource, sys

def _print_peak_rss():
    if os.path.exists("/proc/self/status"):
        with open("/proc/self/status") as fh:
            peak = next(int(line.split()[1]) for line in fh
                        if line.startswith("VmHWM:"))
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(peak, file=sys.stderr)

atexit.register(_print_peak_rss)
"""

Child = namedtuple("Child", "returncode stdout stderr seconds rss_kib")


@pytest.fixture
def run_child():
    """Run a script with its arguments in a fresh interpreter on `SRC`.

    Returns a Child: the exit code, stdout, stderr without the peak line,
    the wall time in seconds and the child's own peak RSS in KiB.
    """
    def run(script, *argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _PEAK_RSS + script, *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        seconds = time.perf_counter() - start
        stderr, _, peak = proc.stderr.rstrip("\n").rpartition("\n")
        return Child(proc.returncode, proc.stdout, stderr, seconds, int(peak))
    return run
