"""Smoke tests for the scripts under scripts/, run as separate processes."""

import os
import subprocess
import sys
from pathlib import Path

import schubert_fusion

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = Path(schubert_fusion.__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_stabilization_report_prints_strata():
    proc = run_script("stabilization_report.py", "1,2", "--i-max", "3",
                      "--deg-max", "1")
    assert proc.returncode == 0, proc.stderr
    assert "section dims (6, 54, 486, 4374) (closed form ok)" in proc.stdout
    assert "strata constant from i = 1" in proc.stdout


def test_stabilization_report_rejects_bad_bundle():
    proc = run_script("stabilization_report.py", "2,1")
    assert proc.returncode == 2
    assert not proc.stdout
    assert "weakly increasing" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_stabilization_report_cap_exits_3():
    proc = run_script("stabilization_report.py", "1,2", "--cap", "10")
    assert proc.returncode == 3
    assert not proc.stdout
    assert "exceed the cap of 10" in proc.stderr
    assert "Traceback" not in proc.stderr
