"""The benchmark's self-test runs both workloads on a few small operations
against the program in ``src/``, so a change that breaks what the benchmark
uses (``cli.DEFAULT_CONFIG``, ``Model.bcfg``, the config keyword arguments)
fails here too."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "self-test passed" in proc.stdout
