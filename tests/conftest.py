import os
import subprocess
import sys
from pathlib import Path

import pytest

import knapreduce


def _peak_rss_kb(code):
    """ru_maxrss of a fresh interpreter that runs code.  Linux carries the
    launching process's peak into a child's ru_maxrss at exec, so the
    interpreter is launched from a small one, not from the test runner."""
    measure = code + "\nimport resource\nprint(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    launcher = ("import subprocess, sys\n"
                "subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)")
    env = {**os.environ, "PYTHONPATH": str(Path(knapreduce.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", launcher, measure],
                          capture_output=True, text=True, check=True, env=env)
    return int(proc.stdout)


@pytest.fixture
def peak_rss_kb():
    return _peak_rss_kb
