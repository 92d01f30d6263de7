"""Run Python in a fresh interpreter, with this checkout's package importable.

Settings such as the recursion limit are process-wide, and the in-process
tests call the CLI, which raises them; a fresh interpreter shows the defaults.
"""

import os
import subprocess
import sys
from pathlib import Path

import weakarith

SRC = str(Path(weakarith.__file__).resolve().parent.parent)


def run_python(*args: str, timeout: float = 300) -> subprocess.CompletedProcess:
    """python ARGS in a new process; the result holds exit code, stdout and stderr.

    A process still running after timeout seconds is killed, and
    subprocess.TimeoutExpired fails the test.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


def run_cli(*argv: str, timeout: float = 300) -> subprocess.CompletedProcess:
    """The weakarith command line in a new process."""
    return run_python("-m", "weakarith.cli", *argv, timeout=timeout)
