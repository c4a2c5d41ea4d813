"""The benchmark's harness still finds every name of flockpp it uses."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_selftest_passes(monkeypatch) -> None:
    # The tracer wraps flockpp's layer boundaries by name and the self-test
    # runs the benchmark's output checks, so either fails once a name that
    # bench/ reads is gone.
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    src = str(BENCH.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout + done.stderr
