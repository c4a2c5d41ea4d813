"""The benchmark's harness still finds every name of flockpp it uses."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports flockpp from this checkout."""
    src = str(BENCH.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_tracer_installs_and_selftest_passes(monkeypatch) -> None:
    # The tracer wraps flockpp's layer boundaries by name and the self-test
    # runs the benchmark's output checks, so either fails once a name that
    # bench/ reads is gone.
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    done = _python(str(BENCH / "selftest.py"))
    assert done.returncode == 0, done.stdout + done.stderr


def test_tracer_times_sccs_when_installed_before_the_first_graph() -> None:
    # core binds scipy at its first SCC, and the tracer puts a proxy in
    # place of core.csgraph at install.  The first SCC must keep the proxy,
    # so that its calls are counted, and uninstall must restore the module.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "from flockpp import core, protocols, verify\n"
        "assert all(r.all_hold for r in verify.verify_range(protocols.build_protocol_b(7), 7, 1, 10))\n"
        "assert tracer.acc['calls.scc'] >= 1, dict(tracer.acc)\n"
        "tracer.uninstall()\n"
        "from scipy.sparse import csgraph\n"
        "assert core.csgraph is csgraph\n"
    )
    done = _python("-c", code)
    assert done.returncode == 0, done.stdout + done.stderr
