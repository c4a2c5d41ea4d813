"""Fresh interpreters: what importing flockpp loads, and ``python -m flockpp``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import flockpp as fp

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports flockpp from this checkout."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True,
    )


def test_import_loads_no_scipy() -> None:
    # scipy is imported at the first SCC or closure; importing the package
    # and the CLI, and everything that builds no graph, never pays for it.
    done = fresh_python("-c", (
        "import sys, flockpp, flockpp.cli\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    ))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]


def test_first_scc_of_a_fresh_process_gives_the_same_reports() -> None:
    # The process's first SCC, and so its import of scipy, comes from this
    # verify_range call.
    done = fresh_python("-c", (
        "import json, sys\n"
        "from dataclasses import replace\n"
        "import flockpp as fp\n"
        "before = 'scipy' in sys.modules\n"
        "reports = fp.verify_range(fp.build_best(7), 7, 1, 10)\n"
        "reports = [repr(replace(r, elapsed=0.0)) for r in reports]\n"
        "print(json.dumps([before, 'scipy' in sys.modules, reports]))"
    ))
    assert done.returncode == 0, done.stderr
    before, after, reports = json.loads(done.stdout)
    assert (before, after) == (False, True)
    assert reports == [
        repr(replace(r, elapsed=0.0)) for r in fp.verify_range(fp.build_best(7), 7, 1, 10)
    ]


@pytest.mark.parametrize("args,code", [
    (["gen", "--family", "b", "--d", "7"], 0),
    (["gen", "--family", "b", "--d", "4"], 2),
    (["verify", "--family", "b", "--d", "7", "--n-lo", "10", "--n-hi", "10", "--node-cap", "10"], 3),
], ids=["ok", "usage", "cap"])
def test_python_m_flockpp_passes_the_exit_code_through(args: list[str], code: int) -> None:
    assert fresh_python("-m", "flockpp", *args).returncode == code
