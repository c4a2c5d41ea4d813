"""Source mutants that the fast test suite must kill.

Run from anywhere, with the test dependencies installed::

    python tests/run_mutants.py

Each entry of :data:`MUTANTS` is a ``(file, old, new)`` edit of one line or
a few.  The script first runs ``pytest -m "not slow" -x -q`` on an unmutated
copy of the repository, which must pass.  Then, for each mutant, it copies
the repository (without ``.git``) to a temporary directory, requires ``old``
to occur exactly once in ``file`` so that the list cannot go stale
silently (``tests/test_run_mutants.py`` checks the same in the fast
suite), applies the edit and runs the same command, which must report a
failing test (exit status 1) or run past :data:`TIMEOUT_FACTOR` times the
unmutated run: a mutant can make a search run away (wrapped uint8 counts
reach new configurations without end) before any test fails.  It prints
one line per mutant with its time and exits 1 if a mutant survived or
could not be applied.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CORE = "src/flockpp/core.py"
VERIFY = "src/flockpp/verify.py"
SIM = "src/flockpp/sim.py"
LOWERBOUND = "src/flockpp/lowerbound.py"

#: (name, file, old, new)
MUTANTS: list[tuple[str, str, str, str]] = [
    ("witness is the last good node", VERIFY, "np.argmax(bad)", "np.argmin(bad)"),
    (
        "completeness flags the nodes that can accept",
        VERIFY,
        "_verdict(g, ~can_reach_predicate(",
        "_verdict(g, can_reach_predicate(",
    ),
    (
        "completeness counts every component as accepting",
        VERIFY,
        "with_q1[g.scc[accepting]] = True",
        "with_q1[g.scc] = True",
    ),
    ("consensus checks the wrong side", VERIFY, "p.q0 if r == 1 else p.q1", "p.q1 if r == 1 else p.q0"),
    ("consensus looks outside bottom SCCs", VERIFY, "g.bottom[g.scc] & ", ""),
    ("self-loop test off by one", CORE, "doubled > enabled", "doubled >= enabled"),
    (
        "diagonal cell enabled by one agent",
        CORE,
        "self.app_min = (self.app_a == self.app_b)",
        "self.app_min = (self.app_a < 0)",
    ),
    ("edges inside an SCC leave it", CORE, "bottom[own[leaves]] = False", "bottom[own] = False"),
    (
        "bottom scan ignores the greatest target label",
        CORE,
        "                leaves |= np.maximum.reduceat(labels, at) != own\n",
        "",
    ),
    ("trace keeps swapped labels", CORE, "rows.append((x, y, c, d))", "rows.append((a, b) + move)"),
    (
        "reach checks the cap only at the end",
        CORE,
        """        if search.num_nodes > node_cap:
            raise CapExceeded(
                _cap_message(p, n, node_cap), node_cap, search.num_nodes, len(tree) - 1
            )
        yield search, tree, cols
""",
        """        yield search, tree, cols
    if search.num_nodes > node_cap:
        raise CapExceeded(
            _cap_message(p, n, node_cap), node_cap, search.num_nodes, len(tree) - 1
        )
""",
    ),
    (
        "verdict trace walks from the root",
        VERIFY,
        "_tree_path(g.tree, i)",
        "_tree_path(g.tree, 0)",
    ),
    (
        "lazy verdict trace never walks",
        VERIFY,
        "return None if self._pending is None else self._pending()",
        "return None",
    ),
    (
        "verdict equality compares the pending trace",
        VERIFY,
        "_pending: Callable[[], list[TraceStep]] | None = field(default=None, compare=False",
        "_pending: Callable[[], list[TraceStep]] | None = field(default=None, compare=True",
    ),
    (
        "trace target's negative state indexes the last state",
        VERIFY,
        "not 0 <= q < nq or k < 0",
        "q >= nq or k < 0",
    ),
    ("float population size accepted", CORE, "    n = operator.index(n)\n", ""),
    ("simulator redraw bound off by one", SIM, "while y >= m:", "while y > m:"),
    (
        "last count implied with several roots",
        CORE,
        "digits = nq - (len(sizes) == 1)",
        "digits = nq - 1",
    ),
    ("one digit too many per word", CORE, "radix ** (per + 1) <= 2**64", "radix ** (per + 1) <= 2**65"),
    ("same-step results kept", CORE, "if len(self.later):", "if False:"),
    (
        "first appearance read off an unstable sort",
        CORE,
        "first = np.minimum.reduceat(order, starts)",
        "first = order[starts]",
    ),
    ("sweep node cap off by one", LOWERBOUND, "capped |= nodes > node_cap", "capped |= nodes >= node_cap"),
    ("sweep prunes the last size it reads", LOWERBOUND, "keep = size < stop", "keep = size < stop - 1"),
    (
        "sweep skips the last size after a wave that ends just below it",
        LOWERBOUND,
        "while hi < n_max and stop > hi + 1:",
        "while hi < n_max - 1 and stop > hi + 1:",
    ),
]

#: A mutated run this many times slower than the unmutated one is stopped
#: and counts as killed.
TIMEOUT_FACTOR = 5

PYTEST = [sys.executable, "-m", "pytest", "-m", "not slow", "-x", "-q", "-p", "no:cacheprovider"]


def _copy(dest: Path) -> Path:
    repo = dest / "repo"
    shutil.copytree(
        ROOT, repo, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
    )
    return repo


def _pytest(repo: Path, timeout: float | None = None) -> int | None:
    """pytest's exit status on ``repo``, or None if it ran past ``timeout``."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    try:
        done = subprocess.run(
            PYTEST, cwd=repo, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def main() -> int:
    t_all = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        status = _pytest(_copy(Path(tmp)))
    if status != 0:
        print(f"the unmutated suite exits {status}; no mutant can be judged")
        return 1
    timeout = TIMEOUT_FACTOR * (time.perf_counter() - t_all)
    bad = 0
    for name, file, old, new in MUTANTS:
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            repo = _copy(Path(tmp))
            path = repo / file
            text = path.read_text()
            found = text.count(old)
            if found != 1:
                verdict = f"NOT APPLIED (old text occurs {found} times in {file})"
            else:
                path.write_text(text.replace(old, new))
                status = _pytest(repo, timeout)
                if status == 1:
                    verdict = "killed"
                elif status is None:
                    verdict = f"killed (timeout after {timeout:.0f} s)"
                else:
                    verdict = f"SURVIVED (pytest exit {status})"
        bad += not verdict.startswith("killed")
        print(f"{time.perf_counter() - t0:6.1f} s  {verdict:<10}  {name}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} killed in {time.perf_counter() - t_all:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
