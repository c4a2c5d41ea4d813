"""A/B rounds of one benchmark workload in one process.

    python tests/ab_rounds.py --workload verify --a . --b ../parent --rounds 16

Loads the ``flockpp`` package of two source trees side by side (tree A as
``flockpp``, tree B as ``flockpp_b``) and runs every operation of one
workload of ``bench/workloads.py`` against each tree, round by round, in
pairs whose first side alternates.  Each side builds its own operations, so
its protocols come from its own constructors, and a round times every
operation with ``time.process_time``.  The workload module reads the
package through module attributes at call time, so swapping those
attributes swaps every call into the package.

Separate benchmark processes of one tree can differ by more than a small
change does, because each draws its own speed from a shared machine;
alternating the two trees inside one process puts both under the same
conditions.  Prints the median CPU seconds of a round for each side, how
many pairs each side won, and any operation whose output differs between
the sides.  No rounds are checked against the reference; ``bench/run.py``
does that.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The package modules that ``bench/workloads.py`` binds by name.
MODULES = ("core", "lowerbound", "protocols", "sim", "verify")


def load_tree(src: Path, name: str):
    """Import the ``flockpp`` package under ``src`` as package ``name``."""
    init = src / "flockpp" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return {m: importlib.import_module(f"{name}.{m}") for m in MODULES}


def use(workloads, modules) -> None:
    for m, mod in modules.items():
        setattr(workloads, m, mod)


def one_round(workloads, modules, ops, key) -> tuple[float, list[str]]:
    """CPU seconds of the operations, and the ``key`` digest of each output."""
    use(workloads, modules)
    total = 0.0
    digests = []
    for op in ops:
        gc.collect()
        t = time.process_time()
        out = op.run()
        total += time.process_time() - t
        digests.append(repr(key(out)))
    return total, digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["verify", "witness", "bounds", "sim"])
    ap.add_argument("--a", type=Path, default=ROOT, help="source tree A (default: this checkout)")
    ap.add_argument("--b", type=Path, required=True, help="source tree B")
    ap.add_argument("--rounds", type=int, default=16, help="rounds per side")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as bench/run.py sets them, before numpy loads
    sides = {"A": load_tree(args.a.resolve() / "src", "flockpp"),
             "B": load_tree(args.b.resolve() / "src", "flockpp_b")}
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    key = workloads.WORKLOADS[args.workload].key
    ops, digests, times = {}, {}, {s: [] for s in sides}
    for s, modules in sides.items():
        use(workloads, modules)
        workloads.warm_up(args.seed)
        ops[s] = workloads.WORKLOADS[args.workload]().setup(args.seed)
        _, digests[s] = one_round(workloads, modules, ops[s], key)  # warm, not timed
    wins = {s: 0 for s in sides}
    for k in range(args.rounds):
        order = ("A", "B") if k % 2 == 0 else ("B", "A")
        got = {}
        for s in order:
            got[s], _ = one_round(workloads, sides[s], ops[s], key)
            times[s].append(got[s])
        if got["A"] != got["B"]:
            wins[min(got, key=got.get)] += 1
        print(f"round {k + 1:3d}  A {got['A']:.3f} s  B {got['B']:.3f} s", flush=True)

    labels = [op.label for op in ops["A"]]
    differ = [lab for lab, x, y in zip(labels, digests["A"], digests["B"]) if x != y]
    for lab in differ:
        print(f"output differs: {lab}")
    med = {s: statistics.median(t) for s, t in times.items()}
    print(
        f"{args.workload}: median CPU per round A {med['A']:.4f} s, B {med['B']:.4f} s "
        f"(A/B - 1 = {med['A'] / med['B'] - 1:+.1%}); A won {wins['A']}, "
        f"B won {wins['B']} of {args.rounds} pairs; {len(differ)} outputs differ"
    )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
