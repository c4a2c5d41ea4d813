"""The four benchmark workloads: what one operation is, and how it is checked.

Every workload builds its inputs in :meth:`setup` from the run's seed and
returns a list of operations.  One operation is the unit a user waits for;
the runner times each one and keeps its output for :meth:`check`, which
compares the outputs with the independent computations in ``reference``.
The seed only orders the operations and, for ``sim``, picks the simulator
seeds; the set of cells is fixed, so that every seed costs the same work.

The operations call ``flockpp`` through module attributes looked up at call
time (``verify.verify_range``, ``sim.run``, ...), the same names the CLI
subcommands call, so that a traced run sees every call into a layer.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from flockpp import core, lowerbound, protocols, sim, verify

import reference as ref

#: Cells with at most this many nodes are recomputed by the naive reference
#: BFS; larger cells get the checks that do not need the whole graph.
NAIVE_MAX_NODES = 10_000


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    args: tuple


def rng_for(workload: str, seed: int, purpose: str) -> random.Random:
    """The generator for one purpose of one run; ``str`` seeds hash stably."""
    return random.Random(f"{workload}/{seed}/{purpose}")


def warm_up(seed: int) -> None:
    """One tiny call into every layer, so that first-call costs land in the
    set-up of every workload alike."""
    p = protocols.build_protocol_a(3)
    verify.verify_range(p, 3, 1, 4)
    bad = rewrite_encounter(protocols.build_protocol_b(7), "NB(1)", "NB(1)", [("FINAL", "FINAL")])
    rep = verify.verify_range(bad, 7, 2, 2)[0]
    verify.encounter_trace(bad, 2, rep.sound.witness)
    verify.state_count_table(2, 3)
    lowerbound.occurrence_thresholds(p, 5)
    sim.run(p, 2, seed, max_steps=1000)


def rewrite_encounter(p, a_name: str, b_name: str, results) -> core.Protocol:
    """Copy ``p`` with the unordered encounter ``{a, b}`` sent to ``results``."""
    rules = {
        (p.display(a), p.display(b)): [(p.display(x), p.display(y)) for x, y in cell]
        for a, b, cell in p.delta
    }
    rules[(a_name, b_name)] = list(results)
    rules[(b_name, a_name)] = [(y, x) for x, y in results]
    return core.make_protocol(
        f"{p.name}-mut[{a_name}|{b_name}]",
        [s.name for s in p.states],
        p.display(p.q_init),
        [p.display(q) for q in p.q1],
        rules,
        deterministic=p.deterministic,
    )


class Workload:
    name = ""

    def setup(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op], outputs: list[Any]) -> list[str]:
        raise NotImplementedError

    def failed(self, output: Any) -> bool:
        """An operation fails when the program could not give an answer."""
        return False

    @staticmethod
    def key(output: Any) -> tuple:
        """What a later round must reproduce of an output."""
        raise NotImplementedError


# -- verify -------------------------------------------------------------------

#: (family, d, first n, last n): the correct constructions, each over the
#: window of n where one cell takes 10 ms or more.  a(28) at n = 30 holds
#: about 10^5 nodes and sets the peak memory.
VERIFY_CELLS = [
    ("angluin", 24, 20, 27),
    ("pow2", 64, 60, 67),
    ("pow2", 128, 68, 79),
    ("a", 13, 13, 16),
    ("a", 14, 14, 17),
    ("a", 28, 28, 30),
    ("b", 75, 59, 78),
    ("b", 100, 58, 103),
]


def _report_key(rep) -> tuple:
    return (
        rep.nodes_explored,
        rep.bottom_scc_count,
        rep.error,
        tuple((v.status, v.witness) for v in (rep.sound, rep.complete, rep.consensus)),
    )


class VerifyWorkload(Workload):
    """``verify_range(p, d, n, n)`` per cell of the correct constructions."""

    name = "verify"

    def setup(self, seed: int) -> list[Op]:
        ops = []
        for fam, d, lo, hi in VERIFY_CELLS:
            p = protocols.build_family(fam, d)
            for n in range(lo, hi + 1):
                ops.append(Op(f"{p.name} n={n}", _verify_cell(p, d, n), (p, d, n)))
        return ops

    def failed(self, rep) -> bool:
        return rep.error is not None

    def check(self, ops, outputs) -> list[str]:
        problems = []
        for op, rep in zip(ops, outputs):
            p, d, n = op.args
            if not rep.all_hold:
                problems.append(f"{op.label}: a check of a correct construction did not hold")
            if rep.nodes_explored <= NAIVE_MAX_NODES:
                problems += ref.check_report(p, rep, ref.cell_truth(p, d, n))
        return problems

    key = staticmethod(_report_key)


def _verify_cell(p, d, n):
    return lambda: verify.verify_range(p, d, n, n)[0]


# -- witness ------------------------------------------------------------------

#: (family, d, encounter, replacement, first n, last n, checks that fail).
#: Each mutant redirects one unordered encounter of a correct construction
#: and is swept only over population sizes where it fails and its graph
#: holds 10^3 to 10^5 nodes.  Why each one fails is in README.md.  Left out:
#: FINAL,FINAL -> fresh coins, whose graphs reach millions of nodes.
MUTANTS = [
    # Early accept (a): the counter converts after certifying only the
    # leading binary digits of d, so an agent accepts below d.
    ("a", 27, ("B(0)", "NB(16)"), [("FINAL", "NB(16)")], 24, 26, "sound"),
    ("a", 27, ("B(1)", "NB(8)"), [("FINAL", "NB(8)")], 24, 26, "sound"),
    ("a", 29, ("B(0)", "NB(16)"), [("FINAL", "NB(16)")], 24, 28, "sound"),
    ("a", 29, ("B(1)", "NB(8)"), [("FINAL", "NB(8)")], 24, 28, "sound"),
    ("a", 23, ("B(1)", "NB(4)"), [("FINAL", "NB(4)")], 21, 22, "sound"),
    # Premature conversion: the two largest piles below the top merge
    # straight into FINAL, which accepts with 2^k < d coins.
    ("a", 29, ("NB(8)", "NB(8)"), [("FINAL", "FINAL")], 26, 28, "sound"),
    ("b", 45, ("NB(16)", "NB(16)"), [("FINAL", "FINAL")], 39, 44, "sound"),
    ("b", 50, ("NB(16)", "NB(16)"), [("FINAL", "FINAL")], 39, 49, "sound"),
    ("b", 57, ("NB(16)", "NB(16)"), [("FINAL", "FINAL")], 39, 48, "sound"),
    ("b", 75, ("NB(32)", "NB(32)"), [("FINAL", "FINAL")], 64, 68, "sound"),
    # No refund (b): the merge that makes the first 2^k pile bankrupts its
    # partner instead of refunding the overshoot, so d <= n < 2^(k+1)
    # agents can never assemble two 2^k piles.
    ("b", 45, ("NB(16)", "NB(16)"), [("NB(32)", "B")], 54, 63, "complete"),
    ("b", 100, ("NB(32)", "NB(32)"), [("NB(64)", "B")], 100, 105, "complete"),
    # Missed last digit (a): the final digit check resets the counter, so
    # only two top piles (2^(i1+1) agents) could still convert.
    ("a", 23, ("B(3)", "NB(1)"), [("B(0)", "NB(1)")], 23, 23, "complete"),
    ("a", 27, ("B(3)", "NB(1)"), [("B(0)", "NB(1)")], 27, 27, "complete"),
    ("a", 29, ("B(3)", "NB(1)"), [("B(0)", "NB(1)")], 29, 29, "complete"),
    # Stranded bankrupt: FINAL no longer converts a bankrupt agent, so
    # bottom components keep a rejecting agent beside accepting ones.
    ("a", 13, ("FINAL", "B(0)"), [("FINAL", "B(0)")], 13, 16, "consensus"),
    ("a", 14, ("FINAL", "B(0)"), [("FINAL", "B(0)")], 14, 17, "consensus"),
    ("a", 19, ("FINAL", "B(0)"), [("FINAL", "B(0)")], 19, 20, "consensus"),
    ("b", 37, ("FINAL", "B"), [("FINAL", "B")], 42, 52, "consensus"),
    ("b", 45, ("FINAL", "B"), [("FINAL", "B")], 50, 60, "consensus"),
]

_KINDS = ("sound", "complete", "consensus")


class WitnessWorkload(Workload):
    """One failing cell of a mutant plus an ``encounter_trace`` for every
    failing verdict, as ``flockpp verify --trace`` does for each n."""

    name = "witness"

    def setup(self, seed: int) -> list[Op]:
        ops = []
        for fam, d, (a, b), results, lo, hi, kind in MUTANTS:
            p = rewrite_encounter(protocols.build_family(fam, d), a, b, results)
            for n in range(lo, hi + 1):
                ops.append(Op(f"{p.name} n={n}", _witness_cell(p, d, n), (p, d, n, kind)))
        return ops

    def failed(self, out) -> bool:
        return out[0].error is not None

    @staticmethod
    def key(out) -> tuple:
        rep, traces = out
        return _report_key(rep), tuple(
            (kind, tuple((s.pair, s.result, s.after) for s in steps)) for kind, steps in traces
        )

    def check(self, ops, outputs) -> list[str]:
        problems = []
        for op, (rep, traces) in zip(ops, outputs):
            p, d, n, kind = op.args
            verdicts = dict(zip(_KINDS, (rep.sound, rep.complete, rep.consensus)))
            if not verdicts[kind].failed:
                problems.append(f"{op.label}: the {kind} check did not fail")
            g = None
            if rep.nodes_explored <= NAIVE_MAX_NODES:
                truth = ref.cell_truth(p, d, n)
                problems += ref.check_report(p, rep, truth)
                g = truth.graph
            for k, steps in traces:
                target = ref.as_counts(p, verdicts[k].witness)
                problems += ref.check_witness(p, d, n, k, target, g)
                problems += ref.check_trace(p, n, steps, target, ref.bfs_depth(p, n, target, g))
        return problems


def _witness_cell(p, d, n):
    def run():
        rep = verify.verify_range(p, d, n, n)[0]
        traces = [
            (kind, verify.encounter_trace(p, n, v.witness))
            for kind, v in zip(_KINDS, (rep.sound, rep.complete, rep.consensus))
            if v.failed
        ]
        return rep, traces

    return run


# -- bounds -------------------------------------------------------------------

#: State-count table rows, one operation per d.  Rows below d = 60 take
#: under 10 ms.
TABLE_DS = range(60, 140)

#: Occurrence sweeps up to n = d + 2 (the ``flockpp fmap`` default), each
#: 50 ms to 160 ms.  Eight of them take over 120 ms and the next five 90 to
#: 100 ms, so the 90th percentile of the workload falls inside that cluster
#: rather than in a gap between two sweeps.
SWEEPS = [("a", d) for d in (19, 21, 25)] + [("b", d) for d in range(47, 64)]


class BoundsWorkload(Workload):
    """``state_count_table(d, d)`` rows and occurrence sweeps of a and b."""

    name = "bounds"

    def setup(self, seed: int) -> list[Op]:
        ops = [Op(f"table d={d}", _table_row(d), ("table", d)) for d in TABLE_DS]
        for fam, d in SWEEPS:
            p = protocols.build_family(fam, d)
            ops.append(Op(f"fmap {p.name}", _sweep(p, d), ("sweep", p, d)))
        return ops

    @staticmethod
    def key(out) -> tuple:
        if isinstance(out, list):
            return tuple(out)
        om, gaps, lb = out
        return om.n_cap, tuple(sorted(om.values.items())), om.cap_error, gaps, lb

    def failed(self, out) -> bool:
        return not isinstance(out, list) and out[0].cap_error is not None

    def check(self, ops, outputs) -> list[str]:
        problems = []
        for op, out in zip(ops, outputs):
            if op.args[0] == "table":
                if len(out) != 1 or out[0].d != op.args[1]:
                    problems.append(f"{op.label}: expected one row")
                    continue
                problems += ref.table_problems(out[0])
                continue
            _, p, d = op.args
            om, gaps, lb = out
            problems += ref.occurrence_problems(p, d, om)
            if not gaps.holds:
                problems.append(f"{op.label}: doubling gaps {gaps.status} ({gaps.witness})")
            if not lb.holds:
                problems.append(f"{op.label}: state lower bound {lb.status}")
        return problems


def _table_row(d):
    return lambda: verify.state_count_table(d, d)


def _sweep(p, d):
    def run():
        om = lowerbound.occurrence_thresholds(p, d + 2)
        return om, lowerbound.check_doubling_gaps(om), lowerbound.check_state_lower_bound(p, d)

    return run


# -- sim ----------------------------------------------------------------------

#: (family, d, n): below and above d.  Each budget ends long before the run
#: could absorb: the a-family runs below d cycle through bankrupt counters
#: forever, and the others absorbed after 31k steps at the earliest in 40 to
#: 100 seeded runs each (see README.md).
SIM_CASES = [
    ("a", 250, 255),
    ("a", 255, 200),
    ("a", 127, 100),
    ("b", 200, 255),
    ("b", 160, 255),
    ("b", 255, 200),
]
SIM_RUNS_PER_CASE = 20
SIM_BUDGET = 10_000
#: Runs repeated outside the timed part to show that a seed repeats exactly.
SIM_REPEATS = 10


class SimWorkload(Workload):
    """Seeded ``sim.run`` calls with budgets that end before absorption."""

    name = "sim"

    def setup(self, seed: int) -> list[Op]:
        rng = rng_for(self.name, seed, "sim-seeds")
        ops = []
        for fam, d, n in SIM_CASES:
            p = protocols.build_family(fam, d)
            for _ in range(SIM_RUNS_PER_CASE):
                s = rng.getrandbits(32)
                ops.append(Op(f"{p.name} n={n} seed={s}", _sim_run(p, n, s), (p, d, n, s)))
        self.repeat = rng_for(self.name, seed, "repeats").sample(range(len(ops)), SIM_REPEATS)
        return ops

    @staticmethod
    def key(rep) -> tuple:
        return (rep,)

    def check(self, ops, outputs) -> list[str]:
        problems = []
        for op, rep in zip(ops, outputs):
            p, d, n, _s = op.args
            problems += ref.sim_problems(p, d, n, SIM_BUDGET, rep)
        for i in self.repeat:
            if ops[i].run() != outputs[i]:
                problems.append(f"{ops[i].label}: a second run with the same seed differs")
        return problems


def _sim_run(p, n, s):
    return lambda: sim.run(p, n, s, max_steps=SIM_BUDGET)


WORKLOADS = {w.name: w for w in (VerifyWorkload, WitnessWorkload, BoundsWorkload, SimWorkload)}
