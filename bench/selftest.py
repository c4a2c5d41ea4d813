"""Show that every output check of the benchmark can fail.

    python3 bench/selftest.py

Each case takes a real output of flockpp, corrupts one detail of it, and
requires the matching check in ``reference`` to report a problem; the
untouched output must pass the same check.  Exits 1 if any check accepts a
corrupted output or rejects a correct one.
"""

import dataclasses
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from flockpp import Configuration, protocols, sim, verify  # noqa: E402
from flockpp.verify import Verdict  # noqa: E402

import reference as ref  # noqa: E402
from workloads import rewrite_encounter  # noqa: E402


def trace_cases():
    # b(45) with two 16-piles converting early: soundness fails at n = 39.
    p = rewrite_encounter(protocols.build_protocol_b(45), "NB(16)", "NB(16)", [("FINAL", "FINAL")])
    d, n = 45, 39
    rep = verify.verify_range(p, d, n, n)[0]
    truth = ref.cell_truth(p, d, n)
    w = ref.as_counts(p, rep.sound.witness)
    steps = verify.encounter_trace(p, n, rep.sound.witness)
    depth = ref.bfs_depth(p, n, w, truth.graph)
    check = lambda s: ref.check_trace(p, n, s, w, depth)  # noqa: E731

    k = len(steps) // 2
    wrong = dataclasses.replace(steps[k], result=steps[k].pair)
    yield "trace step with a result delta does not give", check(steps), check(
        steps[:k] + [wrong] + steps[k + 1 :]
    )
    moved = Configuration.from_pairs(dict(steps[k].after.counts) | {p.q_init: 0})
    yield "trace step recording the wrong configuration", check(steps), check(
        steps[:k] + [dataclasses.replace(steps[k], after=moved)] + steps[k + 1 :]
    )
    yield "trace one step short of the witness", check(steps), check(steps[:-1])
    yield "trace longer than the witness's BFS depth", check(steps), ref.check_trace(
        p, n, steps, w, depth - 1
    )
    yield "soundness witness without an accepting agent", ref.check_witness(
        p, d, n, "sound", w, truth.graph
    ), ref.check_witness(p, d, n, "sound", ref.initial(p, n), truth.graph)


def verdict_cases():
    p = protocols.build_protocol_b(45)
    d, n = 45, 46
    rep = verify.verify_range(p, d, n, n)[0]
    truth = ref.cell_truth(p, d, n)
    flipped = dataclasses.replace(rep, consensus=Verdict("fails", rep.consensus.witness))
    yield "flipped consensus verdict", ref.check_report(p, rep, truth), ref.check_report(
        p, flipped, truth
    )
    short = dataclasses.replace(rep, nodes_explored=rep.nodes_explored - 1)
    yield "node count off by one", ref.check_report(p, rep, truth), ref.check_report(
        p, short, truth
    )
    # A completeness witness must reach no accepting configuration, and a
    # consensus witness must lie in a bottom component.
    root = ref.initial(p, n)
    yield "completeness witness that can still accept", [], ref.check_witness(
        p, d, n, "complete", root, truth.graph
    )
    yield "consensus witness outside every bottom component", [], ref.check_witness(
        p, d, n, "consensus", root, truth.graph
    )


def table_cases():
    row = verify.state_count_table(100, 100)[0]
    yield "state count off by one", ref.table_problems(row), ref.table_problems(
        dataclasses.replace(row, q_a=row.q_a + 1)
    )
    yield "q_b and q_best too small for 2^(q_best-1) >= d", ref.table_problems(
        row
    ), ref.table_problems(dataclasses.replace(row, q_best=7, q_b=7))


def occurrence_cases():
    from flockpp import lowerbound

    p = protocols.build_protocol_a(11)
    om = lowerbound.occurrence_thresholds(p, 13)
    late = dict(om.values)
    late[p.state_named("FINAL")] = 12
    yield "accepting threshold above d", ref.occurrence_problems(p, 11, om), ref.occurrence_problems(
        p, 11, dataclasses.replace(om, values=late)
    )


def sim_cases():
    p = protocols.build_protocol_a(127)
    d, n, budget = 127, 100, 2000
    rep = sim.run(p, n, 7, max_steps=budget)
    final = dict(rep.final_configuration.counts)
    q = max(final, key=final.get)
    final[q] -= 1
    final[p.state_named("FINAL")] = 1
    accepted = dataclasses.replace(
        rep, final_configuration=Configuration.from_pairs(final), ever_emitted_q1=True
    )
    yield "below-d report holding an accepting agent", ref.sim_problems(
        p, d, n, budget, rep
    ), ref.sim_problems(p, d, n, budget, accepted)
    lost = dict(rep.final_configuration.counts)
    lost[q] -= 1
    yield "report that lost an agent", ref.sim_problems(p, d, n, budget, rep), ref.sim_problems(
        p, d, n, budget, dataclasses.replace(rep, final_configuration=Configuration.from_pairs(lost))
    )
    absorbed = sim.run(protocols.build_protocol_a(3), 5, 7, max_steps=budget)
    yield "run that absorbed within its budget", [], ref.sim_problems(
        protocols.build_protocol_a(3), 3, 5, budget, absorbed
    )


def main():
    bad = 0
    for cases in (trace_cases, verdict_cases, table_cases, occurrence_cases, sim_cases):
        for name, clean, corrupt in cases():
            ok = not clean and bool(corrupt)
            bad += not ok
            shown = corrupt[0] if corrupt else "accepted"
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {shown}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
