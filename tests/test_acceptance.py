"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  Every
check here is exact (integer arithmetic, frozen counts, zero tolerance);
whatever fails is reported with the precise offending instances.
"""

from __future__ import annotations

import numpy as np
import pytest

import flockpp as fp
from mutations import MUTATIONS, build_mutant
from oracle import (
    agent_graph,
    configurations,
    contains_any,
    index_of,
    quotient_nodes,
    unanimous_in,
)

# ---------------------------------------------------------------------------


def _families_for(d: int) -> list[str]:
    fams = ["angluin", "a", "best"]
    if d >= 1 and d & (d - 1) == 0:
        fams.insert(2, "pow2")
    if d >= 3 and d & (d - 1) != 0:
        fams.insert(2, "b")
    return fams


def _report(criterion: str, failures: list[str]) -> None:
    if failures:
        detail = "; ".join(failures[:10])
        more = f" (+{len(failures) - 10} more)" if len(failures) > 10 else ""
        line = f"[{criterion}] FAIL — {len(failures)} issue(s): {detail}{more}"
    else:
        line = f"[{criterion}] PASS"
    print(f"\n{line}")
    assert not failures, line


# -- 1: correctness sweep ----------------------------------------------------


@pytest.mark.slow
def test_criterion_1_correctness_sweep() -> None:
    """Soundness below d, completeness and consensus at and above d.

    Grid: every applicable family, d in 1..20 and 31..33, n in [1, d+3],
    under the default five-million-node reachability cap.
    """
    failures: list[str] = []
    done: set[str] = set()
    for d in [*range(1, 21), 31, 32, 33]:
        for fam in _families_for(d):
            p = fp.build_family(fam, d)
            if p.name in done:  # `best` aliases one of the others
                continue
            done.add(p.name)
            for rep in fp.verify_range(p, d, 1, d + 3, node_cap=fp.DEFAULT_NODE_CAP):
                if rep.error is not None:
                    failures.append(f"{p.name} n={rep.n}: {rep.error}")
                    continue
                for label, verdict in (
                    ("sound", rep.sound),
                    ("complete", rep.complete),
                    ("consensus", rep.consensus),
                ):
                    if verdict.failed:
                        failures.append(f"{p.name} n={rep.n}: {label} fails")
    _report("criterion 1: correctness sweep", failures)


# -- 2: state-count upper bounds ----------------------------------------------


def test_criterion_2_state_count_upper_bounds() -> None:
    """|Q_best(d)| within both closed-form bounds for all 2 <= d <= 4096.

    Exact integer arithmetic: the 1.5*log2(d) + 3 bound is checked as
    2^(2q - 6) <= d^3 so no floating point is involved.
    """
    failures: list[str] = []
    for d in range(2, 4097):
        pr = fp.threshold_params(d)
        q = fp.build_best(d).num_states
        bound1 = (d.bit_length() - 1) + min(pr.e, pr.z) + 2
        if q > bound1:
            failures.append(f"d={d}: {q} > floor(log2 d)+min(e,z)+2 = {bound1}")
        if 2 ** (2 * q - 6) > d**3:
            failures.append(f"d={d}: {q} > 1.5*log2(d)+3")
        if pr.e + pr.z > pr.k + 2:
            failures.append(f"d={d}: e+z = {pr.e + pr.z} exceeds k+2 = {pr.k + 2}")
    _report("criterion 2: state-count upper bounds", failures)


# -- 3: exact state counts ------------------------------------------------------


def test_criterion_3_exact_state_counts() -> None:
    """Closed-form state counts for every constructor, plus spot values."""
    failures: list[str] = []
    for d in range(2, 65):
        pr = fp.threshold_params(d)
        want = {
            "angluin": d + 1,
            "a": (d.bit_length() - 1) + pr.e + 2,
        }
        if d & (d - 1) == 0:
            want["pow2"] = d.bit_length() + 1  # log2 d + 2
        else:
            want["b"] = pr.k + pr.z + 2
        for fam, expected in want.items():
            got = fp.build_family(fam, d).num_states
            if got != expected:
                failures.append(f"{fam}(d={d}): {got} states, expected {expected}")
    for fam, d, expected in (("b", 7, 5), ("a", 7, 7), ("b", 11, 7)):
        got = fp.build_family(fam, d).num_states
        if got != expected:
            failures.append(f"spot {fam}(d={d}): {got} states, expected {expected}")
    _report("criterion 3: exact state counts", failures)


# -- 4: occurrence thresholds and the lower bound -------------------------------


def test_criterion_4_occurrence_thresholds() -> None:
    """f(q_init) = 1 and f(accepting) = d exactly; gap and size bounds hold.

    Every applicable family for 2 <= d <= 20, occurrence sweep capped at
    n = d + 2.
    """
    failures: list[str] = []
    done: set[str] = set()
    for d in range(2, 21):
        for fam in _families_for(d):
            p = fp.build_family(fam, d)
            if p.name in done:
                continue
            done.add(p.name)
            om = fp.occurrence_thresholds(p, d + 2)
            if om.cap_error is not None:
                failures.append(f"{p.name}: {om.cap_error}")
                continue
            if om.values.get(p.q_init) != 1:
                failures.append(f"{p.name}: f(q_init) = {om.values.get(p.q_init)}")
            (q1,) = p.q1
            if om.values.get(q1) != d:
                failures.append(
                    f"{p.name}: f({p.display(q1)}) = {om.values.get(q1)}, expected {d}"
                )
            if not fp.check_doubling_gaps(om).holds:
                failures.append(f"{p.name}: doubling gap violated")
            if not fp.check_state_lower_bound(p, d).holds:
                failures.append(f"{p.name}: 2^(|Q|-1) < d")
    _report("criterion 4: occurrence thresholds and lower bound", failures)


# -- 5: oracle equivalence --------------------------------------------------------


def test_criterion_5_oracle_equivalence() -> None:
    """Multiset reachability equals the agent-indexed reference, quotiented.

    All families with d <= 7, populations n <= 4: identical node sets and
    identical soundness verdicts.
    """
    failures: list[str] = []
    for d in range(1, 8):
        for fam in _families_for(d):
            p = fp.build_family(fam, d)
            for n in range(1, 5):
                nodes, _ = agent_graph(p, n)
                g = fp.reach(p, n)
                got = {
                    tuple(sorted(sum(([q] * c for q, c in cfg.counts), [])))
                    for cfg in configurations(g)
                }
                want = quotient_nodes(nodes)
                if got != want:
                    failures.append(f"{fam}(d={d}) n={n}: node sets differ")
                    continue
                if len(g) != len(want):
                    failures.append(f"{fam}(d={d}) n={n}: node count differs")
                oracle_sound = not any(any(q in p.q1 for q in cfg) for cfg in nodes)
                got_sound = fp.check_soundness(g).holds
                if got_sound != oracle_sound:
                    failures.append(f"{fam}(d={d}) n={n}: soundness verdicts differ")
    _report("criterion 5: oracle equivalence", failures)


# -- 6: conservation properties ---------------------------------------------------


def _coin_value(p: fp.Protocol, q: int) -> int:
    name = p.display(q)
    if name.startswith("NB(") or name.startswith("NS("):
        return int(name[3:-1])
    return 0  # bankrupt states carry no coins


def test_criterion_6_conservation() -> None:
    """Static coin accounting over the full transition table, 2 <= d <= 64.

    Construction a conserves the coin sum on every entry not involving the
    accepting state.  Construction b conserves it everywhere except the top
    merge (2^(k-1), 2^(k-1)), which mints exactly the overshoot a.
    """
    failures: list[str] = []
    for d in range(2, 65):
        p = fp.build_protocol_a(d)
        fin = p.state_named("FINAL")
        for a, b, cell in p.delta:
            for c, e in cell:
                if fin in (a, b, c, e):
                    continue
                before = _coin_value(p, a) + _coin_value(p, b)
                after = _coin_value(p, c) + _coin_value(p, e)
                if before != after:
                    failures.append(
                        f"a(d={d}): ({p.display(a)},{p.display(b)}) -> "
                        f"({p.display(c)},{p.display(e)}) changes {before} to {after}"
                    )
        if d < 3 or d & (d - 1) == 0:
            continue
        pr = fp.threshold_params(d)
        p = fp.build_protocol_b(d)
        fin = p.state_named("FINAL")
        top = p.state_named(f"NB({1 << (pr.k - 1)})")
        for a, b, cell in p.delta:
            for c, e in cell:
                if fin in (a, b, c, e):
                    continue
                diff = (
                    _coin_value(p, c) + _coin_value(p, e)
                    - _coin_value(p, a) - _coin_value(p, b)
                )
                if (a, b) == (top, top):
                    if diff != pr.a:
                        failures.append(
                            f"b(d={d}): top merge mints {diff}, expected {pr.a}"
                        )
                elif diff != 0:
                    failures.append(
                        f"b(d={d}): ({p.display(a)},{p.display(b)}) -> "
                        f"({p.display(c)},{p.display(e)}) mints {diff}"
                    )
    _report("criterion 6: conservation properties", failures)


# -- 7: mutation sensitivity -------------------------------------------------------


def test_criterion_7_mutation_sensitivity() -> None:
    """Each single-encounter mutation at d = 7 is caught with a valid witness."""
    failures: list[str] = []
    if len(MUTATIONS) < 5:
        failures.append(f"only {len(MUTATIONS)} mutations documented")
    for entry in MUTATIONS:
        fam, d, pair, _results, check, n = entry
        label = f"{fam}(d={d}) {pair[0]}|{pair[1]}"
        m = build_mutant(entry)
        g = fp.reach(m, n)
        verdict = {
            "sound": lambda: fp.check_soundness(g),
            "complete": lambda: fp.check_completeness(g),
            "consensus": lambda: fp.check_consensus(g, 1 if n >= d else 0),
        }[check]()
        if not verdict.failed:
            failures.append(f"{label}: {check} unexpectedly {verdict.status}")
            continue
        w = verdict.witness
        i = index_of(g, w)
        if i is None:
            failures.append(f"{label}: witness not reachable")
            continue
        if check == "sound" and not contains_any(w, m.q1):
            failures.append(f"{label}: soundness witness has no accepting agent")
        if check == "complete":
            good = (g.counts_matrix[:, sorted(m.q1)] > 0).any(axis=1)
            ok = np.zeros(len(g), dtype=bool)
            ok[fp.can_reach_predicate(g, good)] = True
            if ok[i]:
                failures.append(f"{label}: completeness witness can still accept")
        if check == "consensus":
            if not g.bottom[g.scc[i]]:
                failures.append(f"{label}: consensus witness not in a bottom SCC")
            if unanimous_in(w, m.q1):
                failures.append(f"{label}: consensus witness is unanimous")
    _report("criterion 7: mutation sensitivity", failures)


# -- 8: simulation sanity ------------------------------------------------------------


def test_criterion_8_simulation_sanity() -> None:
    """Seeded runs of b(7) behave: certain convergence at and above d, and
    not a single accepting agent below d."""
    failures: list[str] = []
    p = fp.build_protocol_b(7)
    fin = p.state_named("FINAL")
    for n in (7, 10):
        target = fp.Configuration.from_pairs({fin: n})
        for seed in range(100):
            r = fp.run(p, n, seed=seed, max_steps=10**6)
            if not r.converged or r.converged_value != 1:
                failures.append(f"n={n} seed={seed}: did not converge to 1")
            elif r.final_configuration != target:
                failures.append(f"n={n} seed={seed}: final {r.final_configuration.pretty(p)}")
    for n in range(1, 7):
        for seed in range(1000):
            r = fp.run(p, n, seed=seed, max_steps=10**6)
            if r.ever_emitted_q1:
                failures.append(f"n={n} seed={seed}: accepting agent below threshold")
    _report("criterion 8: simulation sanity", failures)
