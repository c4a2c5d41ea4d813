"""Verification checks, range sweeps, the state-count table, and traces."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

import flockpp as fp
from flockpp.verify import TABLE_COLUMNS
from mutations import MUTATIONS, build_mutant, rewrite_encounter

# -- b(7) end to end ---------------------------------------------------------

B7_NODES = [1, 2, 2, 4, 5, 6, 18, 32, 45, 84]


def test_verify_range_b7() -> None:
    p = fp.build_protocol_b(7)
    reports = fp.verify_range(p, 7, 1, 10)
    assert [r.n for r in reports] == list(range(1, 11))
    assert [r.nodes_explored for r in reports] == B7_NODES
    for r in reports:
        assert r.all_hold
        assert r.error is None
        assert r.protocol_name == "b(d=7)"
        assert r.d == 7
        assert r.bottom_scc_count == 1
        assert r.elapsed >= 0.0
        if r.n < 7:
            assert r.sound.holds
            assert r.complete.status == "na"
            assert r.consensus.holds
        else:
            assert r.sound.status == "na"
            assert r.complete.holds
            assert r.consensus.holds


@pytest.mark.parametrize("fam,d", [("angluin", 5), ("a", 6), ("pow2", 4), ("b", 6), ("best", 5)])
def test_verify_range_families_all_hold(fam: str, d: int) -> None:
    p = fp.build_family(fam, d)
    assert all(r.all_hold for r in fp.verify_range(p, d, 1, d + 3))


def test_verify_range_progress_callback() -> None:
    seen: list[int] = []
    fp.verify_range(fp.build_protocol_b(7), 7, 1, 4, progress=lambda r: seen.append(r.n))
    assert seen == [1, 2, 3, 4]


def test_verify_range_rejects_bad_range() -> None:
    p = fp.build_protocol_b(7)
    with pytest.raises(ValueError):
        fp.verify_range(p, 7, 0, 3)
    with pytest.raises(ValueError):
        fp.verify_range(p, 7, 5, 4)


def test_verify_range_continues_past_cap() -> None:
    p = fp.build_protocol_b(7)
    reports = fp.verify_range(p, 7, 1, 10, node_cap=20)
    by_n = {r.n: r for r in reports}
    # 18 nodes at n=7 fit under the cap of 20; 32 at n=8 do not.
    assert by_n[7].all_hold
    for n in (8, 9, 10):
        r = by_n[n]
        assert r.error is not None
        assert not r.all_hold
        assert r.sound.status == r.complete.status == r.consensus.status == "na"
        assert r.nodes_explored == 20  # exploration stopped at the cap


# -- individual checks -------------------------------------------------------


def test_checks_reuse_supplied_graph() -> None:
    p = fp.build_protocol_b(7)
    g = fp.reach(p, 7)
    assert fp.check_completeness(p, 7, graph=g).holds
    assert fp.check_consensus(p, 1, 7, graph=g).holds
    with pytest.raises(ValueError):
        fp.check_soundness(p, 6, graph=g)  # graph built for a different n
    with pytest.raises(ValueError):
        fp.check_soundness(fp.build_protocol_a(7), 7, graph=g)


def test_check_consensus_rejects_bad_bit() -> None:
    p = fp.build_protocol_b(7)
    with pytest.raises(ValueError):
        fp.check_consensus(p, 2, 3)


def test_soundness_failure_witness_is_reachable_and_accepting() -> None:
    m = build_mutant(("b", 7, ("NB(1)", "NB(1)"), [("FINAL", "FINAL")], "sound", 2))
    v = fp.check_soundness(m, 2)
    assert v.failed
    w = v.witness
    assert w.pretty(m) == "2*FINAL"
    assert fp.reach(m, 2).index_of(w) is not None


def test_completeness_failure_witness_cannot_accept() -> None:
    m = build_mutant(("b", 7, ("NB(2)", "NB(2)"), [("NB(4)", "B")], "complete", 7))
    v = fp.check_completeness(m, 7)
    assert v.failed
    # From the witness, no configuration containing FINAL is ever reachable.
    fin = m.state_named("FINAL")
    g = fp.reach(m, 7)
    i = g.index_of(v.witness)
    assert i is not None
    stack, seen = [i], {i}
    while stack:
        x = stack.pop()
        assert g.config(x).count(fin) == 0
        for y in g.successors_of(x):
            if int(y) not in seen:
                seen.add(int(y))
                stack.append(int(y))


def test_consensus_failure_witness_in_bottom_scc() -> None:
    m = build_mutant(("b", 7, ("FINAL", "FINAL"), [("NB(1)", "NB(1)")], "consensus", 7))
    v = fp.check_consensus(m, 1, 7)
    assert v.failed
    g = fp.reach(m, 7)
    i = g.index_of(v.witness)
    assert i is not None
    assert int(g.scc[i]) in g.bottom_sccs
    assert not v.witness.unanimous_in(m.q1)


@pytest.mark.parametrize("entry", MUTATIONS, ids=lambda e: f"{e[0]}{e[1]}-{e[2][0]}|{e[2][1]}")
def test_each_mutation_is_caught(entry) -> None:
    fam, d, _pair, _results, check, n = entry
    m = build_mutant(entry)
    g = fp.reach(m, n)
    verdicts = {
        "sound": fp.check_soundness(m, n, graph=g),
        "complete": fp.check_completeness(m, n, graph=g),
        "consensus": fp.check_consensus(m, 1 if n >= d else 0, n, graph=g),
    }
    assert verdicts[check].failed


def test_mutation_changes_exactly_one_encounter() -> None:
    p = fp.build_protocol_b(7)
    m = rewrite_encounter(p, "NB(2)", "NB(2)", [("NB(4)", "B")])
    changed = []
    for x in p.states:
        for y in p.states:
            before = tuple(
                (p.display(a), p.display(b)) for a, b in p.delta_of(x.index, y.index)
            )
            after = tuple(
                (m.display(a), m.display(b))
                for a, b in m.delta_of(m.state_named(x.name), m.state_named(y.name))
            )
            if before != after:
                changed.append((x.name, y.name))
    assert changed == [("NB(2)", "NB(2)")]


def test_consensus_can_fail_while_completeness_holds() -> None:
    # A two-state oscillator: X+X demotes one agent, Y+Y promotes both, so
    # with two agents the reachable set cycles and never settles, yet an
    # accepting configuration stays reachable from everywhere.
    q = fp.make_protocol(
        "osc", ["X", "Y"], "X", ["X"],
        {("X", "X"): [("X", "Y")], ("Y", "Y"): [("X", "X")]},
    )
    g = fp.reach(q, 2)
    assert fp.check_completeness(q, 2, graph=g).holds
    v = fp.check_consensus(q, 1, 2, graph=g)
    assert v.failed
    assert v.witness.pretty(q) == "1*X + 1*Y"


@st.composite
def tiny_protocols(draw):
    nq = draw(st.integers(1, 3))
    names = [f"S{i}" for i in range(nq)]
    rules = {}
    for a in range(nq):
        for b in range(nq):
            if draw(st.booleans()):
                rules[(names[a], names[b])] = [
                    (names[draw(st.integers(0, nq - 1))], names[draw(st.integers(0, nq - 1))])
                ]
    q1 = [n for n in names if draw(st.booleans())]
    return fp.make_protocol("t", names, names[0], q1, rules)


@given(tiny_protocols(), st.integers(1, 4))
def test_consensus_on_1_implies_completeness(p: fp.Protocol, n: int) -> None:
    # Structural fact the verifier asserts internally on every run; it must
    # hold for arbitrary protocols, not only the built-in families.
    g = fp.reach(p, n)
    if fp.check_consensus(p, 1, n, graph=g).holds:
        assert fp.check_completeness(p, n, graph=g).holds


# -- state-count table --------------------------------------------------------

# d, e, z, angluin, a, b, pow2, best, upper, lower
TABLE_2_12 = [
    (2, 1, 0, 3, 4, None, 3, 3, 3, 2),
    (3, 2, 1, 4, 5, 4, None, 4, 4, 3),
    (4, 1, 0, 5, 5, None, 4, 4, 4, 3),
    (5, 2, 2, 6, 6, 6, None, 6, 6, 4),
    (6, 2, 1, 7, 6, 5, None, 5, 5, 4),
    (7, 3, 1, 8, 7, 5, None, 5, 5, 4),
    (8, 1, 0, 9, 6, None, 5, 5, 5, 4),
    (9, 2, 3, 10, 7, 8, None, 7, 7, 5),
    (10, 2, 2, 11, 7, 7, None, 7, 7, 5),
    (11, 3, 2, 12, 8, 7, None, 7, 7, 5),
    (12, 2, 1, 13, 7, 6, None, 6, 6, 5),
]


def test_state_count_table_2_12() -> None:
    rows = fp.state_count_table(2, 12)
    got = [
        (r.d, r.e, r.z, r.q_angluin, r.q_a, r.q_b, r.q_pow2, r.q_best,
         r.bound_upper, r.bound_lower)
        for r in rows
    ]
    assert got == TABLE_2_12


def test_state_count_table_d1_has_no_upper_bound() -> None:
    (row,) = fp.state_count_table(1, 1)
    assert row.z is None
    assert row.bound_upper is None
    assert row.q_angluin == 1
    assert row.q_best == 1
    assert row.bound_lower == 1


def test_state_count_table_bounds_hold_wide() -> None:
    for r in fp.state_count_table(2, 300):
        assert r.q_best <= r.bound_upper
        assert r.q_best >= r.bound_lower
        assert 2 ** (r.q_best - 1) >= r.d


def test_state_count_table_rejects_bad_range() -> None:
    with pytest.raises(ValueError):
        fp.state_count_table(0, 5)
    with pytest.raises(ValueError):
        fp.state_count_table(5, 2)


def test_table_csv_golden() -> None:
    csv_text = fp.table_to_csv(fp.state_count_table(2, 4))
    assert csv_text.splitlines() == [
        ",".join(TABLE_COLUMNS),
        "2,1,0,3,4,,3,3,3,2",
        "3,2,1,4,5,4,,4,4,3",
        "4,1,0,5,5,,4,4,4,3",
    ]


def test_table_columns_are_stable() -> None:
    assert TABLE_COLUMNS == (
        "d", "e", "z", "q_angluin", "q_a", "q_b", "q_pow2", "q_best",
        "bound_upper", "bound_lower",
    )


# -- encounter traces ----------------------------------------------------------


def test_trace_to_all_accepting() -> None:
    p = fp.build_protocol_b(7)
    fin = p.state_named("FINAL")
    target = fp.Configuration.from_pairs({fin: 7})
    steps = fp.encounter_trace(p, 7, target)
    assert len(steps) == 12  # BFS yields a shortest sequence
    # Replay: every step applies one rule of the protocol to the previous
    # configuration and lands exactly on `after`.
    cur = fp.initial_configuration(p, 7)
    for s in steps:
        a, b = (p.state_named(x) for x in s.pair)
        assert cur.count(a) >= (2 if a == b else 1)
        assert cur.count(b) >= 1
        c, d = (p.state_named(x) for x in s.result)
        assert (c, d) in p.delta_of(a, b)
        nxt = dict(cur.counts)
        nxt[a] -= 1
        nxt[b] = nxt.get(b, 0) - 1
        nxt[c] = nxt.get(c, 0) + 1
        nxt[d] = nxt.get(d, 0) + 1
        cur = fp.Configuration.from_pairs(nxt)
        assert cur == s.after
    assert cur == target


def test_trace_of_initial_configuration_is_empty() -> None:
    p = fp.build_protocol_b(7)
    assert fp.encounter_trace(p, 3, fp.initial_configuration(p, 3)) == []


def test_trace_unreachable_target_raises() -> None:
    p = fp.build_protocol_b(7)
    fin = p.state_named("FINAL")
    with pytest.raises(ValueError):
        fp.encounter_trace(p, 6, fp.Configuration.from_pairs({fin: 6}))
    with pytest.raises(ValueError):
        # Population mismatch between n and the target.
        fp.encounter_trace(p, 7, fp.Configuration.from_pairs({fin: 6}))


def test_trace_respects_node_cap() -> None:
    p = fp.build_protocol_b(7)
    fin = p.state_named("FINAL")
    with pytest.raises(fp.CapExceeded):
        fp.encounter_trace(p, 7, fp.Configuration.from_pairs({fin: 7}), node_cap=3)
