"""Verification checks, range sweeps, the state-count table, and traces."""

from __future__ import annotations

import random
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flockpp as fp
from flockpp import core, verify
from flockpp.core import reach
from flockpp.verify import TABLE_COLUMNS
from mutations import MUTATIONS, build_mutant, rewrite_encounter
from oracle import (
    configurations,
    count,
    first_witnesses,
    index_of,
    sequential_trace,
    successors_of,
    unanimous_in,
)
from test_core import nontrivial_protocols, record_size, small_protocols, wide_protocols

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
    with pytest.raises(TypeError):
        fp.verify_range(p, 7.5, 7, 8)
    with pytest.raises(TypeError):
        fp.verify_range(p, 7, 7.0, 8)
    with pytest.raises(TypeError):
        fp.verify_range(p, 7, 7, 8.0)
    for d in (0, -3):
        with pytest.raises(fp.InvalidThreshold):
            fp.verify_range(p, d, 1, 3)


def test_node_caps_are_integers() -> None:
    # A float cap is refused, not compared with node counts; a numpy integer
    # acts as the int it holds.
    p = fp.build_protocol_b(7)
    fin = fp.Configuration.from_pairs({p.state_named("FINAL"): 7})
    for cap in (2.5, 1e6):
        with pytest.raises(TypeError):
            fp.reach(p, 5, node_cap=cap)
        with pytest.raises(TypeError):
            fp.encounter_trace(p, 7, fin, node_cap=cap)
        with pytest.raises(TypeError):
            fp.verify_range(p, 7, 1, 3, node_cap=cap)
    for cap in (10, 20):  # n = 7 and n = 8 are the first sizes over the cap
        got = [replace(r, elapsed=0.0) for r in fp.verify_range(p, 7, 5, 10, node_cap=np.int64(cap))]
        assert got == [replace(r, elapsed=0.0) for r in fp.verify_range(p, 7, 5, 10, node_cap=cap)]
        assert all(type(r.nodes_explored) is int for r in got)
    assert fp.encounter_trace(p, 7, fin, node_cap=np.int64(18)) == fp.encounter_trace(p, 7, fin)
    with pytest.raises(fp.CapExceeded) as exc:
        fp.reach(p, 10, node_cap=np.int64(10))
    assert type(exc.value.node_cap) is int
    assert str(exc.value).endswith("exceeds node cap 10")


def test_verify_range_past_the_population_limit_fails_before_searching(monkeypatch) -> None:
    # Sizes 250..255 would take about 30 s to search and their reports would
    # be lost to the error at 256, so the range is checked first.
    monkeypatch.setattr(verify, "reach", lambda *args, **kwargs: pytest.fail("searched"))
    with pytest.raises(ValueError, match=r"\[250, 256\]"):
        fp.verify_range(fp.build_protocol_b(7), 7, 250, 256)


def test_verify_range_from_a_numpy_integer_threshold() -> None:
    p = fp.build_protocol_b(7)
    want = fp.verify_range(p, 7, 5, 8)
    got = fp.verify_range(p, np.int64(7), 5, 8)
    assert [type(r.d) for r in got] == [int] * 4
    assert [replace(r, elapsed=0.0) for r in got] == [replace(r, elapsed=0.0) for r in want]


def test_verify_range_continues_past_cap() -> None:
    p = fp.build_protocol_b(7)
    reports = fp.verify_range(p, 7, 1, 10, node_cap=20)
    by_n = {r.n: r for r in reports}
    # 18 nodes at n=7 fit under the cap of 20; 32 at n=8 do not.
    assert by_n[7].all_hold
    assert by_n[7].cap_nodes is by_n[7].cap_levels is None
    for n in (8, 9, 10):
        r = by_n[n]
        assert r.error is not None
        assert not r.all_hold
        assert r.sound.status == r.complete.status == r.consensus.status == "na"
        assert r.nodes_explored == 20  # exploration stopped at the cap
        assert r.bottom_scc_count is None
        with pytest.raises(fp.CapExceeded) as exc:
            fp.reach(p, n, node_cap=20)
        assert (r.cap_nodes, r.cap_levels) == (exc.value.nodes, exc.value.levels)


def test_verify_range_holds_one_graph_at_a_time(monkeypatch) -> None:
    # Each size's graph is freed before the next size is searched.
    graphs: list[weakref.ref] = []

    def tracked(p, n, node_cap):
        assert all(g() is None for g in graphs)
        g = reach(p, n, node_cap)
        graphs.append(weakref.ref(g))
        return g

    monkeypatch.setattr(verify, "reach", tracked)
    assert all(r.all_hold for r in fp.verify_range(fp.build_protocol_b(7), 7, 5, 9))
    assert len(graphs) == 5


# -- individual checks -------------------------------------------------------


def test_checks_reuse_supplied_graph() -> None:
    g = fp.reach(fp.build_protocol_b(7), 7)
    assert fp.check_completeness(g).holds
    assert fp.check_consensus(g, 1).holds


def test_check_consensus_rejects_bad_bit() -> None:
    p = fp.build_protocol_b(7)
    with pytest.raises(ValueError):
        fp.check_consensus(fp.reach(p, 3), 2)


def test_soundness_failure_witness_is_reachable_and_accepting() -> None:
    m = build_mutant(("b", 7, ("NB(1)", "NB(1)"), [("FINAL", "FINAL")], "sound", 2))
    g = fp.reach(m, 2)
    v = fp.check_soundness(g)
    assert v.failed
    w = v.witness
    assert w.pretty(m) == "2*FINAL"
    assert index_of(g, w) is not None


def test_completeness_failure_witness_cannot_accept() -> None:
    m = build_mutant(("b", 7, ("NB(2)", "NB(2)"), [("NB(4)", "B")], "complete", 7))
    g = fp.reach(m, 7)
    v = fp.check_completeness(g)
    assert v.failed
    # From the witness, no configuration containing FINAL is ever reachable.
    fin = m.state_named("FINAL")
    i = index_of(g, v.witness)
    assert i is not None
    stack, seen = [i], {i}
    while stack:
        x = stack.pop()
        assert count(g.config(x), fin) == 0
        for y in successors_of(g, x):
            if int(y) not in seen:
                seen.add(int(y))
                stack.append(int(y))


def test_consensus_failure_witness_in_bottom_scc() -> None:
    m = build_mutant(("b", 7, ("FINAL", "FINAL"), [("NB(1)", "NB(1)")], "consensus", 7))
    g = fp.reach(m, 7)
    v = fp.check_consensus(g, 1)
    assert v.failed
    i = index_of(g, v.witness)
    assert i is not None
    assert g.bottom[g.scc[i]]
    assert not unanimous_in(v.witness, m.q1)


@pytest.mark.parametrize("entry", MUTATIONS, ids=lambda e: f"{e[0]}{e[1]}-{e[2][0]}|{e[2][1]}")
def test_each_mutation_is_caught(entry) -> None:
    fam, d, _pair, _results, check, n = entry
    m = build_mutant(entry)
    g = fp.reach(m, n)
    verdicts = {
        "sound": fp.check_soundness(g),
        "complete": fp.check_completeness(g),
        "consensus": fp.check_consensus(g, 1 if n >= d else 0),
    }
    assert verdicts[check].failed


#: Keeps the per-node closures of the witness oracle quick.
WITNESS_NODE_CAP = 300


def _assert_first_witnesses(p: fp.Protocol, n: int, d: int) -> None:
    want = first_witnesses(p, n, d, WITNESS_NODE_CAP)
    if want is None:
        return
    (rep,) = fp.verify_range(p, d, n, n)
    record_size(rep.nodes_explored)
    verdicts = (rep.sound, rep.complete, rep.consensus)
    assert tuple((v.status, v.witness) for v in verdicts) == want
    for v in verdicts:
        if v.failed:
            steps = [(s.pair, s.result, s.after) for s in v.trace]
            assert steps == sequential_trace(p, n, v.witness)
        else:
            assert v.trace is None


@pytest.mark.parametrize("entry", MUTATIONS, ids=lambda e: f"{e[0]}{e[1]}-{e[2][0]}|{e[2][1]}")
def test_mutation_witnesses_are_first_bad_nodes(entry) -> None:
    d = entry[1]
    m = build_mutant(entry)
    for n in range(1, d + 4):
        _assert_first_witnesses(m, n, d)


@pytest.mark.parametrize("entry", MUTATIONS, ids=lambda e: f"{e[0]}{e[1]}-{e[2][0]}|{e[2][1]}")
def test_mutation_verdict_traces_are_encounter_traces(entry) -> None:
    # Every size of the grid, with no cap on the graph: the trace a verdict
    # reads off its own graph is the one a separate search finds.
    d = entry[1]
    m = build_mutant(entry)
    failing = [
        (rep.n, v)
        for rep in fp.verify_range(m, d, 1, d + 3)
        for v in (rep.sound, rep.complete, rep.consensus)
        if v.failed
    ]
    assert failing
    for n, v in failing:
        assert v.trace == fp.encounter_trace(m, n, v.witness)
        assert v == fp.Verdict("fails", v.witness)  # the trace is not compared


@given(nontrivial_protocols(), st.integers(2, 8), st.integers(1, 9))
def test_witnesses_are_first_bad_nodes(p: fp.Protocol, n: int, d: int) -> None:
    _assert_first_witnesses(p, n, d)


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
    assert fp.check_completeness(g).holds
    v = fp.check_consensus(g, 1)
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
    if fp.check_consensus(g, 1).holds:
        assert fp.check_completeness(g).holds


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
        assert count(cur, a) >= (2 if a == b else 1)
        assert count(cur, b) >= 1
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
    # Targets that cannot be a node, and a cap below one, are refused before
    # any search, so even a cap of one node cannot be exceeded.
    for target, cap in (
        (fp.Configuration.from_pairs({fin: 6}), 1),
        (fp.Configuration.from_pairs({fin: 6, p.num_states: 1}), 1),
        (fp.Configuration(((-1, 7),), 7), 1),  # -1 would index the last state
        (fp.Configuration(((p.q_init, -1), (fin, 8)), 7), 1),
        (fp.Configuration(((fin, 300),), 7), 1),  # counts that do not sum to n
        (fp.Configuration.from_pairs({fin: 7}), 0),
    ):
        with pytest.raises(ValueError):
            fp.encounter_trace(p, 7, target, node_cap=cap)
    for n in (0, fp.MAX_POPULATION + 1):
        with pytest.raises(ValueError, match="outside"):
            fp.encounter_trace(p, n, fp.Configuration.from_pairs({fin: 6}))


def _ball(g: fp.ReachGraph, i: int) -> int:
    """Number of nodes of ``g`` within node ``i``'s BFS depth."""
    depth = [0] + [-1] * (len(g) - 1)
    for v in range(len(g)):  # BFS numbering: every parent precedes its child
        for w in successors_of(g, v):
            if depth[w] < 0:
                depth[w] = depth[v] + 1
    return sum(0 <= k <= depth[i] for k in depth)


def test_trace_respects_node_cap() -> None:
    p = fp.build_protocol_b(7)
    g = fp.reach(p, 7)
    fin, b, nb1 = (p.state_named(s) for s in ("FINAL", "B", "NB(1)"))
    # The cap bounds the nodes within the target's BFS depth: a cap equal to
    # that ball gives the uncapped trace, one less raises.  The second
    # target shares its depth with a node found before it, so a search that
    # counted nodes until it reached the target would need 12 here.
    for target, ball in (({fin: 7}, 18), ({nb1: 1, b: 3, fin: 3}, 11)):
        target = fp.Configuration.from_pairs(target)
        assert _ball(g, index_of(g, target)) == ball
        full = fp.encounter_trace(p, 7, target)
        assert fp.encounter_trace(p, 7, target, node_cap=ball) == full
        with pytest.raises(fp.CapExceeded):
            fp.encounter_trace(p, 7, target, node_cap=ball - 1)
    with pytest.raises(fp.CapExceeded):
        fp.encounter_trace(p, 7, fp.Configuration.from_pairs({fin: 7}), node_cap=3)


def test_trace_names_the_ordered_rule_it_applies() -> None:
    # Only the (Y, X) order reaches Z and W; delta(X, Y) is the identity.
    p = fp.make_protocol(
        "asym", ["X", "Y", "Z", "W"], "X", ["W"],
        {("X", "X"): [("X", "Y")], ("Y", "X"): [("Z", "W")]},
    )
    steps = fp.encounter_trace(p, 2, fp.Configuration.from_pairs({2: 1, 3: 1}))
    assert [(s.pair, s.result) for s in steps] == [
        (("X", "X"), ("X", "Y")),
        (("Y", "X"), ("Z", "W")),
    ]


#: Keeps the per-node trace checks below quick.
TRACE_NODE_CAP = 150


def _assert_traces_match_oracle(p: fp.Protocol, n: int) -> None:
    try:
        g = fp.reach(p, n, TRACE_NODE_CAP)
    except fp.CapExceeded:
        return
    record_size(len(g))
    for c in configurations(g):
        steps = fp.encounter_trace(p, n, c)
        assert [(s.pair, s.result, s.after) for s in steps] == sequential_trace(p, n, c)


@given(small_protocols(), st.integers(1, 4))
def test_traces_match_sequential_bfs(p: fp.Protocol, n: int) -> None:
    _assert_traces_match_oracle(p, n)


@given(nontrivial_protocols(), st.integers(2, 6))
def test_nontrivial_traces_match_sequential_bfs(p: fp.Protocol, n: int) -> None:
    _assert_traces_match_oracle(p, n)


@settings(max_examples=20)
@given(wide_protocols(), st.sampled_from([15, 16]))
def test_wide_traces_match_sequential_bfs(p: fp.Protocol, n: int) -> None:
    # A word holds 16 digits in radix 16 and 15 in radix 17, so the 22-25
    # digits of 23-26 states take two words.
    assert core._LevelSearch(p, n, [n], edges=True).key.itemsize == 16
    _assert_traces_match_oracle(p, n)


def _seeded_protocol(seed: int, wide: bool) -> tuple[fp.Protocol, int]:
    """A random nondeterministic protocol and a population size: 1-7
    states at n <= 9, or, when ``wide``, 22-25 states with rules among
    three of them at n = 8, where a word holds 20 digits in radix 9: the
    21-24 digits (the last count is implied) take two words, and counts
    land in both.  The initial state always has a rule with itself."""
    rng = random.Random(seed)
    if wide:
        nq, n = rng.randint(22, 25), 8
        active = [0, rng.randint(1, 19), rng.randint(20, nq - 2)]
    else:
        nq, n = rng.randint(1, 7), rng.randint(1, 9)
        active = list(range(nq))
    names = [f"S{i}" for i in range(nq)]
    rules = {}
    for a in active:
        for b in active:
            if a == b == 0 or rng.random() < 0.4:
                rules[(names[a], names[b])] = [
                    (names[rng.choice(active)], names[rng.choice(active)])
                    for _ in range(rng.randint(1, 2))
                ]
    return fp.make_protocol(f"seeded{seed}", names, "S0", [], rules, deterministic=False), n


@pytest.mark.parametrize("wide", [False, True])
def test_seeded_traces_match_sequential_bfs(wide: bool) -> None:
    # The strategies above mostly draw graphs of a few nodes; these seeds
    # give graphs of up to TRACE_NODE_CAP nodes.
    for seed in range(20):
        p, n = _seeded_protocol(seed, wide)
        assert core._LevelSearch(p, n, [n], edges=True).key.itemsize == (16 if wide else 8)
        _assert_traces_match_oracle(p, n)
