"""Core semantics: configurations, successors, reachability, JSON format."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from hypothesis.control import currently_in_test_context

import flockpp as fp
from flockpp import core
from mutations import MUTATIONS, build_mutant
from oracle import agent_graph, quotient_edges, quotient_nodes, sequential_reach

ALL_FAMILIES_SMALL = [
    (fam, d)
    for d in range(1, 8)
    for fam in ("angluin", "a", "pow2", "b", "best")
    if not (fam == "pow2" and d & (d - 1))
    and not (fam == "b" and (d < 3 or d & (d - 1) == 0))
]


def test_initial_configuration() -> None:
    p = fp.build_protocol_b(7)
    c = fp.initial_configuration(p, 5)
    assert c.n == 5
    assert c.counts == ((p.q_init, 5),)
    assert c.count(p.q_init) == 5
    assert c.count(p.state_named("FINAL")) == 0
    for n in (0, fp.MAX_POPULATION + 1):
        with pytest.raises(ValueError, match=f"population size {n} is outside"):
            fp.initial_configuration(p, n)
    crowd = fp.Configuration.from_pairs({p.q_init: fp.MAX_POPULATION + 1})
    with pytest.raises(ValueError, match="population size 256 is outside"):
        fp.successors(p, crowd)


def test_configuration_from_pairs_normalizes() -> None:
    c = fp.Configuration.from_pairs([(3, 1), (1, 2), (2, 0), (3, 1)])
    assert c.counts == ((1, 2), (3, 2))
    assert c.n == 4
    assert c.support() == (1, 3)
    with pytest.raises(ValueError):
        fp.Configuration.from_pairs({0: -1})


def test_successors_single_merge() -> None:
    # Two agents with one coin each can only merge.
    p = fp.build_protocol_b(7)
    succ = fp.successors(p, fp.initial_configuration(p, 2))
    assert succ == {fp.Configuration.from_pairs({p.state_named("NB(2)"): 1, p.state_named("B"): 1})}


def test_successors_identity_only_is_self_loop() -> None:
    p = fp.build_protocol_b(7)
    c = fp.Configuration.from_pairs({p.state_named("NB(2)"): 1, p.state_named("B"): 1})
    assert fp.successors(p, c) == {c}


def test_successors_empty_for_single_agent() -> None:
    p = fp.build_protocol_b(7)
    assert fp.successors(p, fp.initial_configuration(p, 1)) == set()
    assert fp.successors(p, fp.Configuration.from_pairs({})) == set()


def test_reach_n1_single_node_no_edges() -> None:
    p = fp.build_protocol_a(5)
    g = fp.reach(p, 1)
    assert len(g) == 1
    assert g.num_edges == 0
    assert g.config(0) == fp.initial_configuration(p, 1)
    assert g.num_sccs == 1
    assert g.bottom_sccs == frozenset({0})


# Node counts precomputed with a separate throwaway breadth-first script.
REACH_SIZES = [
    ("b", 7, 7, 18),
    ("b", 7, 10, 84),
    ("a", 31, 20, 126),
    ("a", 31, 24, 532),
    ("a", 31, 26, 914),
    ("angluin", 15, 18, 487),
]


@pytest.mark.parametrize("fam,d,n,nodes", REACH_SIZES)
def test_reach_node_counts(fam: str, d: int, n: int, nodes: int) -> None:
    g = fp.reach(fp.build_family(fam, d), n)
    assert len(g) == nodes


def test_reach_rejects_bad_inputs() -> None:
    p = fp.build_protocol_b(7)
    with pytest.raises(ValueError):
        fp.reach(p, 0)
    with pytest.raises(ValueError):
        fp.reach(p, 256)
    with pytest.raises(ValueError):
        fp.reach(p, 3, node_cap=0)


def test_reach_cap_exceeded() -> None:
    p = fp.build_protocol_b(7)
    with pytest.raises(fp.CapExceeded) as exc:
        fp.reach(p, 10, node_cap=10)
    assert exc.value.node_cap == 10


def test_reach_stops_at_the_level_that_passes_the_cap(monkeypatch) -> None:
    # The cap bounds memory only if no level is expanded after the one that
    # passes it.
    sizes = []
    expand = core._LevelSearch.expand

    def counted(self, edges):
        out = expand(self, edges)
        sizes.append(self.num_nodes)
        return out

    monkeypatch.setattr(core._LevelSearch, "expand", counted)
    with pytest.raises(fp.CapExceeded):
        fp.reach(fp.build_protocol_b(7), 10, node_cap=10)
    assert sizes[-2] <= 10 < sizes[-1]


@pytest.mark.parametrize("fam,d", ALL_FAMILIES_SMALL)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_permutation_quotient_equivalence(fam: str, d: int, n: int) -> None:
    """The multiset graph is exactly the agent-indexed graph up to permutation."""
    p = fp.build_family(fam, d)
    nodes, edges = agent_graph(p, n)
    g = fp.reach(p, n)
    got_nodes = {tuple(sorted(sum(([q] * c for q, c in cfg.counts), []))) for cfg in g.configurations()}
    assert got_nodes == quotient_nodes(nodes)
    got_edges = set()
    for i in range(len(g)):
        src = g.config(i)
        src_t = tuple(sorted(sum(([q] * c for q, c in src.counts), [])))
        for j in g.successors_of(i):
            dst = g.config(int(j))
            got_edges.add((src_t, tuple(sorted(sum(([q] * c for q, c in dst.counts), [])))))
    assert got_edges == quotient_edges(edges)
    # Soundness verdicts agree.
    oracle_sound = not any(any(q in p.q1 for q in cfg) for cfg in nodes)
    assert (not (g.occurring & p.q1)) == oracle_sound


def test_asymmetric_protocol_supported() -> None:
    # delta(a, b) need not mirror delta(b, a); the engine must not assume it.
    p = fp.make_protocol(
        "asym",
        ["X", "Y", "Z"],
        q_init="X",
        q1=["Z"],
        rules={("X", "X"): [("X", "Y")], ("X", "Y"): [("Z", "Y")]},
    )
    p.validate()
    nodes, edges = agent_graph(p, 3)
    g = fp.reach(p, 3)
    assert len(g) == len(quotient_nodes(nodes))
    got = {tuple(sorted(sum(([q] * c for q, c in cfg.counts), []))) for cfg in g.configurations()}
    assert got == quotient_nodes(nodes)


def test_one_sided_cell_keeps_identity_self_loop() -> None:
    # Only the (S2, S1) order has a rule; the unlisted (S1, S2) order is an
    # identity encounter, so {S1, S2} must carry a self-loop exactly like
    # the agent-indexed semantics does.  (Found by the randomized test.)
    p = fp.make_protocol(
        "onesided", ["S0", "S1", "S2"], "S0", [],
        {("S0", "S0"): [("S1", "S2")], ("S2", "S1"): [("S0", "S0")]},
        deterministic=False,
    )
    c = fp.Configuration.from_pairs({1: 1, 2: 1})
    succ = fp.successors(p, c)
    assert succ == {c, fp.Configuration.from_pairs({0: 2})}
    nodes, edges = agent_graph(p, 2)
    g = fp.reach(p, 2)
    got_edges = set()
    for i in range(len(g)):
        src = tuple(sorted(sum(([q] * k for q, k in g.config(i).counts), [])))
        for j in g.successors_of(i):
            dst = tuple(sorted(sum(([q] * k for q, k in g.config(int(j)).counts), [])))
            got_edges.add((src, dst))
    assert got_edges == quotient_edges(edges)


def test_nondeterministic_protocol_supported() -> None:
    p = fp.make_protocol(
        "nondet",
        ["X", "Y"],
        q_init="X",
        q1=["Y"],
        rules={("X", "X"): [("X", "Y"), ("Y", "Y")]},
        deterministic=False,
    )
    succ = fp.successors(p, fp.initial_configuration(p, 2))
    assert succ == {
        fp.Configuration.from_pairs({0: 1, 1: 1}),
        fp.Configuration.from_pairs({1: 2}),
    }


@pytest.mark.parametrize("fam,d", [("a", 7), ("b", 11), ("angluin", 5), ("pow2", 8)])
def test_population_is_conserved(fam: str, d: int) -> None:
    p = fp.build_family(fam, d)
    for n in (2, 5):
        g = fp.reach(p, n)
        assert all(c.n == n for c in g.configurations())


@pytest.mark.parametrize("fam,d", [("a", 7), ("b", 7), ("b", 11), ("angluin", 6), ("pow2", 8)])
def test_occurrence_monotone_in_population(fam: str, d: int) -> None:
    p = fp.build_family(fam, d)
    prev: frozenset[int] = frozenset()
    for n in range(1, d + 3):
        occ = fp.reach(p, n).occurring
        assert prev <= occ
        prev = occ


def test_occurring_states_example() -> None:
    p = fp.build_protocol_a(7)
    occ = fp.reach(p, 2).occurring
    assert {p.display(q) for q in occ} == {"NB(1)", "NB(2)", "B(0)"}


def _closure(g: fp.ReachGraph, s: int) -> set[int]:
    """Nodes reachable from node ``s`` (itself included), by plain DFS."""
    seen = {s}
    stack = [s]
    while stack:
        v = stack.pop()
        for w in g.successors_of(v).tolist():
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _brute_scc_partition(g: fp.ReachGraph) -> set[frozenset[int]]:
    # Mutual reachability by per-node DFS; fine for tiny graphs.
    n = len(g)
    reach_sets = [_closure(g, s) for s in range(n)]
    comps = {}
    for v in range(n):
        key = frozenset(u for u in reach_sets[v] if v in reach_sets[u])
        comps[v] = key
    return set(comps.values())


@pytest.mark.parametrize("fam,d,n", [("b", 7, 7), ("angluin", 3, 5), ("a", 5, 6)])
def test_scc_matches_brute_force(fam: str, d: int, n: int) -> None:
    g = fp.reach(fp.build_family(fam, d), n)
    want = _brute_scc_partition(g)
    got = {}
    for v in range(len(g)):
        got.setdefault(int(g.scc[v]), set()).add(v)
    assert {frozenset(c) for c in got.values()} == want
    # Bottom components have no outgoing inter-component edge...
    for v in range(len(g)):
        for w in g.successors_of(v):
            if int(g.scc[v]) in g.bottom_sccs:
                assert g.scc[int(w)] == g.scc[v]
    # ...and every node can reach one.
    bottom = np.array([int(g.scc[v]) in g.bottom_sccs for v in range(len(g))])
    assert fp.can_reach_predicate(g, bottom).all()


def test_can_reach_predicate_maps_mask_to_mask() -> None:
    # Un-accepting FINAL pairs at n = 7: some nodes can no longer accept.
    m = build_mutant(MUTATIONS[2])
    g = fp.reach(m, 7)
    fin = m.state_named("FINAL")
    good = np.array([g.config(i).count(fin) > 0 for i in range(len(g))])
    kept = good.copy()
    reached = fp.can_reach_predicate(g, good)
    targets = set(np.flatnonzero(good).tolist())
    want = [bool(_closure(g, i) & targets) for i in range(len(g))]
    assert reached.dtype == bool
    assert reached.tolist() == want
    assert 0 < sum(want) < len(g)
    assert np.array_equal(good, kept)
    with pytest.raises(ValueError, match="shape"):
        fp.can_reach_predicate(g, good[1:])


def test_reach_graph_index_of() -> None:
    p = fp.build_protocol_b(7)
    g = fp.reach(p, 4)
    for i in range(len(g)):
        assert g.index_of(g.config(i)) == i
    assert g.index_of(fp.Configuration.from_pairs({p.state_named("FINAL"): 4})) is None


# -- protocol validation ----------------------------------------------------


def test_make_protocol_rejects_unknown_names() -> None:
    with pytest.raises(fp.ProtocolError):
        fp.make_protocol("x", ["A"], "B", [], {})
    with pytest.raises(fp.ProtocolError):
        fp.make_protocol("x", ["A"], "A", ["B"], {})
    with pytest.raises(fp.ProtocolError):
        fp.make_protocol("x", ["A"], "A", [], {("A", "C"): [("A", "A")]})


def test_validate_rejects_nondeterministic_cell_when_declared_deterministic() -> None:
    with pytest.raises(fp.ProtocolError):
        fp.make_protocol(
            "x", ["A", "B"], "A", [], {("A", "A"): [("A", "B"), ("B", "B")]}
        )


def test_validate_rejects_duplicate_state_names() -> None:
    p = fp.Protocol(
        name="dup",
        states=(fp.State(0, "A"), fp.State(1, "A")),
        q_init=0,
        q1=frozenset(),
        delta=(),
    )
    with pytest.raises(fp.ProtocolError):
        p.validate()


# -- JSON interchange -------------------------------------------------------

ROUND_TRIP = [
    (fam, d)
    for d in range(1, 65)
    for fam in ("angluin", "a", "pow2", "b", "best")
    if not (fam == "pow2" and d & (d - 1))
    and not (fam == "b" and (d < 3 or d & (d - 1) == 0))
]


@pytest.mark.parametrize("fam,d", ROUND_TRIP)
def test_json_round_trip(fam: str, d: int) -> None:
    p = fp.build_family(fam, d)
    assert fp.protocol_from_json(fp.protocol_to_json(p)) == p


def test_json_omits_identity_cells() -> None:
    import json

    p = fp.build_protocol_b(7)
    obj = json.loads(fp.protocol_to_json(p))
    listed = {(a, b) for a, b, _ in obj["delta"]}
    assert ("NB(1)", "B") not in listed  # identity stays implicit
    q = fp.protocol_from_json(fp.protocol_to_json(p))
    nb1, b = q.state_named("NB(1)"), q.state_named("B")
    assert q.delta_of(nb1, b) == ((nb1, b),)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda o: o.pop("q_init"),
        lambda o: o.__setitem__("states", ["A", "A"]),
        lambda o: o.__setitem__("deterministic", "yes"),
        lambda o: o.__setitem__("delta", [["NB(1)", "NB(1)", []]]),
        lambda o: o.__setitem__("delta", o["delta"] + [o["delta"][0]]),
        lambda o: o.__setitem__("q1", ["NOPE"]),
    ],
)
def test_json_parse_rejects_malformed(mangle) -> None:
    import json

    obj = json.loads(fp.protocol_to_json(fp.build_protocol_b(7)))
    mangle(obj)
    with pytest.raises(fp.ProtocolError):
        fp.protocol_from_json(json.dumps(obj))


def test_json_parse_rejects_garbage() -> None:
    with pytest.raises(fp.ProtocolError):
        fp.protocol_from_json("{nope")
    with pytest.raises(fp.ProtocolError):
        fp.protocol_from_json('"just a string"')


# -- randomized cross-check against the reference semantics -----------------


@st.composite
def small_protocols(draw):
    nq = draw(st.integers(1, 3))
    names = [f"S{i}" for i in range(nq)]
    rules = {}
    for a in range(nq):
        for b in range(nq):
            if draw(st.booleans()):
                k = draw(st.integers(1, 2))
                cell = [
                    (names[draw(st.integers(0, nq - 1))], names[draw(st.integers(0, nq - 1))])
                    for _ in range(k)
                ]
                rules[(names[a], names[b])] = cell
    q1 = [n for n in names if draw(st.booleans())]
    return fp.make_protocol(
        "rand", names, names[0], q1, rules, deterministic=False
    )


@st.composite
def nontrivial_protocols(draw):
    """2-4 states and a drawn Q1, where ``(q_init, q_init)`` always has a
    non-identity result, so that every population of two or more agents
    has a graph of more than one node."""
    nq = draw(st.integers(2, 4))
    names = [f"S{i}" for i in range(nq)]
    pair = st.tuples(st.sampled_from(names), st.sampled_from(names))
    rules = {}
    for a in names:
        for b in names:
            if draw(st.booleans()):
                rules[(a, b)] = draw(st.lists(pair, min_size=1, max_size=2))
    # Any ordered pair of states but the first, ("S0", "S0").
    moves = draw(st.sampled_from([(a, b) for a in names for b in names][1:]))
    rules[("S0", "S0")] = [moves, *rules.get(("S0", "S0"), [])]
    q1 = [n for n in names if draw(st.booleans())]
    return fp.make_protocol("nontrivial", names, "S0", q1, rules, deterministic=False)


def record_size(nodes: int) -> None:
    """Record the graph size of a draw as a hypothesis event (shown by
    ``--hypothesis-show-statistics``); a no-op outside hypothesis tests."""
    if not currently_in_test_context():
        return
    bucket = "1" if nodes == 1 else "2-9" if nodes < 10 else "10-99" if nodes < 100 else "100+"
    event(f"graph nodes: {bucket}")


def _assert_matches_reference(p: fp.Protocol, n: int) -> None:
    nodes, edges = agent_graph(p, n)
    g = fp.reach(p, n)
    record_size(len(g))
    got_nodes = {tuple(sorted(sum(([q] * c for q, c in cfg.counts), []))) for cfg in g.configurations()}
    assert got_nodes == quotient_nodes(nodes)
    got_edges = set()
    for i in range(len(g)):
        # The scalar kernel behind successors() is a second, independent
        # derivation of every graph row.
        assert fp.successors(p, g.config(i)) == {g.config(int(j)) for j in g.successors_of(i)}
        src = tuple(sorted(sum(([q] * c for q, c in g.config(i).counts), [])))
        for j in g.successors_of(i):
            dst = tuple(sorted(sum(([q] * c for q, c in g.config(int(j)).counts), [])))
            got_edges.add((src, dst))
    assert got_edges == quotient_edges(edges)


@given(small_protocols(), st.integers(1, 3))
def test_random_protocols_match_reference(p: fp.Protocol, n: int) -> None:
    _assert_matches_reference(p, n)


@given(nontrivial_protocols(), st.integers(2, 3))
def test_nontrivial_protocols_match_reference(p: fp.Protocol, n: int) -> None:
    _assert_matches_reference(p, n)


#: Keeps the wide random graphs small; a draw above it must be capped by
#: both searches.
WIDE_NODE_CAP = 2_000


@st.composite
def wide_protocols(draw):
    """9-20 states, with rules among two to four of them anywhere in the
    state order, so that counts land in every limb of the packed keys while
    the graphs stay small."""
    nq = draw(st.integers(9, 20))
    names = [f"S{i}" for i in range(nq)]
    active = draw(st.lists(st.integers(0, nq - 1), min_size=2, max_size=4, unique=True))
    pick = st.sampled_from(active)
    rules = {}
    for a in active:
        for b in active:
            if draw(st.booleans()):
                cell = draw(st.lists(st.tuples(pick, pick), min_size=1, max_size=2))
                rules[(names[a], names[b])] = [(names[c], names[d]) for c, d in cell]
    q1 = [names[q] for q in active if draw(st.booleans())]
    return fp.make_protocol("wide", names, names[active[0]], q1, rules, deterministic=False)


def _assert_matches_sequential_bfs(p: fp.Protocol, n: int) -> None:
    want = sequential_reach(p, n, WIDE_NODE_CAP)
    if want is None:
        with pytest.raises(fp.CapExceeded):
            fp.reach(p, n, WIDE_NODE_CAP)
        return
    nodes, rows = want
    g = fp.reach(p, n, WIDE_NODE_CAP)
    record_size(len(g))
    assert g.counts_matrix.tolist() == [list(c) for c in nodes]
    assert [g.successors_of(i).tolist() for i in range(len(g))] == rows
    for i in range(len(g)):
        assert fp.successors(p, g.config(i)) == {g.config(int(j)) for j in g.successors_of(i)}


@settings(max_examples=40)
@given(wide_protocols(), st.sampled_from([7, 8, 15, 16, 31, 32]))
def test_wide_protocols_match_sequential_bfs(p: fp.Protocol, n: int) -> None:
    # Fields are 3 bits wide at n = 7, 4 at n = 8 and 15, 5 at n = 16 and
    # 31, and 6 at n = 32; keys then need a second limb from 17 states on
    # (4-bit fields), 13 (5-bit) or 11 (6-bit).
    _assert_matches_sequential_bfs(p, n)


@given(nontrivial_protocols(), st.integers(2, 12))
def test_nontrivial_protocols_match_sequential_bfs(p: fp.Protocol, n: int) -> None:
    _assert_matches_sequential_bfs(p, n)


#: One-limb keys, then keys of two limbs (21 states with 16 or 12 fields to
#: a limb).
SEARCH_CELLS = [("b", 7, 10), ("a", 7, 9), ("angluin", 20, 10), ("angluin", 20, 21)]

#: Search internals that must not change a result: four fingerprints for
#: every key, so that nearly every lookup collides, and blocks of three
#: frontier rows.
SEARCH_PATCHES = {
    "collisions": ("_fingerprint", lambda limbs: limbs[:, 0] & np.uint64(3)),
    "blocks": ("_BLOCK_ROWS", 3),
}


@pytest.mark.parametrize("patch", sorted(SEARCH_PATCHES))
@pytest.mark.parametrize("fam,d,n", SEARCH_CELLS)
def test_search_internals_leave_results_unchanged(
    monkeypatch, patch: str, fam: str, d: int, n: int
) -> None:
    p = fp.build_family(fam, d)
    g = fp.reach(p, n)
    om = fp.occurrence_thresholds(p, d + 2)
    targets = [g.config(i) for i in (len(g) // 2, len(g) - 1)]
    traces = [fp.encounter_trace(p, n, t) for t in targets]
    monkeypatch.setattr(core, *SEARCH_PATCHES[patch])
    h = fp.reach(p, n)
    assert np.array_equal(h.counts_matrix, g.counts_matrix)
    assert np.array_equal(h.indptr, g.indptr)
    assert np.array_equal(h.targets, g.targets)
    assert fp.occurrence_thresholds(p, d + 2) == om
    assert [fp.encounter_trace(p, n, t) for t in targets] == traces
