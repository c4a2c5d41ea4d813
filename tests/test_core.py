"""Core semantics: configurations, successors, reachability, JSON format."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from hypothesis.control import currently_in_test_context

import flockpp as fp
from flockpp import core, verify
from mutations import MUTATIONS, build_mutant
from oracle import (
    agent_graph,
    configurations,
    count,
    index_of,
    occurring,
    quotient_edges,
    quotient_nodes,
    sequential_reach,
    sequential_trace,
    successors_of,
    support,
)

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
    assert count(c, p.q_init) == 5
    assert count(c, p.state_named("FINAL")) == 0
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
    assert support(c) == (1, 3)
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
    assert g.scc.tolist() == [0]
    assert g.bottom[g.scc[0]]


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
    with pytest.raises(TypeError):
        fp.reach(p, 7.5)  # would search n = 7 and label the graph 7.5


def test_reach_cap_exceeded() -> None:
    p = fp.build_protocol_b(7)
    with pytest.raises(fp.CapExceeded) as exc:
        fp.reach(p, 10, node_cap=10)
    assert exc.value.node_cap == 10
    # How far it got: every configuration within the BFS depth reached.
    tree = fp.reach(p, 10).tree
    depth = np.zeros(tree.shape[1], dtype=int)
    for i in range(1, len(depth)):
        depth[i] = depth[tree[0, i]] + 1
    assert exc.value.nodes == np.count_nonzero(depth <= exc.value.levels) > 10
    assert np.count_nonzero(depth < exc.value.levels) <= 10


def test_reach_stops_at_the_level_that_passes_the_cap(monkeypatch) -> None:
    # The cap bounds memory only if no level is expanded after the one that
    # passes it.
    sizes = []
    expand = core._LevelSearch.expand

    def counted(self):
        out = expand(self)
        sizes.append(self.num_nodes)
        return out

    monkeypatch.setattr(core._LevelSearch, "expand", counted)
    with pytest.raises(fp.CapExceeded):
        fp.reach(fp.build_protocol_b(7), 10, node_cap=10)
    assert sizes[-2] <= 10 < sizes[-1]


def test_wrapped_count_fails_fast() -> None:
    # With diagonal cells enabled by one agent, a count of 1 loses two and
    # wraps to 255, and the search would run on through configurations that
    # do not exist.
    search = core._LevelSearch(fp.build_protocol_b(7), 3, [3], edges=True)
    search.app_min[:] = 0
    with pytest.raises(RuntimeError, match="wrapped"):
        while len(search.cnt):
            search.expand()


def _multiset(c: fp.Configuration) -> tuple[int, ...]:
    return tuple(sorted(sum(([q] * k for q, k in c.counts), [])))


def _assert_matches_agents(
    p: fp.Protocol, g: fp.ReachGraph, nodes: set[tuple], edges: set[tuple]
) -> None:
    """The nodes of ``g`` are the agent-indexed ``nodes`` up to permutation,
    every graph row is ``successors()`` of its node minus the node itself,
    and ``successors()`` on every node, identity steps included, is the
    agent-indexed one-step relation ``edges`` up to permutation."""
    assert {_multiset(cfg) for cfg in configurations(g)} == quotient_nodes(nodes)
    got_edges = set()
    for i in range(len(g)):
        c = g.config(i)
        row = successors_of(g, i)
        assert i not in row
        succ = fp.successors(p, c)
        assert {g.config(j) for j in row} == succ - {c}
        got_edges |= {(_multiset(c), _multiset(s)) for s in succ}
    assert got_edges == quotient_edges(edges)


@pytest.mark.parametrize("fam,d", ALL_FAMILIES_SMALL)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_permutation_quotient_equivalence(fam: str, d: int, n: int) -> None:
    """The multiset graph is exactly the agent-indexed graph up to
    permutation, without the steps that leave a configuration unchanged."""
    p = fp.build_family(fam, d)
    nodes, edges = agent_graph(p, n)
    g = fp.reach(p, n)
    _assert_matches_agents(p, g, nodes, edges)
    # Soundness verdicts agree.
    oracle_sound = not any(any(q in p.q1 for q in cfg) for cfg in nodes)
    assert (not (occurring(g) & p.q1)) == oracle_sound


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
    got = {tuple(sorted(sum(([q] * c for q, c in cfg.counts), []))) for cfg in configurations(g)}
    assert got == quotient_nodes(nodes)


def test_one_sided_cell_keeps_identity_self_loop() -> None:
    # Only the (S2, S1) order has a rule; the unlisted (S1, S2) order is an
    # identity encounter, so successors() of {S1, S2} must include itself
    # exactly like the agent-indexed semantics does, while its graph row
    # lists only the move.  (Found by the randomized test.)
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
    assert [g.config(int(j)) for j in successors_of(g, index_of(g, c))] == [
        fp.Configuration.from_pairs({0: 2})
    ]
    _assert_matches_agents(p, g, nodes, edges)


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


def _catalyst_protocol() -> fp.Protocol:
    """X turns into Y beside another X or any catalyst C1, C2, C3, and back
    beside C2 or C3, so several encounters make each of these two moves.
    The catalysts arrive one at a time, so some configurations hold only a
    later one."""
    names = ["S", "X", "Y", "C1", "C2", "C3"]
    rules = {
        ("S", "S"): [("C3", "X"), ("C1", "X"), ("X", "X"), ("C2", "S")],
        ("X", "X"): [("Y", "X")],
        ("C1", "X"): [("C1", "Y")],
        ("X", "C2"): [("Y", "C2")],
        ("C3", "X"): [("C3", "Y")],
        ("C2", "Y"): [("C2", "X")],
        ("Y", "C3"): [("X", "C3")],
        ("Y", "Y"): [("S", "S")],
    }
    return fp.make_protocol("catalysts", names, "S", ["Y"], rules, deterministic=False)


def _steps(p: fp.Protocol) -> list[tuple[int, ...]]:
    """The change of state counts that each row of ``Protocol._rules`` makes."""
    out = []
    for a, b, c, d in p._rules.tolist():
        step = [0] * p.num_states
        for q, sign in ((a, -1), (b, -1), (c, 1), (d, 1)):
            step[q] += sign
        out.append(tuple(step))
    return out


@pytest.mark.parametrize("n", range(2, 8))
def test_same_step_results_match_sequential_bfs(n: int) -> None:
    # Four rules move X to Y and two move Y back; a row lists each
    # target once and the tree labels it with its first enabled rule.
    p = _catalyst_protocol()
    steps = _steps(p)
    assert sorted(steps.count(s) for s in set(steps))[-2:] == [2, 4]
    g = _assert_matches_sequential_bfs(p, n, 20_000)
    for i, c in enumerate(configurations(g)):
        walk = verify._walk(p, verify._tree_path(g.tree, i), g.counts_matrix[i].tolist())
        assert [(s.pair, s.result, s.after) for s in walk] == sequential_trace(p, n, c)
    # One X beside C3 alone: only the last of the four X -> Y results fires.
    _, x, _, c1, c2, c3 = g.counts_matrix.T
    assert np.any((x == 1) & (c3 > 0) & (c1 == 0) & (c2 == 0))


def test_same_step_results_in_a_multi_root_search() -> None:
    # Each size's nodes appear in the order and with the labels of its own
    # search, and the sweep reads the occurrences off them.
    p = _catalyst_protocol()
    sizes = np.arange(1, 8)
    search = core._LevelSearch(p, 7, sizes, edges=False)
    size = sizes
    found = [np.column_stack([size, search.cnt, np.zeros_like(size)])]
    while len(size):
        new_from, new_app = search.expand()
        size = size[new_from]
        found.append(np.column_stack([size, search.cnt, new_app]))
    found = np.concatenate(found)
    for s in sizes.tolist():
        g = fp.reach(p, s)
        want = np.column_stack([np.full(len(g), s), g.counts_matrix, g.tree[1]])
        assert found[found[:, 0] == s].tolist() == want.tolist()
    assert fp.occurrence_thresholds(p, 7).values == _first_occurrence(p, 7)


def _first_occurrence(p: fp.Protocol, n_max: int) -> dict[int, int]:
    """The least size up to ``n_max`` whose graph holds each state."""
    first: dict[int, int] = {}
    for s in range(1, n_max + 1):
        for q in occurring(fp.reach(p, s)):
            first.setdefault(q, s)
    return first


@pytest.mark.parametrize("fam,d", [("a", 7), ("b", 11), ("angluin", 5), ("pow2", 8)])
def test_population_is_conserved(fam: str, d: int) -> None:
    p = fp.build_family(fam, d)
    for n in (2, 5):
        g = fp.reach(p, n)
        assert all(c.n == n for c in configurations(g))


@pytest.mark.parametrize("fam,d", [("a", 7), ("b", 7), ("b", 11), ("angluin", 6), ("pow2", 8)])
def test_occurrence_monotone_in_population(fam: str, d: int) -> None:
    p = fp.build_family(fam, d)
    prev: frozenset[int] = frozenset()
    for n in range(1, d + 3):
        occ = occurring(fp.reach(p, n))
        assert prev <= occ
        prev = occ


def test_occurring_states_example() -> None:
    p = fp.build_protocol_a(7)
    occ = occurring(fp.reach(p, 2))
    assert {p.display(q) for q in occ} == {"NB(1)", "NB(2)", "B(0)"}


def _closure(g: fp.ReachGraph, s: int) -> set[int]:
    """Nodes reachable from node ``s`` (itself included), by plain DFS."""
    seen = {s}
    stack = [s]
    while stack:
        v = stack.pop()
        for w in successors_of(g, v):
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
        for w in successors_of(g, v):
            if g.bottom[g.scc[v]]:
                assert g.scc[int(w)] == g.scc[v]
    # ...and every node can reach one.
    bottom = np.array([g.bottom[g.scc[v]] for v in range(len(g))])
    assert fp.can_reach_predicate(g, bottom).all()


@pytest.mark.parametrize("chunk", [1, 2, 3, 64])
def test_bottom_does_not_depend_on_edge_chunks(monkeypatch, chunk: int) -> None:
    # Un-accepting FINAL pairs at n = 7: five bottom components, each a node
    # without edges.  b(7) at n = 10 has rows longer than 3 edges, each
    # scanned alone at chunks of 1 to 3, and at n = 1 no edges at all.  The
    # hand-built graph has rows 0, 2 and 5 empty, so at chunks of 2 its
    # first chunk, rows 0-2, starts and ends on an empty row.
    monkeypatch.setattr(core, "_EDGE_CHUNK", chunk)
    p = fp.build_protocol_b(7)
    hand = fp.ReachGraph(
        p,
        7,
        np.zeros((6, p.num_states), dtype=np.uint8),
        np.array([0, 0, 2, 2, 3, 5, 5]),
        np.array([2, 3, 1, 5, 0], dtype=np.int32),
        np.zeros((2, 6), dtype=np.int32),
    )
    graphs = [fp.reach(build_mutant(MUTATIONS[2]), 7), fp.reach(p, 10), fp.reach(p, 1), hand]
    assert np.diff(graphs[1].indptr).max() > 3 and graphs[2].num_edges == 0
    for g in graphs:
        src = np.repeat(np.arange(len(g)), np.diff(g.indptr))
        # scipy numbers the components so that edges between them run to
        # lower labels; the reversed numbering makes them run to higher ones.
        for scc in (g.scc, g.scc.max() - g.scc):
            relabelled = fp.ReachGraph(g.protocol, g.n, g.counts_matrix, g.indptr, g.targets, g.tree)
            relabelled.scc = scc
            want = np.ones(int(scc.max()) + 1, dtype=bool)
            want[scc[src][scc[src] != scc[g.targets]]] = False
            assert np.array_equal(relabelled.bottom, want)
    assert hand.bottom[hand.scc].tolist() == [True, False, True, False, False, True]


def test_scc_and_bottom_copy_no_edges() -> None:
    # scipy casts a graph's data to float64, which copied 8 B per edge plus
    # the indices (15.9 B/edge in all), until the SCC pass handed it
    # zero-stride float64 data; the bottom scan held source labels per edge
    # (13.5 B/edge).  Measured here: 2.3 and 8.1 B/edge.
    g = fp.reach(fp.build_protocol_a(14), 17)
    assert g.num_edges > 100_000
    tracemalloc.start()
    try:
        for name, bound in [("scc", 4), ("bottom", 10)]:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            getattr(g, name)
            assert tracemalloc.get_traced_memory()[1] - base < bound * g.num_edges, name
    finally:
        tracemalloc.stop()


def test_can_reach_predicate_maps_mask_to_mask() -> None:
    # Un-accepting FINAL pairs at n = 7: some nodes can no longer accept.
    m = build_mutant(MUTATIONS[2])
    g = fp.reach(m, 7)
    fin = m.state_named("FINAL")
    good = np.array([count(g.config(i), fin) > 0 for i in range(len(g))])
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
        assert index_of(g, g.config(i)) == i
    assert index_of(g, fp.Configuration.from_pairs({p.state_named("FINAL"): 4})) is None


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
        lambda o: o.__setitem__("q_init", ["NB(1)"]),
        lambda o: o.__setitem__("q1", [["FINAL"]]),
        lambda o: o.__setitem__("name", 7),
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
    # The scalar kernel behind successors() is a second, independent
    # derivation of every graph row.
    _assert_matches_agents(p, g, nodes, edges)


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
    """23-26 states, with rules among two to four of them anywhere in the
    state order, so that counts land in every word of the keys while the
    graphs stay small."""
    nq = draw(st.integers(23, 26))
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


def _assert_matches_sequential_bfs(
    p: fp.Protocol, n: int, node_cap: int = WIDE_NODE_CAP
) -> fp.ReachGraph | None:
    """``reach`` gives the nodes and edge rows of :func:`sequential_reach`,
    and each row is ``successors()`` minus its node; returns the graph, or
    None when both searches are capped."""
    want = sequential_reach(p, n, node_cap)
    if want is None:
        with pytest.raises(fp.CapExceeded):
            fp.reach(p, n, node_cap)
        return None
    nodes, rows = want
    g = fp.reach(p, n, node_cap)
    record_size(len(g))
    assert g.counts_matrix.tolist() == [list(c) for c in nodes]
    assert [successors_of(g, i) for i in range(len(g))] == rows
    for i in range(len(g)):
        c = g.config(i)
        assert i not in rows[i]
        assert fp.successors(p, c) - {c} == {g.config(j) for j in rows[i]}
    return g


@settings(max_examples=40)
@given(wide_protocols(), st.sampled_from([7, 8, 15, 16, 31, 32]))
def test_wide_protocols_match_sequential_bfs(p: fp.Protocol, n: int) -> None:
    # A word holds 21 digits in radix n + 1 at n = 7, 20 at n = 8, 16 at
    # n = 15, 15 at n = 16 and 12 at n = 31 and 32, so the 22-25 digits of
    # 23-26 states (the last count is implied) take two or three words.
    assert core._LevelSearch(p, n, [n], edges=True).key.itemsize >= 16
    _assert_matches_sequential_bfs(p, n)


@given(nontrivial_protocols(), st.integers(2, 12))
def test_nontrivial_protocols_match_sequential_bfs(p: fp.Protocol, n: int) -> None:
    _assert_matches_sequential_bfs(p, n)


#: Each cell and the words of its key in the search from I_n: one word,
#: then two in each family that has them.  The 20 digits of angluin(20)
#: take two words in radix 11 (18 to a word) and in radix 22 (14), and the
#: 12 of a(63) and b(66) one in radix 32 (12) and in radix 29 (13) but two
#: in radix 41 (11).  Occurrence sweeps run up to the cell's n.
SEARCH_CELLS = {
    ("b", 7, 10): 1,
    ("a", 7, 9): 1,
    ("angluin", 20, 10): 2,
    ("angluin", 20, 21): 2,
    ("a", 63, 31): 1,
    ("b", 66, 28): 1,
    ("b", 66, 40): 2,
}

#: Search internals that must not change a result: blocks of three frontier
#: rows.
SEARCH_PATCHES = {
    "blocks": ("_BLOCK_ROWS", 3),
}


@pytest.mark.parametrize("patch", sorted(SEARCH_PATCHES))
@pytest.mark.parametrize("fam,d,n", SEARCH_CELLS)
def test_search_internals_leave_results_unchanged(
    monkeypatch, patch: str, fam: str, d: int, n: int
) -> None:
    p = fp.build_family(fam, d)
    assert core._LevelSearch(p, n, [n], edges=True).key.itemsize == 8 * SEARCH_CELLS[fam, d, n]
    g = fp.reach(p, n)
    om = fp.occurrence_thresholds(p, n)
    targets = [g.config(i) for i in (len(g) // 2, len(g) - 1)]
    traces = [fp.encounter_trace(p, n, t) for t in targets]
    monkeypatch.setattr(core, *SEARCH_PATCHES[patch])
    h = fp.reach(p, n)
    assert np.array_equal(h.counts_matrix, g.counts_matrix)
    assert np.array_equal(h.indptr, g.indptr)
    assert np.array_equal(h.targets, g.targets)
    assert fp.occurrence_thresholds(p, n) == om
    assert [fp.encounter_trace(p, n, t) for t in targets] == traces


def _digit_protocol(nq: int) -> fp.Protocol:
    """``nq`` states: agents in S0 pile into the last digit's state
    ``S{nq-2}``, two of which move on to the last state, whose count a
    search from one root implies."""
    names = [f"S{i}" for i in range(nq)]
    top, last = names[-2], names[-1]
    rules = {("S0", "S0"): [(top, top)], ("S0", top): [(top, top)], (top, top): [(last, last)]}
    return fp.make_protocol(f"digits{nq}", names, "S0", [], rules)


@pytest.mark.parametrize("n,nq,words", [(255, 9, 1), (255, 10, 2), (31, 13, 1), (31, 14, 2)])
def test_digit_boundary_matches_sequential_bfs(n: int, nq: int, words: int) -> None:
    # 256**8 == 2**64, so at n = 255 the 8 digits of 9 states fill one word
    # exactly, and all 255 agents in the last digit set its top byte.
    # 32**13 == 2**65, so at n = 31 a word holds 12 digits and not 13.
    p = _digit_protocol(nq)
    assert core._LevelSearch(p, n, [n], edges=True).key.itemsize == 8 * words
    g = _assert_matches_sequential_bfs(p, n, 20_000)
    assert g.counts_matrix[:, nq - 2].max() == n


@pytest.mark.parametrize("n", [7, 31, 255])
def test_search_from_a_numpy_integer_size(n: int) -> None:
    # Sizes often come from numpy arrays; int64 arithmetic on the radix
    # would wrap before it passed 2**64.
    p = _digit_protocol(10)
    want = core._LevelSearch(p, n, [n], edges=True)
    got = core._LevelSearch(p, np.int64(n), [n], edges=True)
    assert got.key.dtype == want.key.dtype
    assert got.key.tolist() == want.key.tolist()
    while len(want.cnt):
        assert [c.tolist() for c in got.expand()] == [c.tolist() for c in want.expand()]
        assert got.key.tolist() == want.key.tolist()
    assert not len(got.cnt)


def test_multi_root_search_at_the_digit_boundary() -> None:
    # A search from several sizes keeps all 9 digits, two words in radix
    # 256, so configurations that differ only in the last count stay apart:
    # it finds each size's graph, as a search from that size alone does.
    p = _digit_protocol(9)
    sizes = np.array([253, 254, 255])
    search = core._LevelSearch(p, 255, sizes, edges=False)
    assert search.key.itemsize == 16
    size, found = sizes, [np.column_stack([sizes, search.cnt])]
    while len(size):
        new_from, _ = search.expand()
        size = size[new_from]
        found.append(np.column_stack([size, search.cnt]))
    want = []
    for s in sizes.tolist():
        g = fp.reach(p, s)
        want.append(np.column_stack([np.full(len(g), s), g.counts_matrix]))
    assert sorted(np.concatenate(found).tolist()) == sorted(np.concatenate(want).tolist())
    # S1..S6 never occur, so the sweep's last wave searches sizes 129..255.
    names = [f"S{i}" for i in range(9)]
    pair = fp.make_protocol("pair", names, "S0", [], {("S0", "S0"): [("S7", "S8")]})
    om = fp.occurrence_thresholds(pair, 255)
    assert (om.values, om.n_cap, om.cap_error) == ({0: 1, 7: 2, 8: 2}, 255, None)


def _terminal_protocol() -> fp.Protocol:
    """Two S agents become T1, T2 or T3 pairs, where nothing happens, or an
    A pair, one of which moves on to B."""
    names = ["S", "T1", "T2", "T3", "A", "B"]
    rules = {
        ("S", "S"): [("T1", "T1"), ("T2", "T2"), ("T3", "T3"), ("A", "A")],
        ("A", "A"): [("A", "B")],
    }
    return fp.make_protocol("terminal", names, "S", ["B"], rules, deterministic=False)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_blocks_without_enabled_results(monkeypatch, n: int) -> None:
    # At n = 1 no rule is enabled.  At n = 2 and 3, in blocks of
    # three frontier rows, the first level's first block holds only the
    # three terminal T pairs (beside one S at n = 3), and at n = 2 the last
    # level holds only the terminal A + B.
    p = _terminal_protocol()
    monkeypatch.setattr(core, *SEARCH_PATCHES["blocks"])
    g = _assert_matches_sequential_bfs(p, n, 1_000)
    assert [fp.encounter_trace(p, n, c) for c in configurations(g)] == [
        [verify.TraceStep(*step) for step in sequential_trace(p, n, c)] for c in configurations(g)
    ]
    assert fp.occurrence_thresholds(p, n).values == _first_occurrence(p, n)
    if n > 1:
        assert [successors_of(g, i) for i in (1, 2, 3)] == [[], [], []]
