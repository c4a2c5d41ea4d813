"""Independent reference semantics used by the tests.

Everything here is deliberately naive and shares no machinery with the
package: configurations are agent-indexed tuples, transitions pick ordered
pairs of agent positions, reachability is a plain set-based BFS.  The
package's multiset engine must agree with the permutation quotient of this
semantics exactly.  :func:`sequential_reach` is the node-by-node multiset
BFS that fixes the engine's node numbering and edge-row order,
:func:`sequential_trace` the same BFS with parent pointers that fixes the
encounter traces, :func:`occurrence_by_sizes` the occurrence sweep over it, :func:`first_witnesses` reads the check verdicts and
their first-bad-node witnesses off that BFS, and :func:`stepwise_run` is
the plain simulator loop that fixes the seeded trajectory of
:func:`flockpp.sim.run`.  :func:`count`, :func:`support`,
:func:`contains_any` and :func:`unanimous_in` read a
:class:`~flockpp.Configuration`, and :func:`configurations`,
:func:`index_of`, :func:`successors_of` and :func:`occurring` a
:class:`~flockpp.ReachGraph`.
"""

from __future__ import annotations

from collections.abc import Iterator
from random import Random

from flockpp import Configuration, Protocol, ReachGraph
from flockpp.sim import SimReport


def count(c: Configuration, q: int) -> int:
    """The number of agents of ``c`` in state ``q``."""
    return dict(c.counts).get(q, 0)


def support(c: Configuration) -> tuple[int, ...]:
    """The states that hold at least one agent of ``c``."""
    return tuple(q for q, _ in c.counts)


def contains_any(c: Configuration, qs: frozenset[int]) -> bool:
    """True when some agent of ``c`` is in a state from ``qs``."""
    return any(q in qs for q, _ in c.counts)


def unanimous_in(c: Configuration, qs: frozenset[int]) -> bool:
    """True when every agent of ``c`` is in a state from ``qs``."""
    return all(q in qs for q, _ in c.counts)


def configurations(g: ReachGraph) -> Iterator[Configuration]:
    """The nodes of ``g`` in node order."""
    for i in range(len(g)):
        yield g.config(i)


def index_of(g: ReachGraph, c: Configuration) -> int | None:
    """The node of ``g`` that is ``c``, or None if there is none."""
    return next((i for i, node in enumerate(configurations(g)) if node == c), None)


def successors_of(g: ReachGraph, i: int) -> list[int]:
    """The targets of node ``i``'s edge row."""
    return g.targets[g.indptr[i] : g.indptr[i + 1]].tolist()


def occurring(g: ReachGraph) -> frozenset[int]:
    """The states that hold an agent in some node of ``g``."""
    return frozenset(q for c in configurations(g) for q, _ in c.counts)


def agent_graph(p: Protocol, n: int) -> tuple[set[tuple], set[tuple]]:
    """Reachable agent-tuples from all-q_init, plus every one-step edge."""
    init = (p.q_init,) * n
    seen = {init}
    frontier = [init]
    edges: set[tuple] = set()
    while frontier:
        nxt_frontier = []
        for cfg in frontier:
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    for c, d in p.delta_of(cfg[i], cfg[j]):
                        out = list(cfg)
                        out[i] = c
                        out[j] = d
                        out_t = tuple(out)
                        edges.add((cfg, out_t))
                        if out_t not in seen:
                            seen.add(out_t)
                            nxt_frontier.append(out_t)
        frontier = nxt_frontier
    return seen, edges


def sorted_multiset(cfg: tuple) -> tuple:
    return tuple(sorted(cfg))


def quotient_nodes(nodes: set[tuple]) -> set[tuple]:
    return {sorted_multiset(c) for c in nodes}


def quotient_edges(edges: set[tuple]) -> set[tuple[tuple, tuple]]:
    return {(sorted_multiset(a), sorted_multiset(b)) for a, b in edges}


def occurrence_by_sweep(p: Protocol, n_max: int) -> dict[int, int]:
    """First population size at which each state occurs, for n <= n_max."""
    first: dict[int, int] = {}
    for n in range(1, n_max + 1):
        nodes, _ = agent_graph(p, n)
        for cfg in nodes:
            for q in cfg:
                first.setdefault(q, n)
    return first


def occurrence_by_sizes(
    p: Protocol, n_cap: int, node_cap: int, n_limit: int
) -> tuple[dict[int, int], int, int | None]:
    """The occurrence sweep read size by size off :func:`sequential_reach`.

    Returns the first size at which each state occurs, the last size read
    and the first size with more than ``node_cap`` reachable nodes (None if
    the sweep met none).  The sweep stops once every state has occurred,
    and then counts as read up to ``n_cap``; at the first capped size; or
    after ``min(n_cap, n_limit)``.
    """
    first: dict[int, int] = {}
    for n in range(1, min(n_cap, n_limit) + 1):
        found = sequential_reach(p, n, node_cap)
        if found is None:
            return first, n - 1, n
        for node in found[0]:
            for q, k in enumerate(node):
                if k:
                    first.setdefault(q, n)
        if len(first) == p.num_states:
            return first, n_cap, None
    return first, min(n_cap, n_limit), None


def sequential_reach(
    p: Protocol, n: int, node_cap: int
) -> tuple[list[tuple[int, ...]], list[list[int]]] | None:
    """Node-by-node BFS over count vectors, read straight off ``delta_of``.

    Nodes are numbered in discovery order from I_n.  A row lists the
    distinct successors in encounter order: unordered pairs {a, b} with
    a <= b in increasing order, the results of (a, b), then the swapped
    results of (b, a).  Results that leave the multiset unchanged are
    skipped, so no row lists its own node.  Returns None when more than
    ``node_cap`` nodes are reachable.
    """
    nq = p.num_states
    root = tuple(n if q == p.q_init else 0 for q in range(nq))
    nodes = [root]
    index = {root: 0}
    rows: list[list[int]] = []
    for src in nodes:  # grows while it is walked
        row: list[int] = []
        support = [q for q in range(nq) if src[q]]
        for a in support:
            for b in support:
                if b < a or (a == b and src[a] < 2):
                    continue
                results = list(p.delta_of(a, b))
                if a != b:
                    results += [(d, c) for c, d in p.delta_of(b, a)]
                for c, d in results:
                    if sorted((c, d)) == sorted((a, b)):
                        continue
                    dst = list(src)
                    dst[a] -= 1
                    dst[b] -= 1
                    dst[c] += 1
                    dst[d] += 1
                    j = index.get(tuple(dst))
                    if j is None:
                        if len(nodes) >= node_cap:
                            return None
                        j = index[tuple(dst)] = len(nodes)
                        nodes.append(tuple(dst))
                    if j not in row:
                        row.append(j)
        rows.append(row)
    return nodes, rows


def first_witnesses(
    p: Protocol, n: int, d: int, node_cap: int
) -> tuple[tuple[str, Configuration | None], ...] | None:
    """The three verdicts at size ``n`` for threshold ``d``, read off
    :func:`sequential_reach` with plain Python closures.

    Returns ``(status, witness)`` for soundness, completeness and consensus,
    in that order: ``("na", None)`` where a check does not apply,
    ``("holds", None)``, or ``("fails", c)`` with ``c`` the first bad node
    in BFS order.  The bad nodes are:

    * soundness (n < d): a node with a Q1 agent;
    * completeness (n >= d): a node that cannot reach a node with a Q1 agent;
    * consensus on 0 (n < d) or 1 (n >= d): a node in a bottom SCC, i.e.
      one that every node it reaches can reach back, with an agent on the
      wrong side.

    Returns None when more than ``node_cap`` nodes are reachable.
    """
    got = sequential_reach(p, n, node_cap)
    if got is None:
        return None
    nodes, rows = got
    closure = []
    for s in range(len(nodes)):
        seen = {s}
        stack = [s]
        while stack:
            for w in rows[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        closure.append(seen)

    def holding(i: int, states: frozenset[int]) -> bool:
        return any(nodes[i][q] for q in states)

    def bottom(i: int) -> bool:
        return all(i in closure[j] for j in closure[i])

    def first(bad) -> tuple[str, Configuration | None]:
        i = next((i for i in range(len(nodes)) if bad(i)), None)
        if i is None:
            return ("holds", None)
        return ("fails", Configuration.from_pairs(enumerate(nodes[i])))

    na = ("na", None)
    wrong = p.q1 if n < d else p.q0
    return (
        first(lambda i: holding(i, p.q1)) if n < d else na,
        first(lambda i: not any(holding(j, p.q1) for j in closure[i])) if n >= d else na,
        first(lambda i: bottom(i) and holding(i, wrong)),
    )


def sequential_trace(
    p: Protocol, n: int, target: Configuration
) -> list[tuple[tuple[str, str], tuple[str, str], Configuration]] | None:
    """Shortest encounter sequence from I_n to ``target``, or None if it is
    not reachable.

    The BFS of :func:`sequential_reach`, in its encounter order, stopped
    when the target is found.  Each node keeps the node and the ordered
    encounter that first reached it: ``(a, b) -> (c, d)`` for a result of
    ``delta(a, b)`` and ``(b, a) -> (c, d)`` for a result of ``delta(b, a)``.
    Steps are ``(pair, result, after)`` with state names.
    """
    nq = p.num_states
    want = tuple(count(target, q) for q in range(nq))
    root = tuple(n if q == p.q_init else 0 for q in range(nq))
    nodes = [root]
    via: dict[tuple[int, ...], tuple | None] = {root: None}
    for src in nodes:  # grows while it is walked
        if want in via:
            break
        support = [q for q in range(nq) if src[q]]
        for a in support:
            for b in support:
                if b < a or (a == b and src[a] < 2):
                    continue
                rules = [((a, b), r) for r in p.delta_of(a, b)]
                if a != b:
                    rules += [((b, a), r) for r in p.delta_of(b, a)]
                for (x, y), (c, d) in rules:
                    dst = list(src)
                    dst[x] -= 1
                    dst[y] -= 1
                    dst[c] += 1
                    dst[d] += 1
                    if tuple(dst) not in via:
                        via[tuple(dst)] = (src, (x, y), (c, d))
                        nodes.append(tuple(dst))
    if want not in via:
        return None
    steps = []
    at = want
    while via[at] is not None:
        src, (x, y), (c, d) = via[at]
        after = Configuration.from_pairs(enumerate(at))
        steps.append(((p.display(x), p.display(y)), (p.display(c), p.display(d)), after))
        at = src
    return steps[::-1]


def stepwise_run(p: Protocol, n: int, seed: int, max_steps: int) -> SimReport:
    """The simulator loop read straight off ``randrange`` and ``delta_of``.

    Each step draws ``randrange(n)`` and ``randrange(n - 1)``, finds the two
    agents' states by linear scans over the counts (the second scan skips
    the first agent), then draws ``randrange(len(cell))`` only when the cell
    has several results.  Once no enabled encounter can change the multiset
    the run stops, and the report counts the whole budget as taken.
    ``sim.run`` must return the same report for every input.
    """
    rng = Random(seed)
    nq = p.num_states
    counts = [0] * nq
    counts[p.q_init] = n
    in_q1 = [q in p.q1 for q in range(nq)]
    q1_agents = n if in_q1[p.q_init] else 0
    ever_q1 = q1_agents > 0

    def unanimity() -> int | None:
        return 1 if q1_agents == n else 0 if q1_agents == 0 else None

    def absorbing() -> bool:
        for a in range(nq):
            for b in range(nq):
                if counts[a] - (a == b) < 1 or not counts[b]:
                    continue
                if any(r not in ((a, b), (b, a)) for r in p.delta_of(a, b)):
                    return False
        return True

    value = unanimity()
    value_since = 0
    steps_taken = 0
    if n >= 2:
        stuck = absorbing()
        step = 0
        while step < max_steps and not stuck:
            step += 1
            x = rng.randrange(n)
            qa = 0
            acc = counts[0]
            while acc <= x:
                qa += 1
                acc += counts[qa]
            y = rng.randrange(n - 1)
            qb = 0
            acc = counts[0] - (qa == 0)
            while acc <= y:
                qb += 1
                acc += counts[qb] - (qa == qb)
            cell = p.delta_of(qa, qb)
            qc, qd = cell[0] if len(cell) == 1 else cell[rng.randrange(len(cell))]
            if (qc, qd) != (qa, qb):
                counts[qa] -= 1
                counts[qb] -= 1
                counts[qc] += 1
                counts[qd] += 1
                q1_agents += in_q1[qc] + in_q1[qd] - in_q1[qa] - in_q1[qb]
                ever_q1 = ever_q1 or q1_agents > 0
                new_value = unanimity()
                if new_value != value:
                    value = new_value
                    value_since = step
                stuck = absorbing()
        steps_taken = max_steps if stuck else step

    return SimReport(
        protocol_name=p.name,
        n=n,
        seed=seed,
        max_steps=max_steps,
        steps_taken=steps_taken,
        converged=value is not None,
        convergence_step=value_since if value is not None else None,
        converged_value=value,
        ever_emitted_q1=ever_q1,
        final_configuration=Configuration.from_pairs({q: c for q, c in enumerate(counts) if c}),
    )
