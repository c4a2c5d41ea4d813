"""Independent reference semantics used by the tests.

Everything here is deliberately naive and shares no machinery with the
package: configurations are agent-indexed tuples, transitions pick ordered
pairs of agent positions, reachability is a plain set-based BFS.  The
package's multiset engine must agree with the permutation quotient of this
semantics exactly.  :func:`sequential_reach` is the node-by-node multiset
BFS that fixes the engine's node numbering and edge-row order.
"""

from __future__ import annotations

from flockpp import Protocol


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


def sequential_reach(
    p: Protocol, n: int, node_cap: int
) -> tuple[list[tuple[int, ...]], list[list[int]]] | None:
    """Node-by-node BFS over count vectors, read straight off ``delta_of``.

    Nodes are numbered in discovery order from I_n.  A row lists the
    distinct successors in encounter order: unordered pairs {a, b} with
    a <= b in increasing order, the results of (a, b), then the swapped
    results of (b, a).  The node itself comes last when some enabled
    encounter leaves the multiset unchanged.  Returns None when more than
    ``node_cap`` nodes are reachable.
    """
    nq = p.num_states
    root = tuple(n if q == p.q_init else 0 for q in range(nq))
    nodes = [root]
    index = {root: 0}
    rows: list[list[int]] = []
    for src in nodes:  # grows while it is walked
        row: list[int] = []
        stays = False
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
                        stays = True
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
        if stays:
            row.append(len(rows))
        rows.append(row)
    return nodes, rows
