"""Independent reference computations for the benchmark's output checks.

Nothing here shares code with the packed engine in ``flockpp.core``: a
configuration is a plain tuple of counts, successors come from
``Protocol.delta_of`` over every enabled ordered state pair, and strongly
connected components come from an iterative Tarjan search.  Everything runs
outside the timed part of a benchmark run.

Each ``check_*`` function returns a list of problems (empty when the output
is correct), so that a run can report every mismatch it finds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

Counts = tuple[int, ...]


@dataclass
class NaiveGraph:
    """Reachable configurations from ``root`` in BFS order, with edges.

    ``depth[i]`` is the BFS depth of node ``i``; ``succ[i]`` lists the
    one-encounter successors of node ``i`` that differ from it.
    """

    nodes: list[Counts]
    index: dict[Counts, int]
    depth: list[int]
    succ: list[list[int]] = field(default_factory=list)


def initial(p, n: int) -> Counts:
    return tuple(n if q == p.q_init else 0 for q in range(p.num_states))


def as_counts(p, config) -> Counts:
    """A ``flockpp`` configuration as a tuple of counts."""
    out = [0] * p.num_states
    for q, c in config.counts:
        out[q] += c
    return tuple(out)


def moves_table(p) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
    """Results of every ordered encounter that changes the multiset."""
    nq = p.num_states
    out = {}
    for a in range(nq):
        for b in range(nq):
            res = tuple(r for r in p.delta_of(a, b) if r not in ((a, b), (b, a)))
            if res:
                out[(a, b)] = res
    return out


def explore(p, root: Counts, stop_at: Counts | None = None) -> NaiveGraph:
    """Naive BFS from ``root``.

    Edges that leave the multiset unchanged are left out: they change no
    reachability and no component.  With ``stop_at`` the search ends as
    soon as that configuration is discovered, and no edges are kept (used
    for BFS depths only).
    """
    moves = moves_table(p)
    nq = p.num_states
    g = NaiveGraph(nodes=[root], index={root: 0}, depth=[0])
    nodes, index, depth, succ = g.nodes, g.index, g.depth, g.succ
    keep_edges = stop_at is None
    if stop_at == root:
        return g
    i = 0
    while i < len(nodes):
        cfg = nodes[i]
        support = [q for q in range(nq) if cfg[q]]
        out = []
        for a in support:
            for b in support:
                res = moves.get((a, b))
                if res is None or (a == b and cfg[a] < 2):
                    continue
                for c, d in res:
                    nxt = list(cfg)
                    nxt[a] -= 1
                    nxt[b] -= 1
                    nxt[c] += 1
                    nxt[d] += 1
                    nxt = tuple(nxt)
                    j = index.get(nxt)
                    if j is None:
                        j = len(nodes)
                        index[nxt] = j
                        nodes.append(nxt)
                        depth.append(depth[i] + 1)
                        if nxt == stop_at:
                            return g
                    out.append(j)
        if keep_edges:
            succ.append(out)
        i += 1
    return g


def sccs(succ: list[list[int]]) -> list[int]:
    """Strongly connected component label of every node (iterative Tarjan)."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    label = [-1] * n
    stack: list[int] = []
    counter = 0
    ncomp = 0
    for start in range(n):
        if index[start] != -1:
            continue
        work = [(start, iter(succ[start]))]
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack[start] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    label[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
    return label


def bottom_nodes(g: NaiveGraph) -> tuple[list[bool], int]:
    """Whether each node lies in a bottom (no edge leaves it) component,
    and how many bottom components there are."""
    label = sccs(g.succ)
    leaves = set()
    for v, out in enumerate(g.succ):
        for w in out:
            if label[w] != label[v]:
                leaves.add(label[v])
                break
    return [label[v] not in leaves for v in range(len(g.nodes))], max(label) + 1 - len(leaves)


def can_reach(g: NaiveGraph, good: list[bool]) -> list[bool]:
    """Nodes from which some ``good`` node is reachable (backward search)."""
    pred: list[list[int]] = [[] for _ in g.nodes]
    for v, out in enumerate(g.succ):
        for w in out:
            pred[w].append(v)
    mark = list(good)
    todo = [v for v, ok in enumerate(good) if ok]
    while todo:
        w = todo.pop()
        for v in pred[w]:
            if not mark[v]:
                mark[v] = True
                todo.append(v)
    return mark


@dataclass(frozen=True)
class CellTruth:
    """Node count and verdict statuses of one (protocol, n) cell."""

    nodes: int
    bottom_sccs: int
    sound: str
    complete: str
    consensus: str
    graph: NaiveGraph


def cell_truth(p, d: int, n: int) -> CellTruth:
    """Recompute one ``verify_range`` cell from scratch."""
    g = explore(p, initial(p, n))
    q1 = p.q1
    has_q1 = [any(cfg[q] for q in q1) for cfg in g.nodes]
    bottom, bottom_count = bottom_nodes(g)
    if n < d:
        sound = "fails" if any(has_q1) else "holds"
        complete = "na"
        wrong = has_q1
    else:
        sound = "na"
        complete = "holds" if all(can_reach(g, has_q1)) else "fails"
        wrong = [any(cfg[q] for q in range(p.num_states) if q not in q1) for cfg in g.nodes]
    consensus = "fails" if any(b and w for b, w in zip(bottom, wrong)) else "holds"
    return CellTruth(len(g.nodes), bottom_count, sound, complete, consensus, g)


def check_report(p, report, truth: CellTruth) -> list[str]:
    """Compare one ``VerificationReport`` with the recomputed cell."""
    where = f"{p.name} n={report.n}"
    problems = []
    if report.error is not None:
        problems.append(f"{where}: capped ({report.error})")
        return problems
    if report.nodes_explored != truth.nodes:
        problems.append(f"{where}: {report.nodes_explored} nodes, reference {truth.nodes}")
    if report.bottom_scc_count != truth.bottom_sccs:
        problems.append(
            f"{where}: {report.bottom_scc_count} bottom SCCs, reference {truth.bottom_sccs}"
        )
    for name, got, want in (
        ("sound", report.sound.status, truth.sound),
        ("complete", report.complete.status, truth.complete),
        ("consensus", report.consensus.status, truth.consensus),
    ):
        if got != want:
            problems.append(f"{where}: {name} is {got}, reference {want}")
    return problems


def check_witness(p, d: int, n: int, kind: str, witness: Counts, g: NaiveGraph | None) -> list[str]:
    """Check the property a failing verdict's witness must have.

    ``g`` is the naive graph of the whole cell when it was built; otherwise
    the forward closure of the witness is explored (it is enough for the
    completeness and consensus properties).
    """
    where = f"{p.name} n={n} {kind} witness"
    q1 = p.q1
    if sum(witness) != n:
        return [f"{where}: holds {sum(witness)} agents, expected {n}"]
    if kind == "sound":
        if not any(witness[q] for q in q1):
            return [f"{where}: holds no accepting agent"]
        return []
    if g is None or witness not in g.index:
        g = explore(p, witness)
        w = 0
    else:
        w = g.index[witness]
    has_q1 = [any(cfg[q] for q in q1) for cfg in g.nodes]
    if kind == "complete":
        if can_reach(g, has_q1)[w]:
            return [f"{where}: an accepting configuration is reachable from it"]
        return []
    if kind == "consensus":
        problems = []
        if not bottom_nodes(g)[0][w]:
            problems.append(f"{where}: not in a bottom component")
        outside = [q for q in range(p.num_states) if (q in q1) == (n < d)]
        if not any(witness[q] for q in outside):
            problems.append(f"{where}: unanimous on the expected side")
        return problems
    raise ValueError(f"unknown check {kind!r}")


def bfs_depth(p, n: int, target: Counts, g: NaiveGraph | None) -> int | None:
    if g is not None:
        j = g.index.get(target)
        return None if j is None else g.depth[j]
    found = explore(p, initial(p, n), stop_at=target)
    j = found.index.get(target)
    return None if j is None else found.depth[j]


def check_trace(p, n: int, steps, target: Counts, depth: int | None) -> list[str]:
    """Replay an ``encounter_trace`` result step by step from I_n."""
    where = f"{p.name} n={n} trace"
    names = {s.name: s.index for s in p.states}
    cur = list(initial(p, n))
    for k, s in enumerate(steps, 1):
        try:
            a, b = (names[x] for x in s.pair)
            c, d = (names[x] for x in s.result)
        except KeyError as exc:
            return [f"{where} step {k}: unknown state {exc.args[0]!r}"]
        if cur[a] < 1 or cur[b] < (2 if a == b else 1):
            return [f"{where} step {k}: encounter {s.pair} is not enabled"]
        if (c, d) not in p.delta_of(a, b):
            return [f"{where} step {k}: {s.result} is not a result of {s.pair}"]
        cur[a] -= 1
        cur[b] -= 1
        cur[c] += 1
        cur[d] += 1
        if tuple(cur) != as_counts(p, s.after):
            return [f"{where} step {k}: recorded configuration differs from the replay"]
    if tuple(cur) != target:
        return [f"{where}: ends elsewhere than at the witness"]
    if depth is None:
        return [f"{where}: the witness is not reachable in the reference graph"]
    if len(steps) != depth:
        return [f"{where}: {len(steps)} steps, but the witness lies at BFS depth {depth}"]
    return []


# -- closed forms for the state-count table and occurrence maps -----------


def table_problems(row) -> list[str]:
    """A ``TableRow`` (``d >= 2``) against closed forms from the bits of d."""
    d = row.d
    top = d.bit_length() - 1
    e = bin(d).count("1")
    power = d & (d - 1) == 0
    want = {"q_angluin": d + 1, "q_a": top + e + 2, "e": e}
    k = (d - 1).bit_length() - 1
    want["z"] = bin(2 ** (k + 1) - d).count("1")
    want["q_b"] = k + want["z"] + 2 if d >= 3 and not power else None
    want["q_pow2"] = top + 2 if power else None
    applicable = [v for v in (want["q_a"], want["q_b"], want["q_pow2"]) if v is not None]
    want["q_best"] = min(applicable)
    problems = [
        f"d={d}: {key} is {getattr(row, key)}, closed form {val}"
        for key, val in want.items()
        if getattr(row, key) != val
    ]
    if 2 ** (row.q_best - 1) < d:
        problems.append(f"d={d}: q_best={row.q_best} breaks 2^(q_best-1) >= d")
    return problems


def occurrence_problems(p, d: int, om) -> list[str]:
    """An ``OccurrenceMap`` of a correct construction for threshold ``d``."""
    where = f"{p.name} occurrence map"
    problems = []
    if om.cap_error is not None or om.unknown:
        problems.append(f"{where}: incomplete ({om.cap_error or sorted(om.unknown)})")
    if om.values.get(p.q_init) != 1:
        problems.append(f"{where}: f(q_init) = {om.values.get(p.q_init)}, expected 1")
    for q in p.q1:
        if om.values.get(q) != d:
            problems.append(f"{where}: f({p.display(q)}) = {om.values.get(q)}, expected {d}")
    for s in p.states:
        if s.name.startswith("NB(") and om.values.get(s.index) != int(s.name[3:-1]):
            problems.append(f"{where}: f({s.name}) = {om.values.get(s.index)}")
    return problems


# -- simulator reports ----------------------------------------------------


def absorbing(p, cfg: Counts) -> bool:
    """No enabled encounter of ``cfg`` changes the multiset."""
    return not any(
        cfg[a] >= 1 + (a == b) and cfg[b] >= 1 for a, b in moves_table(p)
    )


def sim_problems(p, d: int, n: int, max_steps: int, rep) -> list[str]:
    """A ``SimReport`` whose budget should end before absorption."""
    where = f"{p.name} n={n} seed={rep.seed} sim"
    final = as_counts(p, rep.final_configuration)
    problems = []
    if sum(final) != n or rep.n != n:
        problems.append(f"{where}: {sum(final)} agents at the end, expected {n}")
    if rep.steps_taken != max_steps:
        problems.append(f"{where}: {rep.steps_taken} steps taken, budget {max_steps}")
    if absorbing(p, final):
        problems.append(f"{where}: absorbed within the budget")
    if n < d and (rep.ever_emitted_q1 or any(final[q] for q in p.q1)):
        problems.append(f"{where}: an agent accepted below the threshold")
    return problems
