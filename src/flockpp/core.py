"""Population-protocol semantics: protocols, configurations, reachability.

A population protocol is a finite set of agent states together with a total
transition table ``delta`` mapping every ordered pair of states to a
non-empty set of ordered result pairs.  ``n`` indistinguishable agents all
start in ``q_init``; a scheduler repeatedly picks an ordered pair of distinct
agents and rewrites their states by one entry of ``delta``.  States in the
accepting partition ``q1`` output 1, all others output 0.

Because agents are indistinguishable, a configuration is a multiset
(state -> count).  The reachability graph built by :func:`reach` operates
directly on multisets and is the exact quotient, under agent permutation, of
the agent-indexed transition system — same reachable set, same reachability
relation, exponentially fewer nodes.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse
    from scipy.sparse import csgraph

__all__ = [
    "DEFAULT_NODE_CAP",
    "MAX_POPULATION",
    "CapExceeded",
    "ProtocolError",
    "State",
    "Protocol",
    "Configuration",
    "ReachGraph",
    "make_protocol",
    "initial_configuration",
    "successors",
    "reach",
    "can_reach_predicate",
    "protocol_to_json",
    "protocol_from_json",
]

#: Default limit on the number of reachability-graph nodes explored before
#: giving up.  Overridable per call and, in the CLI, via FLOCKPP_NODE_CAP.
DEFAULT_NODE_CAP = 5_000_000

#: Largest population size.  Reachability graphs store state counts as uint8
#: rows, so no state may hold more than 255 agents.
MAX_POPULATION = 255

Pair = tuple[int, int]


class ProtocolError(ValueError):
    """A protocol definition is malformed (validation or parse failure)."""


class CapExceeded(RuntimeError):
    """Reachability exploration grew beyond the node cap.

    Raised instead of returning a partial graph: every public result is
    either exact or absent.  ``nodes`` is the number of configurations found
    when the search stopped, more than ``node_cap``, and ``levels`` the BFS
    depth it reached.
    """

    def __init__(self, message: str, node_cap: int, nodes: int, levels: int):
        super().__init__(message)
        self.node_cap = node_cap
        self.nodes = nodes
        self.levels = levels


@dataclass(frozen=True, slots=True)
class State:
    """One agent state: a stable index into the protocol plus a display name."""

    index: int
    name: str


@dataclass(frozen=True)
class Protocol:
    """An immutable population protocol.

    ``delta`` is stored sparsely: only ordered pairs whose result differs
    from the identity ``{(a, b)}`` appear, as a tuple of
    ``(a, b, ((c, d), ...))`` entries sorted by ``(a, b)``.  Every pair not
    listed maps to identity, which keeps the table total while letting
    wide protocols (the unary baseline has Theta(d^2) non-trivial entries)
    stay affordable.  Use :meth:`delta_of` for the dense view.
    """

    name: str
    states: tuple[State, ...]
    q_init: int
    q1: frozenset[int]
    delta: tuple[tuple[int, int, tuple[Pair, ...]], ...]
    deterministic: bool = True

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def q0(self) -> frozenset[int]:
        """The rejecting partition: every state not in ``q1``."""
        return frozenset(range(self.num_states)) - self.q1

    @cached_property
    def _by_name(self) -> dict[str, int]:
        return {s.name: s.index for s in self.states}

    @cached_property
    def _delta_map(self) -> dict[Pair, tuple[Pair, ...]]:
        return {(a, b): cell for a, b, cell in self.delta}

    def state_named(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise ProtocolError(f"unknown state name {name!r}") from None

    def display(self, q: int) -> str:
        return self.states[q].name

    def delta_of(self, a: int, b: int) -> tuple[Pair, ...]:
        """Result set for the ordered encounter (a, b); identity if unlisted."""
        return self._delta_map.get((a, b), ((a, b),))

    def validate(self) -> None:
        """Raise :class:`ProtocolError` unless this protocol is well-formed."""
        nq = self.num_states
        if nq == 0:
            raise ProtocolError("protocol has no states")
        for i, s in enumerate(self.states):
            if s.index != i:
                raise ProtocolError(f"state {s.name!r} has index {s.index}, expected {i}")
        if len({s.name for s in self.states}) != nq:
            raise ProtocolError("state names are not unique")
        if not 0 <= self.q_init < nq:
            raise ProtocolError(f"q_init index {self.q_init} out of range")
        if not self.q1 <= frozenset(range(nq)):
            raise ProtocolError("q1 contains an unknown state index")
        seen: set[Pair] = set()
        for a, b, cell in self.delta:
            if not (0 <= a < nq and 0 <= b < nq):
                raise ProtocolError(f"delta entry ({a}, {b}) out of range")
            if (a, b) in seen:
                raise ProtocolError(f"duplicate delta entry for pair ({a}, {b})")
            seen.add((a, b))
            if len(cell) == 0:
                raise ProtocolError(f"delta({a}, {b}) is empty; delta must be total")
            for c, d in cell:
                if not (0 <= c < nq and 0 <= d < nq):
                    raise ProtocolError(f"delta({a}, {b}) result ({c}, {d}) out of range")
            if self.deterministic and len(cell) > 1:
                raise ProtocolError(
                    f"protocol is declared deterministic but delta({a}, {b}) "
                    f"has {len(cell)} results"
                )

    @cached_property
    def _rules(self) -> np.ndarray:
        """The ordered rules that change a multiset, one row ``(a, b, c, d)``
        with ``(c, d)`` in ``delta_of(a, b)`` each: one agent moves a->c and
        one b->d.

        Rows run over the unordered state pairs {a, b} (a <= b) in order, the
        results of (a, b) first, then those of (b, a).  A result that leaves
        the multiset unchanged, an identity or a swap, is left out, and so is
        one whose step an earlier row of its pair makes.
        """
        rows = []
        for a, b in sorted({(min(ab), max(ab)) for ab in self._delta_map}):
            steps = {(a, b), (b, a)}  # as results of (a, b)
            for x, y in ((a, b), (b, a)):  # (a, a) twice: the second adds nothing
                for c, d in self.delta_of(x, y):
                    move = (c, d) if x == a else (d, c)
                    if move not in steps:
                        steps.add(move)
                        rows.append((x, y, c, d))
        return np.array(rows, dtype=np.intp).reshape(-1, 4)

    @cached_property
    def _rule_pairs(self) -> tuple[Pair, ...]:
        """The unordered state pairs ``(a, b)``, ``a <= b``, of the rows of
        :attr:`_rules` in increasing order: a rule is enabled in either
        order of its pair."""
        return tuple(sorted({(min(ab), max(ab)) for ab in self._rules[:, :2].tolist()}))


@dataclass(frozen=True, slots=True)
class Configuration:
    """A multiset of agent states: sorted ``(state, count)`` pairs, no zeros."""

    counts: tuple[Pair, ...]
    n: int

    @staticmethod
    def from_pairs(pairs: Mapping[int, int] | Sequence[Pair]) -> "Configuration":
        items = pairs.items() if isinstance(pairs, Mapping) else pairs
        agg: dict[int, int] = {}
        for q, c in items:
            if c < 0:
                raise ValueError(f"negative count for state {q}")
            if c:
                agg[q] = agg.get(q, 0) + c
        counts = tuple(sorted(agg.items()))
        return Configuration(counts=counts, n=sum(c for _, c in counts))

    def pretty(self, p: Protocol) -> str:
        return " + ".join(f"{c}*{p.display(q)}" for q, c in self.counts)


def make_protocol(
    name: str,
    state_names: Sequence[str],
    q_init: str,
    q1: Sequence[str],
    rules: Mapping[tuple[str, str], Sequence[tuple[str, str]]],
    deterministic: bool = True,
) -> Protocol:
    """Build a validated :class:`Protocol` from state names.

    ``rules`` lists only the encounters that do something; every omitted
    ordered pair is the identity.  Pure-identity rules are normalized away so
    that structurally equal protocols compare equal.
    """
    states = tuple(State(i, n) for i, n in enumerate(state_names))
    idx = {s.name: s.index for s in states}
    if q_init not in idx:
        raise ProtocolError(f"q_init {q_init!r} is not a state")
    missing = [n for n in q1 if n not in idx]
    if missing:
        raise ProtocolError(f"q1 references unknown state {missing[0]!r}")
    try:
        entries = []
        for (an, bn), cell in rules.items():
            a, b = idx[an], idx[bn]
            resolved: list[Pair] = []
            for cn, dn in cell:
                r = (idx[cn], idx[dn])
                if r not in resolved:
                    resolved.append(r)
            if resolved == [(a, b)]:
                continue
            entries.append((a, b, tuple(resolved)))
    except KeyError as exc:
        raise ProtocolError(f"rule references unknown state {exc.args[0]!r}") from None
    p = Protocol(
        name=name,
        states=states,
        q_init=idx[q_init],
        q1=frozenset(idx[n] for n in q1),
        delta=tuple(sorted(entries)),
        deterministic=deterministic,
    )
    p.validate()
    return p


def initial_configuration(p: Protocol, n: int) -> Configuration:
    """The configuration I_n with all ``n`` agents in ``q_init``."""
    n = _check_population(n)
    return Configuration(counts=((p.q_init, n),), n=n)


def _check_population(n: int) -> int:
    """``n`` as an ``int``; raises ``TypeError`` unless it is an integer and
    ``ValueError`` unless ``1 <= n <= MAX_POPULATION``."""
    n = operator.index(n)
    if not 1 <= n <= MAX_POPULATION:
        raise ValueError(f"population size {n} is outside [1, {MAX_POPULATION}]")
    return n


def successors(p: Protocol, c: Configuration) -> set[Configuration]:
    """All one-encounter successors of ``c`` (including ``c`` itself when an
    enabled encounter admits the identity result).

    Every ordered pair of distinct agents is a possible encounter: states
    ``(q_a, q_b)`` with ``q_a != q_b`` need one agent of each, ``q_a == q_b``
    needs two agents.  Each result pair of ``delta(q_a, q_b)`` contributes
    the configuration with one agent moved ``q_a -> q_c`` and one
    ``q_b -> q_d``.  For ``n = 1`` there are no encounters and the result is
    empty, as it is for the empty configuration.

    This is the scalar reference for :func:`reach`, read straight off
    ``delta``: every graph row is its result minus ``c``.  An identity or
    swap result gives ``c`` itself, and so does an enabled ordered pair
    that ``delta`` does not list: that is when ``c`` has more enabled
    ordered pairs than enabled listed ones.
    """
    if c.n:
        _check_population(c.n)
    counts = [0] * p.num_states
    for q, k in c.counts:
        counts[q] = k
    result: set[Configuration] = set()
    enabled = 0
    for a, b, cell in p.delta:
        if counts[a] < 1 + (a == b) or not counts[b]:
            continue
        enabled += 1
        for x, y in cell:
            nxt = counts.copy()
            nxt[a] -= 1
            nxt[b] -= 1
            nxt[x] += 1
            nxt[y] += 1
            result.add(Configuration(tuple((q, k) for q, k in enumerate(nxt) if k), c.n))
    support = sum(k > 0 for k in counts)
    doubled = sum(k > 1 for k in counts)
    if support * (support - 1) + doubled > enabled:
        result.add(c)
    return result


#: Edges scanned at once when :attr:`ReachGraph.bottom` is first read; a
#: longer row is scanned alone.
_EDGE_CHUNK = 8_000_000


def _bind_scipy() -> None:
    """Bind scipy's ``sparse`` and ``csgraph`` as globals of this module.

    Only a graph's SCCs and closure read them, so ``import flockpp`` and the
    work that builds no graph never import scipy.  A name already bound is
    kept: code outside may have put its own object in its place.
    """
    g = globals()
    if "sparse" not in g or "csgraph" not in g:
        from scipy import sparse
        from scipy.sparse import csgraph

        g.setdefault("sparse", sparse)
        g.setdefault("csgraph", csgraph)


def __getattr__(name: str):
    # ``core.sparse`` and ``core.csgraph`` resolve from outside (PEP 562)
    # before the first graph has bound them.
    if name in ("sparse", "csgraph"):
        _bind_scipy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ReachGraph:
    """The multiset reachability graph of a protocol at population size n.

    Nodes are configurations indexed in BFS discovery order from the root
    ``I_n`` (index 0); ``counts_matrix`` holds one uint8 row of state counts
    per node.  Edges are stored in CSR form (``indptr``/``targets``, int32
    targets): row ``i`` is ``successors(p, c_i) - {c_i}`` in the order of
    their first enabled rule in ``Protocol._rules``.  ``tree`` is the BFS
    tree in two int32 rows: each node's first parent and the row of
    ``Protocol._rules`` that first reached it (0 and 0 at the root).  The
    strongly connected component of each node (``scc``) and which
    components no edge leaves (``bottom``) are computed on first access.
    The components carry the fairness analysis, because a fair run settles
    into exactly one bottom component and visits all of it; steps that
    change nothing bear on neither.
    """

    def __init__(
        self,
        protocol: Protocol,
        n: int,
        counts_matrix: np.ndarray,
        indptr: np.ndarray,
        targets: np.ndarray,
        tree: np.ndarray,
    ):
        self.protocol = protocol
        self.n = n
        self.counts_matrix = counts_matrix
        self.indptr = indptr
        self.targets = targets
        self.tree = tree

    def __len__(self) -> int:
        return self.counts_matrix.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.counts_matrix.shape[0]

    @property
    def num_edges(self) -> int:
        return int(self.targets.shape[0])

    def config(self, i: int) -> Configuration:
        return Configuration.from_pairs(enumerate(self.counts_matrix[i].tolist()))

    @cached_property
    def _csr(self) -> sparse.csr_matrix:
        """The edges as a bool matrix, the operand of the closure's
        products: with a bool frontier scipy casts nothing per product."""
        _bind_scipy()
        n = len(self)
        data = np.ones(self.targets.shape[0], dtype=bool)
        return sparse.csr_matrix((data, self.targets, self.indptr), shape=(n, n))

    @cached_property
    def scc(self) -> np.ndarray:
        """Strongly connected component label (int32) of every node.

        scipy reads only the structure but casts the data to float64, so the
        data is a zero-stride float64 view that the cast does not copy.
        """
        _bind_scipy()
        n = len(self)
        ones = np.broadcast_to(np.float64(1.0), self.targets.shape)
        edges = sparse.csr_matrix((ones, self.targets, self.indptr), shape=(n, n))
        _, labels = csgraph.connected_components(
            edges, directed=True, connection="strong", return_labels=True
        )
        return labels.astype(np.int32, copy=False)

    @cached_property
    def bottom(self) -> np.ndarray:
        """Boolean per component label: true when no edge leaves it, so
        ``bottom[scc]`` masks the nodes of bottom components."""
        # An edge leaves its row's component iff its target's label differs,
        # so a row has one iff the least or the greatest of its target labels
        # differs from its own.  Rows are scanned in chunks of at most
        # _EDGE_CHUNK edges, which bounds the transients on large graphs.
        scc, indptr = self.scc, self.indptr
        bottom = np.ones(int(scc.max()) + 1, dtype=bool)
        r0 = 0
        while r0 < len(self):
            lo = indptr[r0]
            r1 = max(int(indptr.searchsorted(lo + _EDGE_CHUNK, side="right")) - 1, r0 + 1)
            rows = r0 + np.flatnonzero(np.diff(indptr[r0 : r1 + 1]))
            if rows.size:  # reduceat needs a non-empty operand
                at = indptr[rows] - lo
                labels = scc[self.targets[lo : indptr[r1]]]
                own = scc[rows]
                leaves = np.minimum.reduceat(labels, at) != own
                leaves |= np.maximum.reduceat(labels, at) != own
                bottom[own[leaves]] = False
            r0 = r1
        return bottom


# -- array-native exploration ------------------------------------------------
#
# A configuration's key holds its state counts as digits in radix n_max + 1,
# as many to a uint64 word as ``(n_max + 1)**per <= 2**64`` allows.  In a
# search from one root every configuration holds the root's agents, so the
# last count is implied and is not a digit.  A rule adds one delta per
# word.  Every digit stays in [0, n_max] before and after, so the wrapping
# uint64 add is exact and no carry or borrow crosses a digit or a word.  The
# words of a key are compared as one value, a uint64 or a byte string, so
# equal keys are equal configurations.


#: Frontier rows expanded at once.  A row makes one candidate per enabled
#: rule whose step no earlier enabled one makes.  On ``a(28)`` at
#: n = 30 ``tracemalloc`` reads about 65 bytes of transients per candidate
#: up to the visited-set merge, and about 90 at the block's peak.  Fewer
#: rows lower the peak memory of wide levels, but every block merges its new
#: nodes into the whole visited set.
_BLOCK_ROWS = 1 << 15


class _LevelSearch:
    """Level-synchronous breadth-first search from the roots ``I_s``.

    The frontier is a level of configurations as keys (``key``) and uint8
    count rows (``cnt``).  :meth:`expand` replaces it by the next level: the
    configurations one encounter away that no earlier level or earlier
    candidate of this level holds, numbered in the order they first appear
    among the candidates.  Candidates are ordered by frontier row, then
    rule, so the numbering is the discovery order of a node-by-node BFS
    that tries each node's rules of ``Protocol._rules`` in order.  Each new
    node is labelled with the rule that first reached it, a row index of
    ``Protocol._rules``.  A rule is enabled, and makes its step, in the
    order it names as in the other one.  Rules that make the same step
    reach the same target, so a row drops each one whose step an earlier
    enabled rule makes, before any sort; every remaining candidate of a row has its own target.  The
    candidates are grouped by sorting their keys, with a sort that need not
    be stable, and a group's first appearance is its least candidate.
    Visited nodes are kept as sorted keys, with node ids in a search that
    lists ``edges``.  A key is one uint64 when its digits fit one word, and
    the 8W bytes of its words when they need W; either way it is exact, so
    the search sorts and looks it up directly.
    """

    def __init__(self, p: Protocol, n_max: int, sizes: Sequence[int], edges: bool):
        nq = p.num_states
        radix = int(n_max) + 1  # a numpy integer would wrap in the test below
        digits = nq - (len(sizes) == 1)
        per = 1
        while radix ** (per + 1) <= 2**64:
            per += 1
        width = max(-(-digits // per), 1)
        weight = np.uint64(radix) ** np.arange(per, dtype=np.uint64)

        def words(counts: np.ndarray) -> np.ndarray:
            # Negative counts wrap modulo 2**64, which the adds undo.
            padded = np.zeros((len(counts), width * per), dtype=np.uint64)
            padded[:, :digits] = counts[:, :digits].astype(np.uint64)
            return (padded.reshape(-1, width, per) * weight).sum(axis=2, dtype=np.uint64)

        rules = p._rules
        self.app_a, self.app_b = rules[:, :2].T.copy()
        # A diagonal rule needs two agents of its state, any other one of each.
        self.app_min = (self.app_a == self.app_b).astype(np.uint8)
        rows = np.arange(len(rules))
        step = np.zeros((len(rows), nq), dtype=np.int64)
        for col, sign in enumerate((-1, -1, 1, 1)):
            np.add.at(step, (rows, rules[:, col]), sign)
        # Negative steps wrap modulo 2**8, which the adds undo.
        self.app_counts = step.astype(np.uint8)
        self.app_words = words(step)
        # Rules that make the same step reach the same target.  Each
        # one after the first of its step is in ``later``, and column i of
        # ``earlier`` lists the earlier ones of ``later[i]``, padded to the
        # longest list by repeating its first.
        same: dict[bytes, list[int]] = {}
        later, earlier = [], []
        for rule, row in enumerate(self.app_counts):
            prior = same.setdefault(row.tobytes(), [])
            if prior:
                later.append(rule)
                earlier.append(prior.copy())
            prior.append(rule)
        deep = max(map(len, earlier), default=0)
        self.later = np.array(later, dtype=np.intp)
        self.earlier = np.array(
            [e + e[:1] * (deep - len(e)) for e in earlier], dtype=np.intp
        ).reshape(len(later), deep).T.copy()

        self.cnt = np.zeros((len(sizes), nq), dtype=np.uint8)
        self.cnt[:, p.q_init] = sizes
        # Byte strings of one length are equal iff their bytes are, and
        # numpy sorts them faster than raw void.
        dtype = np.dtype(np.uint64) if width == 1 else np.dtype(f"S{8 * width}")
        # numpy's default sort of uint64 is a SIMD quicksort.  Byte strings
        # have none, and their stable sort, which uses the runs in which
        # candidates arrive, beats their default one.
        self.sort_kind = "quicksort" if width == 1 else "stable"
        self.key = words(self.cnt).view(dtype).ravel()
        self.num_nodes = len(sizes)
        order = np.argsort(self.key, kind="stable")
        self._keys = self.key[order]
        # Only the edges' targets read node ids.
        self.edges = edges
        self._ids = order.astype(np.int32) if edges else None

    def expand(self) -> tuple[np.ndarray, ...]:
        """Replace the frontier by the next level.

        The frontier is expanded in blocks of at most :data:`_BLOCK_ROWS`
        rows, in order, which bounds the per-candidate transients on wide
        levels.  Each block sees the nodes that the blocks before it found,
        so the numbering does not depend on the block size.

        Returns ``(new_from, new_app)``: the frontier row each new node was
        first reached from, and the row of ``Protocol._rules`` that reached
        it; a single-root search keeps the two as its BFS tree.  Raises
        ``RuntimeError`` if a new node's counts do not sum to its parent's,
        which means a rule fired without its agents.  A search with
        ``edges`` returns ``(new_from, new_app, degree, targets)`` instead:
        also the number of edges of each frontier row and the target node
        ids of all edges, grouped by row in rule order.  No edge is a
        self-loop: every rule changes the multiset.
        """
        if len(self.cnt) <= _BLOCK_ROWS:
            cols = self._expand_block(0)
        else:
            parts = [self._expand_block(lo) for lo in range(0, len(self.cnt), _BLOCK_ROWS)]
            cols = [np.concatenate(col) for col in zip(*parts)]
        self.key, self.cnt, *cols = cols
        return tuple(cols)

    def _expand_block(self, lo: int) -> tuple[np.ndarray, ...]:
        """Expand frontier rows ``lo .. lo + _BLOCK_ROWS`` and register the
        new nodes; returns their keys and counts, then :meth:`expand`'s
        columns for these rows."""
        key = self.key[lo : lo + _BLOCK_ROWS]
        cnt = self.cnt[lo : lo + _BLOCK_ROWS]
        enabled = (cnt.take(self.app_a, axis=1) > self.app_min) & (cnt.take(self.app_b, axis=1) > 0)
        # A row makes each target once, by its first enabled rule: a
        # later rule stays enabled only where no earlier one of its step
        # is (``>`` on booleans).  ``take`` costs less than fancy indexing
        # on the small blocks of narrow levels.
        if len(self.later):
            shadowed = enabled.take(self.earlier[0], axis=1)
            for col in self.earlier[1:]:
                shadowed |= enabled.take(col, axis=1)
            enabled[:, self.later] = enabled.take(self.later, axis=1) > shadowed
        parent, app = enabled.nonzero()
        # ``take`` along axis 0 gathers rows faster than fancy indexing.
        words = key.view(np.uint64).reshape(len(key), -1)
        cand = words.take(parent, axis=0) + self.app_words.take(app, axis=0)
        cand = cand.view(key.dtype).ravel()

        # One group per distinct key, in sorted order.  The sort need not
        # be stable: a group's first appearance is its least position.
        order = cand.argsort(kind=self.sort_kind)
        skey = cand[order]
        fresh = np.empty(len(cand), dtype=bool)
        fresh[:1] = True
        fresh[1:] = skey[1:] != skey[:-1]
        starts = fresh.nonzero()[0]
        first = np.minimum.reduceat(order, starts)
        gkey = skey[starts]
        found, at = self._lookup(gkey)
        new = (~found).nonzero()[0]
        by_appearance = first[new].argsort()
        ids = np.empty(len(new), dtype=np.int32)
        ids[by_appearance] = np.arange(self.num_nodes, self.num_nodes + len(new))
        if self.edges:
            gid = self._ids.take(at, mode="clip")
            gid[new] = ids
        self._merge(at[new], gkey[new], ids)
        self.num_nodes += len(new)
        new_from = first[new[by_appearance]]
        new_key = cand[new_from]
        src, rule = parent[new_from], app[new_from]
        old_cnt = cnt.take(src, axis=0)
        new_cnt = old_cnt + self.app_counts.take(rule, axis=0)
        # A count wrapped below zero reads 254 or 255; only then can the new
        # nodes' counts fail to sum to their parents'.
        if new_cnt.max(initial=0) >= 254 and (
            new_cnt.sum(dtype=np.int64) != old_cnt.sum(dtype=np.int64)
        ):
            raise RuntimeError("a uint8 state count wrapped: a rule fired without its agents")
        labels = (lo + src, rule)
        if not self.edges:
            return new_key, new_cnt, *labels

        target = np.empty(len(cand), dtype=np.int32)
        target[order] = gid[fresh.cumsum() - 1]
        degree = np.bincount(parent, minlength=len(cnt)).astype(np.int32)
        return new_key, new_cnt, *labels, degree, target

    def prune(self, keep: np.ndarray) -> None:
        """Drop the frontier rows where ``keep`` is false from further search."""
        self.key = self.key[keep]
        self.cnt = self.cnt[keep]

    def _lookup(self, gkey: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whether each key is visited, and its position in the sorted
        visited keys: its own where it is, its insertion point where not."""
        at = self._keys.searchsorted(gkey)
        return self._keys.take(at, mode="clip") == gkey, at

    def _merge(self, at: np.ndarray, keys: np.ndarray, ids: np.ndarray) -> None:
        """Insert sorted ``keys`` before positions ``at``, with their node
        ids ``ids`` if the search keeps ids."""
        dest = at + np.arange(len(at))
        old = np.empty(len(self._keys) + len(at), dtype=bool)
        old.fill(True)
        old[dest] = False

        def insert(into: np.ndarray, values: np.ndarray) -> np.ndarray:
            merged = np.empty(len(old), dtype=into.dtype)
            merged[dest] = values
            merged[old] = into
            return merged

        self._keys = insert(self._keys, keys)
        if self.edges:
            self._ids = insert(self._ids, ids)


def _cap_message(p: Protocol, n: int, node_cap: int) -> str:
    return f"reachability closure of {p.name!r} at n={n} exceeds node cap {node_cap}"


def _levels(p: Protocol, n: int, node_cap: int, edges: bool) -> Iterator[tuple]:
    """Checks ``n`` and ``node_cap``, then yields ``(search, tree, cols)`` at the root of the
    search from ``I_n`` and after each level, raising :class:`CapExceeded` at the first past the
    cap: the BFS tree so far as one int32 ``(parents, rules)`` pair per level, which
    :func:`_tree` joins, and the expand's other columns."""
    n = _check_population(n)
    if node_cap < 1:
        raise ValueError("node_cap must be >= 1")
    search = _LevelSearch(p, n, [n], edges)
    tree = [(np.zeros(1, dtype=np.int32),) * 2]
    yield search, tree, []
    while len(search.cnt):
        base = search.num_nodes - len(search.cnt)
        new_from, new_app, *cols = search.expand()
        tree.append(((base + new_from).astype(np.int32), new_app.astype(np.int32)))
        if search.num_nodes > node_cap:
            raise CapExceeded(
                _cap_message(p, n, node_cap), node_cap, search.num_nodes, len(tree) - 1
            )
        yield search, tree, cols


def _tree(levels: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The ``ReachGraph.tree`` of :func:`_levels`' per-level pairs."""
    tree = np.empty((2, sum(len(parents) for parents, _ in levels)), dtype=np.int32)
    for row, cols in zip(tree, zip(*levels)):
        np.concatenate(cols, out=row)
    return tree


def reach(p: Protocol, n: int, node_cap: int = DEFAULT_NODE_CAP) -> ReachGraph:
    """Breadth-first closure of :func:`successors` from ``I_n``.

    The search expands a whole BFS level at a time in numpy and numbers the
    nodes exactly as a node-by-node BFS would; each edge row lists the
    successors in the order of their first enabled rule and holds exactly
    the configurations :func:`successors` returns other than the node
    itself.  Returns the complete reachability graph with its BFS tree; its
    SCCs and bottom SCCs are computed when first read.  Raises :class:`CapExceeded` iff more than ``node_cap`` nodes are
    reachable — never a partial graph.
    """
    counts, degrees = [], []
    targets = np.empty(0, dtype=np.int32)
    for search, tree, cols in _levels(p, n, node_cap, edges=True):
        counts.append(search.cnt)
        if cols:
            degree, level = cols
            degrees.append(degree)
            # Append in place: resize reallocates, and the allocator grows a
            # large block by remapping its pages, so the edges are never
            # held twice.  Nothing else refers to the buffer, so the
            # reference check is skipped.
            end = len(targets)
            targets.resize(end + len(level), refcheck=False)
            targets[end:] = level

    del search  # the assembly below needs none of the search state
    counts_matrix = np.concatenate(counts)
    indptr = np.zeros(len(counts_matrix) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(degrees), out=indptr[1:])
    del counts, degrees
    return ReachGraph(p, n, counts_matrix, indptr, targets, _tree(tree))


def can_reach_predicate(g: ReachGraph, good: np.ndarray) -> np.ndarray:
    """Boolean node mask of the nodes from which some ``good`` node is
    reachable (``EF good``), given ``good`` as a boolean node mask.

    Every good node reaches itself.  Reachability is resolved by reverse
    BFS from all good nodes, run as layered sparse matrix-vector products
    so large graphs stay in numpy.  ``good`` is not modified.
    """
    mask = good.astype(bool, copy=True)
    if mask.shape != (len(g),):
        raise ValueError(f"good mask has shape {mask.shape}, expected ({len(g)},)")
    if g.num_edges:
        a = g._csr
        frontier = mask.copy()
        while frontier.any():
            frontier = a.dot(frontier) & ~mask
            mask |= frontier
    return mask


# -- JSON interchange ------------------------------------------------------


def protocol_to_json(p: Protocol) -> str:
    """Serialize a protocol to the JSON interchange format.

    Identity cells are omitted from ``delta``; parsing restores them, so
    ``protocol_from_json(protocol_to_json(p)) == p``.
    """
    name = {s.index: s.name for s in p.states}
    obj = {
        "name": p.name,
        "deterministic": p.deterministic,
        "states": [s.name for s in p.states],
        "q_init": name[p.q_init],
        "q1": [name[q] for q in sorted(p.q1)],
        "delta": [
            [name[a], name[b], [[name[c], name[d]] for c, d in cell]]
            for a, b, cell in p.delta
        ],
    }
    return json.dumps(obj, indent=2)


def protocol_from_json(text: str) -> Protocol:
    """Parse the JSON interchange format; raises :class:`ProtocolError`.

    Ordered state pairs missing from ``delta`` are interpreted as identity
    transitions (the documented default).
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("top-level JSON value must be an object")
    try:
        name = obj["name"]
        deterministic = obj["deterministic"]
        state_names = obj["states"]
        q_init = obj["q_init"]
        q1 = obj["q1"]
        delta = obj["delta"]
    except KeyError as exc:
        raise ProtocolError(f"missing required field {exc.args[0]!r}") from None
    if not isinstance(name, str):
        raise ProtocolError("'name' must be a string")
    if not isinstance(state_names, list) or not all(
        isinstance(s, str) for s in state_names
    ):
        raise ProtocolError("'states' must be a list of strings")
    if len(set(state_names)) != len(state_names):
        raise ProtocolError("state names are not unique")
    if not isinstance(deterministic, bool):
        raise ProtocolError("'deterministic' must be a boolean")
    if not isinstance(q_init, str):
        raise ProtocolError("'q_init' must be a state name")
    if not isinstance(q1, list) or not all(isinstance(s, str) for s in q1):
        raise ProtocolError("'q1' must be a list of state names")
    rules: dict[tuple[str, str], list[tuple[str, str]]] = {}
    if not isinstance(delta, list):
        raise ProtocolError("'delta' must be a list of [a, b, results] entries")
    for entry in delta:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ProtocolError(f"malformed delta entry: {entry!r}")
        a, b, cell = entry
        if not (isinstance(a, str) and isinstance(b, str) and isinstance(cell, list)):
            raise ProtocolError(f"malformed delta entry: {entry!r}")
        if (a, b) in rules:
            raise ProtocolError(f"duplicate delta entry for pair ({a!r}, {b!r})")
        if not cell:
            raise ProtocolError(f"delta({a!r}, {b!r}) is empty; delta must be total")
        out: list[tuple[str, str]] = []
        for r in cell:
            if not (isinstance(r, list) and len(r) == 2 and all(isinstance(x, str) for x in r)):
                raise ProtocolError(f"malformed result pair in delta({a!r}, {b!r}): {r!r}")
            out.append((r[0], r[1]))
        rules[(a, b)] = out
    return make_protocol(
        name=name,
        state_names=state_names,
        q_init=q_init,
        q1=q1,
        rules=rules,
        deterministic=deterministic,
    )
