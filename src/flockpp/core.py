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
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np
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
    either exact or absent.
    """

    def __init__(self, message: str, node_cap: int):
        super().__init__(message)
        self.node_cap = node_cap


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

    ``params`` carries optional construction metadata (threshold ``d`` and
    derived quantities); it is excluded from equality, hashing, and
    serialization.
    """

    name: str
    states: tuple[State, ...]
    q_init: int
    q1: frozenset[int]
    delta: tuple[tuple[int, int, tuple[Pair, ...]], ...]
    deterministic: bool = True
    params: Any = field(default=None, compare=False, repr=False)

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
    def _cells(self) -> tuple[tuple[int, int, bool, tuple[Pair, ...]], ...]:
        """Unordered-encounter worklist of the successor computations.

        One entry per unordered state pair {a, b} (a <= b) whose encounter can
        do something: ``(a, b, has_identity, ((c, d), ...))``, where applying
        ``(c, d)`` moves one agent a->c and one b->d.  An off-diagonal
        encounter happens in either order, so both ``delta_of(a, b)`` and
        ``delta_of(b, a)`` are read: the (a, b) results first, then the
        (b, a) results swapped, since moving one agent b->c and one a->d is
        the same multiset step as applying (d, c) to (a, b).  An unlisted
        order reads as the identity, which sets ``has_identity``.
        """
        out = []
        for a, b in sorted({(min(ab), max(ab)) for ab in self._delta_map}):
            merged = self.delta_of(a, b)
            if a != b:
                merged += tuple((d, c) for c, d in self.delta_of(b, a))
            has_id = False
            results: list[Pair] = []
            for r in merged:
                if r == (a, b) or r == (b, a):
                    # Includes swap results (a,b)->(b,a): a multiset identity.
                    has_id = True
                elif r not in results:
                    results.append(r)
            # A pair whose merged results collapse to pure identity behaves
            # like an unlisted cell and is dropped from the worklist.
            if results:
                out.append((a, b, has_id, tuple(results)))
        return tuple(out)


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

    def count(self, q: int) -> int:
        for state, c in self.counts:
            if state == q:
                return c
        return 0

    def support(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.counts)

    def contains_any(self, qs: frozenset[int]) -> bool:
        return any(q in qs for q, _ in self.counts)

    def unanimous_in(self, qs: frozenset[int]) -> bool:
        """True when every agent is in a state from ``qs``."""
        return all(q in qs for q, _ in self.counts)

    def pretty(self, p: Protocol) -> str:
        return " + ".join(f"{c}*{p.display(q)}" for q, c in self.counts)


def make_protocol(
    name: str,
    state_names: Sequence[str],
    q_init: str,
    q1: Sequence[str],
    rules: Mapping[tuple[str, str], Sequence[tuple[str, str]]],
    deterministic: bool = True,
    params: Any = None,
) -> Protocol:
    """Build a validated :class:`Protocol` from state names.

    ``rules`` lists only the encounters that do something; every omitted
    ordered pair is the identity.  Pure-identity rules are normalized away so
    that structurally equal protocols compare equal.
    """
    states = tuple(State(i, n) for i, n in enumerate(state_names))
    idx = {s.name: s.index for s in states}
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
        q_init=idx[q_init] if q_init in idx else -1,
        q1=frozenset(idx[n] for n in q1 if n in idx),
        delta=tuple(sorted(entries)),
        deterministic=deterministic,
        params=params,
    )
    if q_init not in idx:
        raise ProtocolError(f"q_init {q_init!r} is not a state")
    missing = [n for n in q1 if n not in idx]
    if missing:
        raise ProtocolError(f"q1 references unknown state {missing[0]!r}")
    p.validate()
    return p


def initial_configuration(p: Protocol, n: int) -> Configuration:
    """The configuration I_n with all ``n`` agents in ``q_init``."""
    _check_population(n)
    return Configuration(counts=((p.q_init, n),), n=n)


def _check_population(n: int) -> None:
    """Raise ``ValueError`` unless ``1 <= n <= MAX_POPULATION``."""
    if not 1 <= n <= MAX_POPULATION:
        raise ValueError(f"population size {n} is outside [1, {MAX_POPULATION}]")


def successors(p: Protocol, c: Configuration) -> set[Configuration]:
    """All one-encounter successors of ``c`` (including ``c`` itself when an
    enabled encounter admits the identity result).

    Every ordered pair of distinct agents is a possible encounter: states
    ``(q_a, q_b)`` with ``q_a != q_b`` need one agent of each, ``q_a == q_b``
    needs two agents.  Each result pair of ``delta(q_a, q_b)`` contributes
    the configuration with one agent moved ``q_a -> q_c`` and one
    ``q_b -> q_d``.  For ``n = 1`` there are no encounters and the result is
    empty, as it is for the empty configuration.

    This is the scalar reference for :func:`reach`: the tests check every
    graph row against it.  ``c`` has a self-loop iff some enabled encounter
    admits the identity result, i.e. iff the number of enabled unordered
    pairs exceeds the number of enabled pairs that can never stay put.
    """
    if c.n:
        _check_population(c.n)
    counts = [0] * p.num_states
    for q, k in c.counts:
        counts[q] = k
    result: set[Configuration] = set()
    enabled_no_id = 0
    for a, b, has_id, results in p._cells:
        if counts[a] < 1 + (a == b) or not counts[b]:
            continue
        if not has_id:
            enabled_no_id += 1
        for x, y in results:
            nxt = counts.copy()
            nxt[a] -= 1
            nxt[b] -= 1
            nxt[x] += 1
            nxt[y] += 1
            result.add(Configuration(tuple((q, k) for q, k in enumerate(nxt) if k), c.n))
    support = sum(k > 0 for k in counts)
    doubled = sum(k > 1 for k in counts)
    if support * (support - 1) // 2 + doubled > enabled_no_id:
        result.add(c)
    return result


class ReachGraph:
    """The multiset reachability graph of a protocol at population size n.

    Nodes are configurations indexed in BFS discovery order from the root
    ``I_n`` (index 0); ``counts_matrix`` holds one uint8 row of state counts
    per node.  Edges are one-encounter steps, deduplicated per source,
    stored in CSR form (``indptr``/``targets``, int32 targets); a row lists
    the successors in the order of their first enabled cell result in
    ``Protocol._cells``, then the node itself when it has a self-loop.  The
    states that occur in some node (``occurring``), the strongly connected
    components (``scc``, ``num_sccs``) and the set of bottom (no outgoing
    edge) components (``bottom_sccs``) are computed on first access.  The
    components carry the fairness analysis, because a fair run settles into
    exactly one bottom component and visits all of it.
    """

    def __init__(
        self,
        protocol: Protocol,
        n: int,
        counts_matrix: np.ndarray,
        indptr: np.ndarray,
        targets: np.ndarray,
    ):
        self.protocol = protocol
        self.n = n
        self.counts_matrix = counts_matrix
        self.indptr = indptr
        self.targets = targets

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

    def configurations(self) -> Iterator[Configuration]:
        for row in self.counts_matrix.tolist():
            yield Configuration.from_pairs(enumerate(row))

    def index_of(self, c: Configuration) -> int | None:
        """Row of configuration ``c``, or None if it is not a node."""
        nq = self.protocol.num_states
        if c.n != self.n or any(q >= nq for q, _ in c.counts):
            return None
        row = np.zeros(nq, dtype=np.uint8)
        for q, k in c.counts:
            row[q] = k
        hit = np.flatnonzero((self.counts_matrix == row).all(axis=1))
        return int(hit[0]) if hit.size else None

    def successors_of(self, i: int) -> np.ndarray:
        return self.targets[self.indptr[i] : self.indptr[i + 1]]

    @cached_property
    def occurring(self) -> frozenset[int]:
        """States that appear with positive count in some node."""
        return frozenset(np.flatnonzero(self.counts_matrix.any(axis=0)).tolist())

    @cached_property
    def _csr(self) -> sparse.csr_matrix:
        n = len(self)
        data = np.ones(self.targets.shape[0], dtype=np.int8)
        return sparse.csr_matrix((data, self.targets, self.indptr), shape=(n, n))

    @cached_property
    def scc(self) -> np.ndarray:
        """Strongly connected component label (int32) of every node."""
        _, labels = csgraph.connected_components(
            self._csr, directed=True, connection="strong", return_labels=True
        )
        return labels.astype(np.int32, copy=False)

    @cached_property
    def num_sccs(self) -> int:
        return int(self.scc.max()) + 1

    @cached_property
    def _bottom_mask(self) -> np.ndarray:
        """Boolean per component label: true when no edge leaves it."""
        # Scan edges in chunks to bound transient memory on large graphs.
        bottom = np.ones(self.num_sccs, dtype=bool)
        out_deg = np.diff(self.indptr)
        srcs = np.repeat(np.arange(len(self), dtype=np.int32), out_deg)
        chunk = 8_000_000
        for lo in range(0, self.targets.shape[0], chunk):
            hi = lo + chunk
            ls = self.scc[srcs[lo:hi]]
            lt = self.scc[self.targets[lo:hi]]
            bottom[ls[ls != lt]] = False
        return bottom

    @cached_property
    def bottom_sccs(self) -> frozenset[int]:
        """Labels of the components that no edge leaves."""
        return frozenset(np.flatnonzero(self._bottom_mask).tolist())


# -- array-native exploration ------------------------------------------------
#
# A configuration is packed into W uint64 limbs: each state count is a field
# of ``bits = n_max.bit_length()`` bits, ``64 // bits`` fields to a limb.  A
# cell result adds one delta per limb.  Every field stays in [0, n_max] before
# and after, so the wrapping uint64 add is exact and no carry or borrow
# crosses a field or a limb.


_SHIFT = np.uint64(32)
_ODD = np.uint64(0x9E3779B97F4A7C15)


def _fingerprint(limbs: np.ndarray) -> np.ndarray:
    """A 64-bit fingerprint of each row of packed limbs.

    With one limb the fingerprint is the key itself.  Wider keys are folded
    in limb by limb (xor-shift, multiply by an odd constant, xor the next
    limb), so unequal keys may share a fingerprint; the search confirms
    every fingerprint match on the full limbs.
    """
    fp = limbs[:, 0]
    for w in range(1, limbs.shape[1]):
        fp = ((fp ^ (fp >> _SHIFT)) * _ODD) ^ limbs[:, w]
    return fp


def _group_keys(keys: np.ndarray, fps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort order of packed ``keys`` that makes equal keys adjacent,
    and for each sorted position after the first whether its key differs
    from the one before.

    The order is by fingerprint ``fps``; only when unequal keys share a
    fingerprint does it sort by the limbs within each fingerprint too.
    """
    order = fps.argsort(kind="stable")
    sfp = fps[order]
    skey = keys[order]
    fresh = np.logical_or.reduce(skey[1:] != skey[:-1], axis=1)
    if np.count_nonzero(fresh) != np.count_nonzero(sfp[1:] != sfp[:-1]):
        order = np.lexsort((*keys.T[::-1], fps))
        skey = keys[order]
        fresh = np.logical_or.reduce(skey[1:] != skey[:-1], axis=1)
    return order, fresh


#: Frontier rows expanded at once.  A row makes one candidate per enabled
#: cell result, and a candidate holds about 70 bytes of transients.  Fewer
#: rows lower the peak memory of wide levels, but every block merges its new
#: nodes into the whole visited set.
_BLOCK_ROWS = 1 << 15


class _LevelSearch:
    """Level-synchronous breadth-first search from the roots ``I_s``.

    The frontier is a level of configurations as packed limbs (``lim``) and
    uint8 count rows (``cnt``).  :meth:`expand` replaces it by the next
    level: the configurations one encounter away that no earlier level or
    earlier candidate of this level holds, numbered in the order they first
    appear among the candidates.  Candidates are ordered by frontier row,
    then cell, then result, so the numbering is the discovery order of a
    node-by-node BFS that tries each node's cell results of
    ``Protocol._cells`` in order.  Each new node is labelled with the cell
    result that first reached it, a row index of ``app_rule``, whose rows
    are ``(a, b, c, d)``.  Visited nodes are kept as sorted fingerprints
    with node ids, and their limbs by id.
    """

    def __init__(self, p: Protocol, n_max: int, sizes: Sequence[int]):
        nq = p.num_states
        bits = n_max.bit_length()
        per = 64 // bits
        width = -(-nq // per)
        cells = p._cells
        self.cell_a = np.array([a for a, _, _, _ in cells], dtype=np.intp)
        self.cell_b = np.array([b for _, b, _, _ in cells], dtype=np.intp)
        # A diagonal cell needs two agents of its state, any other one of each.
        self.cell_min = (self.cell_a == self.cell_b).astype(np.uint8)
        self.cell_no_id = np.array([not has_id for _, _, has_id, _ in cells], dtype=bool)
        # One row (cell, a, b, c, d) per cell result, in cell order.
        apps = np.array(
            [(i, a, b, c, d) for i, (a, b, _, res) in enumerate(cells) for c, d in res],
            dtype=np.intp,
        ).reshape(-1, 5)
        self.app_cell = apps[:, 0]
        self.app_rule = apps[:, 1:]
        step = np.zeros((len(apps), per * width), dtype=np.int64)
        rows = np.arange(len(apps))
        for col, sign in ((1, -1), (2, -1), (3, 1), (4, 1)):
            np.add.at(step, (rows, apps[:, col]), sign)
        # Negative steps wrap modulo 2**8 and 2**64, which the adds undo.
        self.app_counts = step[:, :nq].astype(np.uint8)
        shift = (np.arange(per) * bits).astype(np.uint64)
        fields = step.astype(np.uint64).reshape(-1, width, per) << shift
        self.app_limbs = fields.sum(axis=2, dtype=np.uint64)

        sizes = np.asarray(sizes, dtype=np.uint64)
        self.lim = np.zeros((len(sizes), width), dtype=np.uint64)
        self.lim[:, p.q_init // per] = sizes << np.uint64(p.q_init % per * bits)
        self.cnt = np.zeros((len(sizes), nq), dtype=np.uint8)
        self.cnt[:, p.q_init] = sizes
        self.num_nodes = len(sizes)
        self._limbs = self.lim.copy()  # limbs by node id; rows past num_nodes are spare
        fps = _fingerprint(self.lim)
        order = np.argsort(fps, kind="stable")
        self._fps = fps[order]
        self._ids = order.astype(np.int32)

    def expand(self, edges: bool) -> tuple[np.ndarray, ...]:
        """Replace the frontier by the next level.

        The frontier is expanded in blocks of at most :data:`_BLOCK_ROWS`
        rows, in order, which bounds the per-candidate transients on wide
        levels.  Each block sees the nodes that the blocks before it found,
        so the numbering does not depend on the block size.

        Returns ``(new_from, new_app)``: the frontier row each new node was
        first reached from, and the cell result that reached it.  With
        ``edges`` it returns ``(new_from, new_app, degree, targets, no_id)``
        instead: also the number of edges of each frontier row, the target
        node ids of all edges, grouped by row in cell-result order, and the
        number of enabled cells of each frontier row that cannot leave it
        unchanged.
        """
        parts = [self._expand_block(lo, edges) for lo in range(0, len(self.cnt), _BLOCK_ROWS)]
        joined = [col[0] if len(col) == 1 else np.concatenate(col) for col in zip(*parts)]
        self.lim, self.cnt = joined[:2]
        return tuple(joined[2:])

    def _expand_block(self, lo: int, edges: bool) -> tuple[np.ndarray, ...]:
        """Expand frontier rows ``lo .. lo + _BLOCK_ROWS`` and register the
        new nodes; returns their limbs and counts, then :meth:`expand`'s
        columns for these rows."""
        lim = self.lim[lo : lo + _BLOCK_ROWS]
        cnt = self.cnt[lo : lo + _BLOCK_ROWS]
        enabled = (cnt[:, self.cell_a] > self.cell_min) & (cnt[:, self.cell_b] > 0)
        parent, app = np.nonzero(enabled[:, self.app_cell])
        cand = lim[parent] + self.app_limbs[app]
        k = len(parent)

        fps = _fingerprint(cand)
        order, fresh = _group_keys(cand, fps)
        # One group per distinct key, in sorted order; its first member is
        # its first appearance.
        start = np.concatenate(((k > 0,), fresh)).nonzero()[0]
        first = order[start]
        gfp = fps[first]
        gid, at = self._lookup(gfp, cand[first])
        new = (gid < 0).nonzero()[0]
        by_appearance = first[new].argsort()
        gid[new[by_appearance]] = np.arange(self.num_nodes, self.num_nodes + len(new))
        self._merge(at[new], gfp[new], gid[new])
        new_from = first[new[by_appearance]]
        end = self.num_nodes + len(new)
        if end > len(self._limbs):
            grown = np.empty((max(end, 2 * len(self._limbs)), lim.shape[1]), dtype=np.uint64)
            grown[: self.num_nodes] = self._limbs[: self.num_nodes]
            self._limbs = grown
        new_lim = cand[new_from]
        self._limbs[self.num_nodes : end] = new_lim
        self.num_nodes = end
        new_cnt = cnt[parent[new_from]] + self.app_counts[app[new_from]]
        labels = (lo + parent[new_from], app[new_from])
        if not edges:
            return new_lim, new_cnt, *labels

        # Repeats of one key from one row are adjacent within its group.
        sparent = parent[order]
        keep = np.ones(k, dtype=bool)
        keep[order[1:]] = fresh | (sparent[1:] != sparent[:-1])
        group = np.zeros(k, dtype=np.intp)
        np.add.accumulate(fresh, dtype=np.intp, out=group[1:])
        target = np.empty(k, dtype=np.int32)
        target[order] = gid[group]
        degree = np.bincount(parent[keep], minlength=len(cnt)).astype(np.int32)
        no_id = enabled[:, self.cell_no_id].sum(axis=1, dtype=np.int32)
        return new_lim, new_cnt, *labels, degree, target[keep], no_id

    def prune(self, keep: np.ndarray) -> None:
        """Drop the frontier rows where ``keep`` is false from further search."""
        self.lim = self.lim[keep]
        self.cnt = self.cnt[keep]

    def _lookup(self, gfp: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Node id of each key (-1 if unvisited), and each fingerprint's
        insertion point in the sorted visited fingerprints."""
        fps = self._fps
        at = fps.searchsorted(gfp)
        gid = np.full(len(gfp), -1, dtype=np.int64)
        todo = (fps[np.minimum(at, len(fps) - 1)] == gfp).nonzero()[0]
        pos = at[todo]
        while todo.size:
            ids = self._ids[pos]
            hit = np.logical_and.reduce(self._limbs[ids] == keys[todo], axis=1)
            gid[todo[hit]] = ids[hit]
            if hit.all():
                break
            # A fingerprint collision: try the next visited node with the
            # same fingerprint.
            todo, pos = todo[~hit], pos[~hit] + 1
            inside = pos < len(fps)
            todo, pos = todo[inside], pos[inside]
            same = fps[pos] == gfp[todo]
            todo, pos = todo[same], pos[same]
        return gid, at

    def _merge(self, at: np.ndarray, fps: np.ndarray, ids: np.ndarray) -> None:
        """Insert sorted ``fps`` with their node ids before positions ``at``."""
        dest = at + np.arange(len(at))
        old = np.ones(len(self._fps) + len(at), dtype=bool)
        old[dest] = False
        merged = np.empty(len(old), dtype=np.uint64)
        merged[dest] = fps
        merged[old] = self._fps
        self._fps = merged
        merged = np.empty(len(old), dtype=np.int32)
        merged[dest] = ids
        merged[old] = self._ids
        self._ids = merged


def _self_loops(counts: np.ndarray, no_id: np.ndarray) -> np.ndarray:
    """Which count rows have a self-loop, given how many of their enabled
    cells cannot leave them unchanged.

    A configuration has a self-loop iff some enabled unordered pair of its
    states can leave it unchanged, i.e. iff it has more enabled pairs than
    enabled cells without an identity result; a pair of distinct states
    needs one agent of each, a pair of one state two agents.
    """
    support = (counts > 0).sum(axis=1)
    return support * (support - 1) // 2 + (counts > 1).sum(axis=1) > no_id


def _cap_message(p: Protocol, n: int, node_cap: int) -> str:
    return f"reachability closure of {p.name!r} at n={n} exceeds node cap {node_cap}"


def reach(p: Protocol, n: int, node_cap: int = DEFAULT_NODE_CAP) -> ReachGraph:
    """Breadth-first closure of :func:`successors` from ``I_n``.

    The search expands a whole BFS level at a time in numpy and numbers the
    nodes exactly as a node-by-node BFS would; each edge row lists the
    successors in the order of their first enabled cell result, then the
    node itself when it has a self-loop, and holds exactly the
    configurations :func:`successors` returns.  Returns the
    complete reachability graph; its occurring states, SCCs and bottom SCCs
    are computed when first read.  Raises :class:`CapExceeded` iff more
    than ``node_cap`` nodes are reachable — never a partial graph.
    """
    _check_population(n)
    if node_cap < 1:
        raise ValueError("node_cap must be >= 1")
    search = _LevelSearch(p, n, [n])
    counts = [search.cnt]
    degrees: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    no_ids: list[np.ndarray] = []
    while len(search.cnt):
        _, _, degree, tgt, no_id = search.expand(edges=True)
        degrees.append(degree)
        targets.append(tgt)
        no_ids.append(no_id)
        if search.num_nodes > node_cap:
            raise CapExceeded(_cap_message(p, n, node_cap), node_cap=node_cap)
        counts.append(search.cnt)

    del search  # the assembly below needs none of the search state
    counts_matrix = np.concatenate(counts)
    degree = np.concatenate(degrees)
    loop = _self_loops(counts_matrix, np.concatenate(no_ids))
    del counts, degrees, no_ids
    looped = np.flatnonzero(loop).astype(np.int32)
    target = np.concatenate(targets)
    del targets
    target = np.insert(target, np.cumsum(degree)[looped], looped)
    indptr = np.zeros(len(degree) + 1, dtype=np.int64)
    np.cumsum(degree + loop, out=indptr[1:])
    return ReachGraph(p, n, counts_matrix, indptr, target)


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
            hit = a.dot(frontier.astype(np.float32)) > 0
            frontier = hit & ~mask
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
    if not isinstance(state_names, list) or not all(
        isinstance(s, str) for s in state_names
    ):
        raise ProtocolError("'states' must be a list of strings")
    if len(set(state_names)) != len(state_names):
        raise ProtocolError("state names are not unique")
    if not isinstance(deterministic, bool):
        raise ProtocolError("'deterministic' must be a boolean")
    if not isinstance(q1, list):
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
        name=name if isinstance(name, str) else "",
        state_names=state_names,
        q_init=q_init,
        q1=q1,
        rules=rules,
        deterministic=deterministic,
    )
