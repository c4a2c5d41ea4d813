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
from array import array
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_
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
    "occurring_states",
    "can_reach_predicate",
    "protocol_to_json",
    "protocol_from_json",
]

#: Default limit on the number of reachability-graph nodes explored before
#: giving up.  Overridable per call and, in the CLI, via FLOCKPP_NODE_CAP.
DEFAULT_NODE_CAP = 5_000_000

#: Configurations are packed one byte per state, so no single state may hold
#: more than 255 agents.
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
    def _cells(self) -> tuple[tuple[int, int, bool, tuple[tuple[int, int, int], ...]], ...]:
        """Unordered-encounter worklist used by the reachability engine.

        One entry per unordered state pair {a, b} (a <= b) whose encounter can
        do something: ``(a, b, has_identity, ((packed_delta, c, d), ...))``.
        An off-diagonal encounter happens in either order, so both
        ``delta_of(a, b)`` and ``delta_of(b, a)`` are read: the (a, b) results
        first, then the (b, a) results swapped, since moving one agent b->c
        and one a->d is the same multiset step as applying (d, c) to (a, b).
        An unlisted order reads as the identity, which sets
        ``has_identity``.  ``packed_delta`` is the integer to add to a packed
        configuration key (one byte per state, little-endian); the add never
        borrows or carries because source counts are >= 1 and target counts
        stay <= the population size <= :data:`MAX_POPULATION`.
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
                packed = tuple(
                    ((1 << (8 * c)) + (1 << (8 * d)) - (1 << (8 * a)) - (1 << (8 * b)), c, d)
                    for c, d in results
                )
                out.append((a, b, has_id, packed))
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

    # -- packed representation used by the reachability engine ------------

    def packed(self, num_states: int) -> int:
        key = 0
        for q, c in self.counts:
            if c > MAX_POPULATION:
                raise ValueError(f"count {c} exceeds {MAX_POPULATION}")
            key += c << (8 * q)
        return key

    @staticmethod
    def unpacked(key: int, num_states: int) -> "Configuration":
        raw = key.to_bytes(num_states, "little")
        counts = tuple((q, raw[q]) for q in range(num_states) if raw[q])
        return Configuration(counts=counts, n=sum(c for _, c in counts))


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
    if n < 1:
        raise ValueError("population size must be >= 1")
    return Configuration(counts=((p.q_init, n),), n=n)


def _check_population(n: int) -> None:
    """Raise ``ValueError`` unless ``1 <= n <= MAX_POPULATION``."""
    if not 1 <= n <= MAX_POPULATION:
        raise ValueError(f"population size {n} is outside [1, {MAX_POPULATION}]")


def _packed_successors(
    p: Protocol, key: int, num_states: int
) -> tuple[list[int], bool]:
    """Distinct non-identity successor keys of ``key`` plus a self-loop flag.

    The one successor kernel: :func:`successors` and :func:`reach` both
    expand configurations through it.  Keys are listed in the order of their
    first enabled cell.  The self-loop flag is true iff some enabled
    encounter admits the identity result, i.e. iff the number of enabled
    unordered pairs exceeds the number of enabled pairs that can never stay
    put.
    """
    raw = key.to_bytes(num_states, "little")
    out: list[int] = []
    seen: set[int] = set()
    enabled_no_id = 0
    for a, b, has_id, apps in p._cells:
        ca = raw[a]
        if a == b:
            if ca < 2:
                continue
        elif not ca or not raw[b]:
            continue
        if not has_id:
            enabled_no_id += 1
        for delta_key, _c, _d in apps:
            nxt = key + delta_key  # delta_key != 0: identities filtered out
            if nxt not in seen:
                seen.add(nxt)
                out.append(nxt)
    support = doubled = 0
    for v in raw:
        if v:
            support += 1
            if v >= 2:
                doubled += 1
    return out, support * (support - 1) // 2 + doubled > enabled_no_id


def successors(p: Protocol, c: Configuration) -> set[Configuration]:
    """All one-encounter successors of ``c`` (including ``c`` itself when an
    enabled encounter admits the identity result).

    Every ordered pair of distinct agents is a possible encounter: states
    ``(q_a, q_b)`` with ``q_a != q_b`` need one agent of each, ``q_a == q_b``
    needs two agents.  Each result pair of ``delta(q_a, q_b)`` contributes
    the configuration with one agent moved ``q_a -> q_c`` and one
    ``q_b -> q_d``.  For ``n = 1`` there are no encounters and the result is
    empty.
    """
    nq = p.num_states
    if c.n > MAX_POPULATION:
        raise ValueError(f"population size {c.n} exceeds {MAX_POPULATION}")
    key = c.packed(nq)
    nxt_keys, self_loop = _packed_successors(p, key, nq)
    result = {Configuration.unpacked(k, nq) for k in nxt_keys}
    if self_loop:
        result.add(c)
    return result


class ReachGraph:
    """The multiset reachability graph of a protocol at population size n.

    Nodes are configurations indexed in BFS discovery order from the root
    ``I_n`` (index 0).  Edges are one-encounter steps, deduplicated per
    source, stored in CSR form (``indptr``/``targets``).  The states that
    occur in some node (``occurring``), the strongly connected components
    (``scc``, ``num_sccs``) and the set of bottom (no outgoing edge)
    components (``bottom_sccs``) are computed on first access.  The
    components carry the fairness analysis, because a fair run settles into
    exactly one bottom component and visits all of it.
    """

    def __init__(
        self,
        protocol: Protocol,
        n: int,
        keys: list[int],
        key_index: dict[int, int],
        indptr: np.ndarray,
        targets: np.ndarray,
    ):
        self.protocol = protocol
        self.n = n
        self.root = 0
        self._keys = keys
        self._key_index = key_index
        self.indptr = indptr
        self.targets = targets

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def num_nodes(self) -> int:
        return len(self._keys)

    @property
    def num_edges(self) -> int:
        return int(self.targets.shape[0])

    def config(self, i: int) -> Configuration:
        return Configuration.unpacked(self._keys[i], self.protocol.num_states)

    def configurations(self) -> Iterator[Configuration]:
        nq = self.protocol.num_states
        for key in self._keys:
            yield Configuration.unpacked(key, nq)

    def index_of(self, c: Configuration) -> int | None:
        return self._key_index.get(c.packed(self.protocol.num_states))

    def successors_of(self, i: int) -> np.ndarray:
        return self.targets[self.indptr[i] : self.indptr[i + 1]]

    @cached_property
    def occurring(self) -> frozenset[int]:
        """States that appear with positive count in some node."""
        # Keys add without carries, so a byte of their OR is non-zero exactly
        # where some reachable configuration holds an agent.
        nq = self.protocol.num_states
        occ = reduce(or_, self._keys).to_bytes(nq, "little")
        return frozenset(q for q in range(nq) if occ[q])

    @cached_property
    def counts_matrix(self) -> np.ndarray:
        """Node-by-state count matrix (uint8), one row per configuration."""
        nq = self.protocol.num_states
        buf = b"".join(k.to_bytes(nq, "little") for k in self._keys)
        return np.frombuffer(buf, dtype=np.uint8).reshape(len(self._keys), nq)

    @cached_property
    def _csr(self) -> sparse.csr_matrix:
        n = len(self._keys)
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
    def bottom_sccs(self) -> frozenset[int]:
        """Labels of the components that no edge leaves."""
        # Scan edges in chunks to bound transient memory on large graphs.
        non_bottom: set[int] = set()
        out_deg = np.diff(self.indptr)
        srcs = np.repeat(np.arange(len(self._keys), dtype=np.int32), out_deg)
        chunk = 8_000_000
        for lo in range(0, self.targets.shape[0], chunk):
            hi = lo + chunk
            ls = self.scc[srcs[lo:hi]]
            lt = self.scc[self.targets[lo:hi]]
            non_bottom.update(np.unique(ls[ls != lt]).tolist())
        return frozenset(range(self.num_sccs)) - frozenset(non_bottom)


def reach(p: Protocol, n: int, node_cap: int = DEFAULT_NODE_CAP) -> ReachGraph:
    """Breadth-first closure of :func:`successors` from ``I_n``.

    Each node is expanded by the same kernel as :func:`successors`; its
    edge row lists the successors in kernel order, then the node itself
    when it has a self-loop.  Returns the complete reachability graph; its
    occurring states, SCCs and bottom SCCs are computed when first read.  Raises
    :class:`CapExceeded` as soon as a node beyond the first ``node_cap``
    would be created — never a partial graph.
    """
    _check_population(n)
    if node_cap < 1:
        raise ValueError("node_cap must be >= 1")
    nq = p.num_states

    root = n << (8 * p.q_init)
    keys: list[int] = [root]
    key_index: dict[int, int] = {root: 0}
    indptr = array("q", [0])
    targets = array("i")

    i = 0
    while i < len(keys):
        nxts, self_loop = _packed_successors(p, keys[i], nq)
        for nxt in nxts:
            j = key_index.get(nxt)
            if j is None:
                j = len(keys)
                if j >= node_cap:
                    raise CapExceeded(
                        f"reachability closure of {p.name!r} at n={n} "
                        f"exceeds node cap {node_cap}",
                        node_cap=node_cap,
                    )
                key_index[nxt] = j
                keys.append(nxt)
            targets.append(j)
        if self_loop:
            targets.append(i)
        indptr.append(len(targets))
        i += 1

    indptr_np = np.frombuffer(indptr, dtype=np.int64)
    targets_np = np.frombuffer(targets, dtype=np.int32) if len(targets) else np.empty(
        0, dtype=np.int32
    )
    return ReachGraph(p, n, keys, key_index, indptr_np, targets_np)


def occurring_states(g: ReachGraph) -> frozenset[int]:
    """States that appear with positive count in some reachable configuration."""
    return g.occurring


def can_reach_predicate(
    g: ReachGraph, good: Callable[[Configuration], bool] | np.ndarray
) -> np.ndarray:
    """Indices of nodes from which some node satisfying ``good`` is reachable.

    ``good`` is a predicate on configurations; a precomputed boolean mask
    over node indices is also accepted.  Reachability is resolved by reverse
    BFS from all good nodes, run as layered sparse matrix-vector products so
    large graphs stay in numpy.  Returns a sorted array of node indices
    (every good node trivially reaches itself).
    """
    n = len(g)
    if isinstance(good, np.ndarray):
        mask = good.astype(bool, copy=True)
        if mask.shape != (n,):
            raise ValueError(f"good mask has shape {mask.shape}, expected ({n},)")
    else:
        mask = np.fromiter((bool(good(c)) for c in g.configurations()), bool, count=n)
    if g.num_edges:
        a = g._csr
        frontier = mask.copy()
        while frontier.any():
            hit = a.dot(frontier.astype(np.float32)) > 0
            frontier = hit & ~mask
            mask |= frontier
    return np.flatnonzero(mask).astype(np.int64)


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
