"""Exhaustive verification of threshold protocols on finite populations.

For a protocol meant to decide "population size >= d" while never letting an
agent accept below the threshold, three checks cover the definition:

* **soundness** (n < d): no reachable configuration contains an accepting
  state.
* **completeness** (n >= d): from every reachable configuration some
  configuration containing an accepting state is still reachable.
* **stable consensus**: under fairness a run settles into one bottom
  strongly connected component of the reachability graph and visits all of
  it, so the protocol converges with the correct answer iff every
  configuration of every bottom SCC is unanimous on the expected side.

Consensus with expected answer 1 subsumes completeness (a unanimity-Q1
bottom component is reachable from everywhere only if Q1 itself is); the
implication is asserted on every run as an internal consistency check.
"""

from __future__ import annotations

import csv
import io
import operator
import time
from collections.abc import Callable
from dataclasses import astuple, dataclass, field, fields
from functools import cached_property, partial
from typing import Any

import numpy as np

from .core import (
    DEFAULT_NODE_CAP,
    MAX_POPULATION,
    CapExceeded,
    Configuration,
    Protocol,
    ReachGraph,
    _levels,
    _tree,
    can_reach_predicate,
    reach,
)
from .protocols import _constructions, threshold_params

__all__ = [
    "Verdict",
    "VerificationReport",
    "TableRow",
    "check_soundness",
    "check_completeness",
    "check_consensus",
    "verify_range",
    "state_count_table",
    "table_to_csv",
    "encounter_trace",
    "TraceStep",
]


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check: ``holds``, ``fails`` (with witness), or ``na``.

    A configuration witness comes with the :func:`encounter_trace` to it,
    ``trace``, read off the search that found it when first read; equality
    ignores it.  Until then the verdict keeps only the rules along the
    search's tree path to the witness, in ``_pending``."""

    status: str
    witness: Any = None
    _pending: Callable[[], list[TraceStep]] | None = field(default=None, compare=False, repr=False)

    @cached_property
    def trace(self) -> list[TraceStep] | None:
        return None if self._pending is None else self._pending()

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    @property
    def failed(self) -> bool:
        return self.status == "fails"


HOLDS = Verdict("holds")
NA = Verdict("na")


@dataclass(frozen=True)
class VerificationReport:
    """All check outcomes for one (protocol, n) pair.

    ``error`` is set (and every verdict is ``na``) when the reachability
    closure exceeded the node cap; ``nodes_explored`` is then the cap,
    ``cap_nodes`` and ``cap_levels`` say how far the search got (the
    :class:`CapExceeded` attributes ``nodes`` and ``levels``), and
    ``bottom_scc_count`` is ``None``, since the bottom components of the
    unexplored graph are unknown.  Cap overruns are reported, not raised,
    so a range sweep can continue past an oversized instance.
    """

    protocol_name: str
    d: int
    n: int
    sound: Verdict
    complete: Verdict
    consensus: Verdict
    nodes_explored: int
    bottom_scc_count: int | None
    elapsed: float
    error: str | None = None
    cap_nodes: int | None = None
    cap_levels: int | None = None

    @property
    def all_hold(self) -> bool:
        """True when no applicable check failed and no error occurred."""
        if self.error is not None:
            return False
        return not any(v.failed for v in (self.sound, self.complete, self.consensus))


def _holding(g: ReachGraph, states: frozenset[int]) -> np.ndarray:
    """Mask of the nodes with at least one agent in ``states``."""
    # One product copies no count column.  A node's counts sum to
    # n <= 255 (core.MAX_POPULATION), so the uint8 sums cannot wrap.
    pick = np.zeros(g.counts_matrix.shape[1], dtype=np.uint8)
    pick[list(states)] = 1
    return g.counts_matrix @ pick > 0


def _verdict(g: ReachGraph, bad: np.ndarray) -> Verdict:
    """``holds`` when no node is ``bad``; otherwise ``fails`` with the first
    bad node in BFS order as the witness, and the trace to it."""
    if not bad.any():
        return HOLDS
    i = int(np.argmax(bad))
    walk = partial(_walk, g.protocol, _tree_path(g.tree, i), g.counts_matrix[i].tolist())
    return Verdict("fails", g.config(i), walk)


def check_soundness(g: ReachGraph) -> Verdict:
    """No configuration of ``g`` contains an accepting state.

    ``AG not Q1``: the bad nodes have a Q1 agent, and the witness on failure
    is the first of them in BFS order.
    """
    return _verdict(g, _holding(g, g.protocol.q1))


def check_completeness(g: ReachGraph) -> Verdict:
    """Every configuration of ``g`` can still reach an accepting one.

    ``AG EF Q1``: the bad nodes cannot reach a node with a Q1 agent, and the
    witness on failure is the first of them in BFS order.  Every node
    reaches a bottom component and no path leaves one, so this holds iff
    every bottom component has a node with a Q1 agent; only a failing check
    needs the backward closure, to find its bad nodes.
    """
    accepting = _holding(g, g.protocol.q1)
    with_q1 = np.zeros(len(g.bottom), dtype=bool)
    with_q1[g.scc[accepting]] = True
    if not (g.bottom & ~with_q1).any():
        return HOLDS
    return _verdict(g, ~can_reach_predicate(g, accepting))


def check_consensus(g: ReachGraph, r: int) -> Verdict:
    """Fair runs on ``g`` stabilize to unanimous output ``r``.

    Checked structurally: every configuration of every bottom SCC must have
    all agents in Q1 (``r = 1``) or all in Q0 (``r = 0``).  The witness on
    failure is the first bottom-SCC node with an agent on the wrong side.
    """
    if r not in (0, 1):
        raise ValueError(f"expected output bit must be 0 or 1, got {r}")
    p = g.protocol
    return _verdict(g, g.bottom[g.scc] & _holding(g, p.q0 if r == 1 else p.q1))


def verify_range(
    p: Protocol,
    d: int,
    n_lo: int,
    n_hi: int,
    node_cap: int = DEFAULT_NODE_CAP,
    progress: Callable[[VerificationReport], None] | None = None,
) -> list[VerificationReport]:
    """Run the applicable checks for every ``n`` in ``[n_lo, n_hi]``.

    Below the threshold: soundness and consensus on output 0.  At or above
    it: completeness and consensus on output 1.  One reachability graph is
    built per ``n`` and shared by the checks.  A :class:`CapExceeded` for
    some ``n`` is recorded in that report and the sweep continues.  Before
    any search, a threshold below 1 raises
    :class:`~flockpp.protocols.InvalidThreshold`, a range outside
    ``1 .. MAX_POPULATION`` or a ``node_cap`` below 1 raises ``ValueError``,
    and a non-integer argument raises ``TypeError``.
    """
    d, n_lo, n_hi = threshold_params(d).d, operator.index(n_lo), operator.index(n_hi)
    if not 1 <= n_lo <= n_hi <= MAX_POPULATION:
        raise ValueError(
            f"bad population range [{n_lo}, {n_hi}]: sizes lie in [1, {MAX_POPULATION}]"
        )
    reports: list[VerificationReport] = []
    for n in range(n_lo, n_hi + 1):
        t0 = time.perf_counter()
        sound = complete = consensus = NA
        error = cap_nodes = cap_levels = None
        try:
            g = reach(p, n, node_cap)
        except CapExceeded as exc:
            nodes, bottoms, error = exc.node_cap, None, str(exc)
            cap_nodes, cap_levels = exc.nodes, exc.levels
        else:
            if n < d:
                sound = check_soundness(g)
                consensus = check_consensus(g, 0)
            else:
                complete = check_completeness(g)
                consensus = check_consensus(g, 1)
                if consensus.holds and not complete.holds:
                    raise RuntimeError(
                        f"internal inconsistency for {p.name!r} at n={n}: "
                        "stable consensus on 1 holds but completeness fails"
                    )
            nodes, bottoms = len(g), int(np.count_nonzero(g.bottom))
            del g  # the next size's search must not hold this graph
        rep = VerificationReport(
            protocol_name=p.name,
            d=d,
            n=n,
            sound=sound,
            complete=complete,
            consensus=consensus,
            nodes_explored=nodes,
            bottom_scc_count=bottoms,
            elapsed=time.perf_counter() - t0,
            error=error,
            cap_nodes=cap_nodes,
            cap_levels=cap_levels,
        )
        reports.append(rep)
        if progress is not None:
            progress(rep)
    return reports


# -- state-count table -----------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    """State counts of every construction at one threshold.

    ``q_b`` / ``q_pow2`` are ``None`` where the construction does not apply;
    ``z`` and ``bound_upper`` are ``None`` for ``d = 1``.
    """

    d: int
    e: int
    z: int | None
    q_angluin: int
    q_a: int
    q_b: int | None
    q_pow2: int | None
    q_best: int
    bound_upper: int | None
    bound_lower: int


#: CSV column order for :func:`table_to_csv` (stable interface): the
#: :class:`TableRow` fields.
TABLE_COLUMNS = tuple(f.name for f in fields(TableRow))


def state_count_table(d_lo: int, d_hi: int) -> list[TableRow]:
    """Build each succinct construction that applies to ``d`` once and
    tabulate the state counts; ``q_best`` is the smallest of them.

    The unary baseline ``angluin(d)`` has d + 1 states by definition (one,
    ``CONV``, at d = 1), so it is counted without building its Theta(d^2)
    rules.

    Each row is checked against the two bounds: ``q_best`` must not exceed
    ``floor(log2 d) + min(e, z) + 2`` and must be at least the smallest
    integer >= ``log2(d) + 1`` (equivalently ``2**(q_best - 1) >= d``).
    A violation raises ``RuntimeError`` — it would mean a constructor bug.
    """
    if d_lo < 1 or d_hi < d_lo:
        raise ValueError(f"bad threshold range [{d_lo}, {d_hi}]")
    rows = []
    for d in range(d_lo, d_hi + 1):
        pr = threshold_params(d)
        q = {family: c.num_states for family, c in _constructions(d).items()}
        bound_lower = (d - 1).bit_length() + 1
        if pr.z is None:
            bound_upper = None
        else:
            bound_upper = (d.bit_length() - 1) + min(pr.e, pr.z) + 2
        row = TableRow(
            d=d,
            e=pr.e,
            z=pr.z,
            q_angluin=1 if d == 1 else d + 1,
            q_a=q["a"],
            q_b=q.get("b"),
            q_pow2=q.get("pow2"),
            q_best=min(q.values()),
            bound_upper=bound_upper,
            bound_lower=bound_lower,
        )
        if bound_upper is not None and row.q_best > bound_upper:
            raise RuntimeError(f"state-count upper bound violated at d={d}: {row}")
        if row.q_best < bound_lower:
            raise RuntimeError(f"state-count lower bound violated at d={d}: {row}")
        rows.append(row)
    return rows


def table_to_csv(rows: list[TableRow]) -> str:
    """Render rows as CSV in :data:`TABLE_COLUMNS` order (None -> empty)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(TABLE_COLUMNS)
    w.writerows(astuple(r) for r in rows)
    return buf.getvalue()


# -- witness traces --------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    """One encounter on a shortest path: ``(a, b) -> (c, d)`` state names."""

    pair: tuple[str, str]
    result: tuple[str, str]
    after: Configuration


def _tree_path(tree: np.ndarray, i: int) -> list[int]:
    """The rows of ``Protocol._rules`` that label node ``i`` and its first
    parents in a BFS ``tree``, from ``i`` back to the root."""
    path: list[int] = []
    while i:
        path.append(i)
        i = tree[0, i]
    return tree[1, path].tolist()


def _walk(p: Protocol, rules: list[int], counts: list[int]) -> list[TraceStep]:
    """The steps from ``I_n`` to the node with count row ``counts`` along
    its tree path ``rules``, from :func:`_tree_path`, undoing each rule."""
    counts = counts.copy()
    n = sum(counts)
    names = [s.name for s in p.states]
    steps: list[TraceStep] = []
    for a, b, c, d in p._rules[rules].tolist():
        after = Configuration(tuple((q, k) for q, k in enumerate(counts) if k), n)
        steps.append(TraceStep((names[a], names[b]), (names[c], names[d]), after))
        counts[a] += 1
        counts[b] += 1
        counts[c] -= 1
        counts[d] -= 1
    steps.reverse()
    return steps


def encounter_trace(
    p: Protocol, n: int, target: Configuration, node_cap: int = DEFAULT_NODE_CAP
) -> list[TraceStep]:
    """A shortest encounter sequence from ``I_n`` to ``target``.

    Runs the breadth-first search of :func:`~flockpp.core.reach` without
    edges, level by level, and stops after the level that holds the target;
    the steps are read back along each node's first parent, the one a
    node-by-node BFS finds first.  Each step names the ordered encounter
    ``(a, b) -> (c, d)`` of ``delta`` that it applies; a failing
    :class:`Verdict` carries the same steps.  Raises :class:`CapExceeded`
    iff more than ``node_cap`` configurations lie within the target's BFS
    depth (all of them when the target is unreachable), which is
    :func:`~flockpp.core.reach`'s rule applied to that ball.  Raises
    ``ValueError`` without searching when ``n`` is out of range,
    ``node_cap < 1``, or the target has another population size, an
    unknown or negative state or a negative count, and after the search
    when the target is not reachable.
    Intended for explaining check witnesses.
    """
    levels = _levels(p, n, node_cap, edges=False)
    search, tree, _ = next(levels)  # checks n and node_cap first
    nq = p.num_states
    counts = target.counts
    if target.n != n or sum(k for _, k in counts) != n or any(
        not 0 <= q < nq or k < 0 for q, k in counts
    ):
        raise ValueError(f"target {target} is not a configuration of {p.name!r} at n={n}")
    want = np.zeros(nq, dtype=np.uint8)
    for q, k in counts:
        want[q] = k
    while not (hit := (search.cnt == want).all(axis=1).nonzero()[0]).size:
        if not len(search.cnt):
            raise ValueError(f"target {target} is not reachable from I_{n}")
        search, tree, _ = next(levels)
    i = search.num_nodes - len(search.cnt) + hit[0]
    return _walk(p, _tree_path(_tree(tree), i), want.tolist())
