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
import time
from collections.abc import Callable
from dataclasses import astuple, dataclass, fields
from typing import Any

import numpy as np

from .core import (
    DEFAULT_NODE_CAP,
    CapExceeded,
    Configuration,
    Protocol,
    ReachGraph,
    _check_population,
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
    """Outcome of one check: ``holds``, ``fails`` (with witness), or ``na``."""

    status: str
    witness: Any = None

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    @property
    def failed(self) -> bool:
        return self.status == "fails"


HOLDS = Verdict("holds")
NA = Verdict("na")


def _fails(witness: Any) -> Verdict:
    return Verdict("fails", witness)


@dataclass(frozen=True)
class VerificationReport:
    """All check outcomes for one (protocol, n) pair.

    ``error`` is set (and every verdict is ``na``) when the reachability
    closure exceeded the node cap; ``nodes_explored`` is then the cap, the
    number of nodes discovered before exploration stopped, and
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

    @property
    def all_hold(self) -> bool:
        """True when no applicable check failed and no error occurred."""
        if self.error is not None:
            return False
        return not any(v.failed for v in (self.sound, self.complete, self.consensus))


def _graph_for(p: Protocol, n: int, node_cap: int, graph: ReachGraph | None) -> ReachGraph:
    if graph is not None:
        if graph.protocol != p or graph.n != n:
            raise ValueError("supplied graph does not match the protocol and n")
        return graph
    return reach(p, n, node_cap)


def _q1_mask(g: ReachGraph) -> np.ndarray:
    cols = sorted(g.protocol.q1)
    if not cols:
        return np.zeros(len(g), dtype=bool)
    return (g.counts_matrix[:, cols] > 0).any(axis=1)


def check_soundness(
    p: Protocol, n: int, node_cap: int = DEFAULT_NODE_CAP, graph: ReachGraph | None = None
) -> Verdict:
    """No reachable configuration at size ``n`` contains an accepting state.

    The witness on failure is the first offending configuration in BFS
    order.
    """
    g = _graph_for(p, n, node_cap, graph)
    if not (g.occurring & p.q1):
        return HOLDS
    bad = _q1_mask(g)
    return _fails(g.config(int(np.argmax(bad))))


def check_completeness(
    p: Protocol, n: int, node_cap: int = DEFAULT_NODE_CAP, graph: ReachGraph | None = None
) -> Verdict:
    """Every reachable configuration can still reach an accepting one.

    The witness on failure is a reachable configuration from which no
    configuration containing a Q1 state is reachable.
    """
    g = _graph_for(p, n, node_cap, graph)
    good = _q1_mask(g)
    ok = np.zeros(len(g), dtype=bool)
    ok[can_reach_predicate(g, good)] = True
    if ok.all():
        return HOLDS
    return _fails(g.config(int(np.argmin(ok))))


def check_consensus(
    p: Protocol,
    r: int,
    n: int,
    node_cap: int = DEFAULT_NODE_CAP,
    graph: ReachGraph | None = None,
) -> Verdict:
    """Fair runs at size ``n`` stabilize to unanimous output ``r``.

    Checked structurally: every configuration of every bottom SCC must have
    all agents in Q1 (``r = 1``) or all in Q0 (``r = 0``).  The witness on
    failure is a bottom-SCC configuration with an agent on the wrong side.
    """
    if r not in (0, 1):
        raise ValueError(f"expected output bit must be 0 or 1, got {r}")
    g = _graph_for(p, n, node_cap, graph)
    # All agents inside the target partition <=> zero mass outside it.
    outside = sorted(g.protocol.q0 if r == 1 else g.protocol.q1)
    if not outside:
        return HOLDS
    bottom = np.fromiter(g.bottom_sccs, dtype=np.int32, count=len(g.bottom_sccs))
    in_bottom = np.isin(g.scc, bottom)
    bad = in_bottom & (g.counts_matrix[:, outside] > 0).any(axis=1)
    if not bad.any():
        return HOLDS
    return _fails(g.config(int(np.argmax(bad))))


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
    some ``n`` is recorded in that report and the sweep continues.
    """
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError(f"bad population range [{n_lo}, {n_hi}]")
    reports: list[VerificationReport] = []
    for n in range(n_lo, n_hi + 1):
        t0 = time.perf_counter()
        sound = complete = consensus = NA
        error = None
        try:
            g = reach(p, n, node_cap)
        except CapExceeded as exc:
            nodes, bottoms, error = exc.node_cap, None, str(exc)
        else:
            if n < d:
                sound = check_soundness(p, n, graph=g)
                consensus = check_consensus(p, 0, n, graph=g)
            else:
                complete = check_completeness(p, n, graph=g)
                consensus = check_consensus(p, 1, n, graph=g)
                if consensus.holds and not complete.holds:
                    raise RuntimeError(
                        f"internal inconsistency for {p.name!r} at n={n}: "
                        "stable consensus on 1 holds but completeness fails"
                    )
            nodes, bottoms = len(g), len(g.bottom_sccs)
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


def encounter_trace(
    p: Protocol, n: int, target: Configuration, node_cap: int = DEFAULT_NODE_CAP
) -> list[TraceStep]:
    """A shortest encounter sequence from ``I_n`` to ``target``.

    Re-runs the BFS with parent pointers; raises ``ValueError`` if the
    target is not reachable.  Intended for explaining check witnesses.
    """
    nq = p.num_states
    _check_population(n)
    root = n << (8 * p.q_init)
    want = target.packed(nq)
    keys: list[int] = [root]
    index: dict[int, int] = {root: 0}
    parent: list[int] = [-1]
    via: list[tuple[int, int, int, int]] = [(-1, -1, -1, -1)]
    i = 0
    while i < len(keys):
        cur = keys[i]
        if cur == want:
            break
        raw = cur.to_bytes(nq, "little")
        for a, b, _has_id, apps in p._cells:
            ca = raw[a]
            if a == b:
                if ca < 2:
                    continue
            elif not ca or not raw[b]:
                continue
            for delta_key, c, d in apps:
                nxt = cur + delta_key
                if nxt not in index:
                    if len(keys) >= node_cap:
                        raise CapExceeded(
                            f"trace search exceeds node cap {node_cap}", node_cap=node_cap
                        )
                    index[nxt] = len(keys)
                    keys.append(nxt)
                    parent.append(i)
                    via.append((a, b, c, d))
        i += 1
    if want not in index:
        raise ValueError(f"target {target} is not reachable from I_{n}")
    steps: list[TraceStep] = []
    at = index[want]
    while at != 0:
        a, b, c, d = via[at]
        steps.append(
            TraceStep(
                pair=(p.display(a), p.display(b)),
                result=(p.display(c), p.display(d)),
                after=Configuration.unpacked(keys[at], nq),
            )
        )
        at = parent[at]
    steps.reverse()
    return steps
