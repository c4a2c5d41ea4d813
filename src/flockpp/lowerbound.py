"""Occurrence thresholds and the state-count lower bound.

For a protocol state ``q``, its occurrence threshold is the smallest
population size ``n`` at which ``q`` appears in some reachable
configuration (infinite if it never does).  For any sound threshold
protocol these values are constrained:

* the initial state has threshold 1, and a state first produced by an
  encounter of states with thresholds ``x`` and ``y`` has threshold at most
  ``x + y`` — so consecutive finite thresholds can at most double
  (:func:`check_doubling_gaps`);
* the accepting states have threshold exactly ``d`` (sound + complete), so
  a doubling chain from 1 to ``d`` needs at least ``log2(d) + 1`` distinct
  values, hence that many states (:func:`check_state_lower_bound`, checked
  in exact integer arithmetic as ``2**(|Q| - 1) >= d``).

:func:`occurrence_thresholds` computes the exact values by sweeping
population sizes; :func:`occurrence_upper_bounds` computes the additive
fixpoint bound independently, and the sweep cross-checks itself against it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_NODE_CAP,
    MAX_POPULATION,
    Protocol,
    _cap_message,
    _LevelSearch,
    # Unused here since the sweep searches all sizes at once, but
    # bench/tracer.py wraps ``lowerbound.reach`` by name, so it must resolve.
    reach,  # noqa: F401
)
from .protocols import threshold_params
from .verify import HOLDS, Verdict

__all__ = [
    "OccurrenceMap",
    "occurrence_thresholds",
    "occurrence_upper_bounds",
    "check_doubling_gaps",
    "check_state_lower_bound",
]


@dataclass(frozen=True)
class OccurrenceMap:
    """Occurrence thresholds of every state, exact up to ``n_cap``.

    ``values[q]`` is the smallest population size at which state ``q``
    occurs; states absent from ``values`` are in ``unknown`` and occur first
    (if ever) beyond ``n_cap``.  When a reachability cap aborted the sweep,
    or the sweep reached :data:`~flockpp.core.MAX_POPULATION` with states
    still unknown, ``cap_error`` holds the message and ``n_cap`` is the last
    size actually completed — established values stay valid either way.
    """

    protocol: Protocol
    n_cap: int
    values: dict[int, int]
    unknown: frozenset[int]
    cap_error: str | None = None

    def by_name(self) -> dict[str, int | None]:
        out: dict[str, int | None] = {}
        for s in self.protocol.states:
            out[s.name] = self.values.get(s.index)
        return out


def occurrence_upper_bounds(p: Protocol) -> dict[int, int]:
    """Additive fixpoint bound on occurrence thresholds.

    Seed the initial state with 1; a result state of an encounter ``(a, b)``
    is bounded by ``bound(a) + bound(b)`` (``2 * bound(a)`` on the diagonal),
    since disjoint witness populations can be combined and the two witness
    agents made to meet.  States never reached by the fixpoint are omitted.
    The true threshold can be smaller — one agent may serve both roles — so
    this is only an upper bound, useful as an independent cross-check and
    to size the sweep's first search.
    """
    return _additive_fixpoint(p, {p.q_init: 1})


def _additive_fixpoint(p: Protocol, bound: dict[int, int]) -> dict[int, int]:
    """Lower the upper bounds ``bound`` on occurrence thresholds, in place,
    until no encounter improves one, and return them."""
    changed = True
    while changed:
        changed = False
        for a, b, cell in p.delta:
            ba = bound.get(a)
            bb = bound.get(b)
            if ba is None or bb is None:
                continue
            cand = ba + bb
            for c, d in cell:
                for q in (c, d):
                    cur = bound.get(q)
                    if cur is None or cand < cur:
                        bound[q] = cand
                        changed = True
    return bound


def occurrence_thresholds(
    p: Protocol, n_cap: int, node_cap: int = DEFAULT_NODE_CAP
) -> OccurrenceMap:
    """Exact occurrence thresholds by sweeping ``n = 1 .. n_cap``.

    Occurrence is monotone in ``n`` for every protocol: a larger population
    leaves its extra agents idle in the initial state and replays any
    smaller population's run, which needs no ``(q, q_init)`` encounter, so
    the first ``n`` whose reachable set contains ``q`` is exact.

    The sizes are searched in waves, each one breadth-first search from the
    roots ``I_n`` of its sizes that stores no edges and keeps the least size
    at which each state has occurred.  The first wave covers 1..B, where B
    is the largest additive bound (:func:`occurrence_upper_bounds`), and
    each later wave doubles the sizes covered so far.  The sweep reads the
    sizes below one stop, and rows of sizes from the stop on are pruned, so
    the schedule decides only which sizes share a search, not what is
    found.  Two facts lower the stop: the first size whose reachable set
    passes ``node_cap``, and, when the additive fixpoint covers every state,
    one above the fixpoint rerun from the least sizes found so far, which
    bound their states' thresholds; it is rerun whenever a state first
    occurs, so a loose B costs a few levels of the first search.  Without
    that cover some state never occurs, and the sweep reads every size up
    to ``n_cap`` or the population limit
    :data:`~flockpp.core.MAX_POPULATION`, short of a capped size.

    States first seen below the stop get their values; the rest are
    reported unknown.  If some are, a stop at a capped size ends the result
    at the last completed size with the cap message, and so does the
    population limit.  Each level holds one transient of 2 bytes per
    (frontier row, state): the row's uint16 size where the state occurs.
    """
    n_cap, node_cap = operator.index(n_cap), operator.index(node_cap)
    if n_cap < 1:
        raise ValueError("n_cap must be >= 1")
    if node_cap < 1:
        raise ValueError("node_cap must be >= 1")
    n_max = min(n_cap, MAX_POPULATION)
    fixpoint = occurrence_upper_bounds(p)
    full = len(fixpoint) == p.num_states
    least = np.full(p.num_states, n_max + 1, dtype=np.uint16)
    least[p.q_init] = 1
    occurred = 1
    nodes = np.zeros(n_max + 1, dtype=np.int64)
    hi = 0
    stop = n_max + 1  # the sweep reads no size from here on
    while stop > hi + 1:
        # A wave holds no size from the stop on.
        lo, hi = hi + 1, min(2 * hi if hi else max(fixpoint.values()), stop - 1)
        size = np.arange(lo, hi + 1, dtype=np.uint16)
        search = _LevelSearch(p, hi, size, edges=False)
        nodes[size] = 1
        while len(size):
            new_from, _ = search.expand()
            size = size.take(new_from)
            nodes += np.bincount(size, minlength=n_max + 1)
            seen = np.where(search.cnt, size[:, None], n_max + 1).min(axis=0, initial=n_max + 1)
            np.minimum(least, seen, out=least)
            # The first size over the cap, if any: counts only grow, and
            # size 0 has no nodes, so an argmax of 0 means none is over.
            new_stop = min(stop, int((nodes > node_cap).argmax()) or stop)
            found = least.tolist()  # a few states: lists beat numpy calls here
            if full and occurred < len(found) - found.count(n_max + 1):
                seeds = {q: v for q, v in enumerate(found) if v <= n_max}
                occurred = len(seeds)
                new_stop = min(new_stop, max(_additive_fixpoint(p, seeds).values()) + 1)
            # New rows descend from rows below the stop, so rows need
            # pruning only when the stop moves down.
            if new_stop < stop:
                stop = new_stop
                keep = size < stop
                search.prune(keep)
                size = size[keep]
    values = {q: v for v, q in sorted(zip(least.tolist(), range(p.num_states))) if v < stop}
    cap_error: str | None = None
    if len(values) == p.num_states:
        done = n_cap
    elif stop <= n_max:
        done, cap_error = stop - 1, _cap_message(p, stop, node_cap)
    else:
        done = n_max
        if n_max < n_cap:
            cap_error = f"population limit n={MAX_POPULATION} reached with states unknown"
    for q, v in values.items():
        ub = fixpoint.get(q)
        if ub is not None and v > ub:
            raise RuntimeError(
                f"cross-check failed for {p.name!r}: state {p.display(q)} "
                f"first occurs at n={v} but the additive bound is {ub}"
            )
    for q, ub in fixpoint.items():
        if ub <= done and q not in values:
            raise RuntimeError(
                f"cross-check failed for {p.name!r}: state {p.display(q)} "
                f"has additive bound {ub} <= {done} but never occurred"
            )
    unknown = frozenset(range(p.num_states)) - values.keys()
    return OccurrenceMap(
        protocol=p, n_cap=done, values=values, unknown=unknown, cap_error=cap_error
    )


def check_doubling_gaps(om: OccurrenceMap) -> Verdict:
    """Consecutive distinct finite occurrence thresholds at most double.

    Fails with the witness pair ``(smaller, larger)`` if some gap exceeds
    a factor of two — which for a sound protocol would contradict the
    additive-combination argument.
    """
    vals = sorted(set(om.values.values()))
    for lo, hi in zip(vals, vals[1:]):
        if hi > 2 * lo:
            return Verdict("fails", (lo, hi))
    return HOLDS


def check_state_lower_bound(p: Protocol, d: int) -> Verdict:
    """Any 1-aware protocol for threshold ``d`` needs ``log2(d) + 1`` states.

    Checked in integers: holds iff ``2**(|Q| - 1) >= d``.  The witness on
    failure is ``(|Q|, d)``.  A threshold below 1 raises
    :class:`~flockpp.protocols.InvalidThreshold`.
    """
    threshold_params(d)
    if 2 ** (p.num_states - 1) >= d:
        return HOLDS
    return Verdict("fails", (p.num_states, d))
