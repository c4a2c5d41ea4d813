"""Constructors for threshold ("flock of birds") protocols.

All protocols here decide, for a fixed threshold ``d >= 1``, the predicate
"the population has at least ``d`` agents", and do so 1-aware: below the
threshold no agent ever enters an accepting state, at or above it every fair
run converges to all agents accepting.  Four constructions with different
state budgets:

* :func:`build_angluin` — the unary baseline.  Each agent holds up to
  ``d - 1`` coins; an encounter pools coins into one agent, and a pool of
  ``d`` converts both agents.  ``d + 1`` states.
* :func:`build_power_of_two` — for ``d = 2^m``, agents merge equal
  powers-of-two coin piles only.  ``m + 2`` states.
* :func:`build_protocol_a` — binary counting with a bankrupt counter that
  replays the binary expansion of ``d``: ``floor(log2 d) + e + 2`` states,
  where ``e`` is the number of ones in that expansion.
* :func:`build_protocol_b` — overshoot variant: counts up to
  ``2^(k+1) >= d`` and lets surplus agents re-enter as fresh coins,
  unwinding the binary expansion of the overshoot ``a = 2^(k+1) - d``:
  ``k + z + 2`` states, where ``z`` is the number of ones in ``a``
  (equivalently, the number of zeros in the ``k + 1``-digit binary
  expansion of ``d - 1``).

:func:`build_best` picks the smaller of the succinct constructions, hitting
``floor(log2 d) + min(e, z) + 2`` states.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .core import Protocol, make_protocol

__all__ = [
    "InvalidThreshold",
    "ThresholdParams",
    "threshold_params",
    "build_angluin",
    "build_power_of_two",
    "build_protocol_a",
    "build_protocol_b",
    "build_best",
    "FAMILIES",
    "build_family",
]


#: Encounter rules by state name, as :func:`flockpp.core.make_protocol` takes them.
_Rules = dict[tuple[str, str], list[tuple[str, str]]]


class InvalidThreshold(ValueError):
    """The requested threshold is outside a constructor's domain."""


@dataclass(frozen=True, slots=True)
class ThresholdParams:
    """Quantities derived from a threshold ``d``.

    * ``e`` — number of ones in the binary expansion of ``d``;
      ``i_list`` holds the corresponding exponents, descending, so
      ``d = sum(2**i for i in i_list)`` and ``len(i_list) == e``.
    * ``k`` — largest integer with ``2**k < d`` (``None`` for ``d = 1``).
    * ``a`` — overshoot ``2**(k+1) - d``; ``b_list`` holds its binary
      exponents, descending, and ``z = len(b_list)`` equals the number of
      zeros among the ``k + 1`` binary digits of ``d - 1``.
    """

    d: int
    e: int
    i_list: tuple[int, ...]
    k: int | None
    z: int | None
    a: int | None
    b_list: tuple[int, ...] | None


def _bits_desc(v: int) -> tuple[int, ...]:
    return tuple(i for i in range(v.bit_length() - 1, -1, -1) if v >> i & 1)


def threshold_params(d: int) -> ThresholdParams:
    d = operator.index(d)
    if d < 1:
        raise InvalidThreshold(f"threshold must be >= 1, got {d}")
    i_list = _bits_desc(d)
    if d == 1:
        return ThresholdParams(d=1, e=1, i_list=i_list, k=None, z=None, a=None, b_list=None)
    k = (d - 1).bit_length() - 1
    a = 2 ** (k + 1) - d
    b_list = _bits_desc(a)
    return ThresholdParams(d=d, e=len(i_list), i_list=i_list, k=k, z=len(b_list), a=a, b_list=b_list)


def _trivial(name: str, state: str) -> Protocol:
    """The d=1 protocol: every population of size >= 1 already satisfies the
    predicate, so a single accepting state with identity transitions is
    1-aware vacuously."""
    return make_protocol(
        name=name,
        state_names=[state],
        q_init=state,
        q1=[state],
        rules={},
    )


def _converts(rules: _Rules, final: str, others: list[str]) -> None:
    """``final`` converts every state in ``others`` that it meets, in either order."""
    for q in others:
        rules[(final, q)] = [(final, final)]
        rules[(q, final)] = [(final, final)]


def build_angluin(d: int) -> Protocol:
    """Unary baseline: coin pooling with ``d + 1`` states.

    States ``COINS(0) .. COINS(d-1)`` and ``CONV``; agents start with one
    coin.  When two agents hold ``x + y < d`` coins the richer one takes
    everything; when ``x + y >= d`` both convert, and ``CONV`` then spreads
    by contact.  ``Q1 = {CONV}``.
    """
    d = threshold_params(d).d
    if d == 1:
        return _trivial("angluin(d=1)", "CONV")
    coins = [f"COINS({x})" for x in range(d)]
    rules: _Rules = {}
    for x in range(d):
        for y in range(d):
            if x + y >= d:
                rules[(coins[x], coins[y])] = [("CONV", "CONV")]
            elif x >= y > 0:
                rules[(coins[x], coins[y])] = [(coins[x + y], coins[0])]
            elif 0 < x < y:
                rules[(coins[x], coins[y])] = [(coins[0], coins[x + y])]
    _converts(rules, "CONV", coins)
    return make_protocol(
        name=f"angluin(d={d})",
        state_names=coins + ["CONV"],
        q_init=coins[1],
        q1=["CONV"],
        rules=rules,
    )


def build_power_of_two(d: int) -> Protocol:
    """For ``d = 2^m``: merge equal coin piles, ``m + 2`` states.

    States ``NB(1), NB(2), .., NB(2^(m-1))``, ``B``, ``FINAL``.  Two piles
    of ``2^i`` merge into one pile of ``2^(i+1)`` plus a bankrupt; two piles
    of ``2^(m-1)`` convert directly (their union holds ``d`` coins), and
    ``FINAL`` spreads by contact.
    """
    d = threshold_params(d).d
    if d & (d - 1):
        raise InvalidThreshold(f"threshold {d} is not a power of two")
    if d == 1:
        return _trivial("pow2(d=1)", "FINAL")
    m = d.bit_length() - 1
    nb = [f"NB({2 ** i})" for i in range(m)]
    names = nb + ["B", "FINAL"]
    rules: _Rules = {}
    for i in range(m - 1):
        rules[(nb[i], nb[i])] = [(nb[i + 1], "B")]
    rules[(nb[m - 1], nb[m - 1])] = [("FINAL", "FINAL")]
    _converts(rules, "FINAL", names[:-1])
    return make_protocol(
        name=f"pow2(d={d})",
        state_names=names,
        q_init=nb[0],
        q1=["FINAL"],
        rules=rules,
    )


def build_protocol_a(d: int) -> Protocol:
    """Binary counting with a bankrupt counter: ``floor(log2 d) + e + 2`` states.

    Write ``d = 2^(i_1) + .. + 2^(i_e)`` with ``i_1 > .. > i_e``.  Non-bankrupt
    agents hold power-of-two piles ``NB(1) .. NB(2^(i_1))`` built by merging
    equal piles; each merge bankrupts one participant.  A bankrupt agent
    ``B(c)`` has already certified the partial sum ``2^(i_1) + .. + 2^(i_c)``:
    meeting a pile of exactly ``2^(i_(c+1))`` advances the counter, meeting
    the last needed pile (or any pile strictly between two consecutive
    certified sizes, which overshoots the remainder) converts, and any other
    pile resets the counter.  Conversion also happens when two maximal piles
    meet.  ``FINAL`` spreads by contact.
    """
    pr = threshold_params(d)
    d = pr.d
    if d == 1:
        return _trivial("a(d=1)", "FINAL")
    i1 = pr.i_list[0]
    e = pr.e
    nb = {i: f"NB({2 ** i})" for i in range(i1 + 1)}
    bk = [f"B({c})" for c in range(e)]
    names = [nb[i] for i in range(i1 + 1)] + bk + ["FINAL"]
    rules: _Rules = {}
    for i in range(i1):
        rules[(nb[i], nb[i])] = [(nb[i + 1], bk[0])]
    rules[(nb[i1], nb[i1])] = [("FINAL", "FINAL")]

    def advance(c: int, i: int) -> str:
        # B(c) meets NB(2^i): does the pile extend the certified prefix?
        if c < e - 1 and i == pr.i_list[c]:
            return bk[c + 1]
        if c == e - 1 and i == pr.i_list[e - 1]:
            return "FINAL"
        if c > 0 and pr.i_list[c - 1] > i > pr.i_list[c]:
            return "FINAL"  # pile alone exceeds what the suffix still needs
        return bk[0]

    for c in range(e):
        for i in range(i1 + 1):
            r = advance(c, i)
            if r != bk[c]:
                rules[(bk[c], nb[i])] = [(r, nb[i])]
                rules[(nb[i], bk[c])] = [(nb[i], r)]
    _converts(rules, "FINAL", names[:-1])
    return make_protocol(
        name=f"a(d={d})",
        state_names=names,
        q_init=nb[0],
        q1=["FINAL"],
        rules=rules,
    )


def build_protocol_b(d: int) -> Protocol:
    """Overshoot counting: ``k + z + 2`` states for ``d`` not a power of two.

    Merges equal piles up to ``2^k`` where ``2^k < d < 2^(k+1)``.  The merge
    producing the first ``2^k`` pile does not bankrupt its partner: the
    partner re-enters holding the overshoot ``a = 2^(k+1) - d`` coins, so two
    ``2^k`` piles jointly certify ``2^(k+1) - a = d``.  The overshoot is paid
    out as powers of two ``2^(b_1) > .. > 2^(b_z)``: while it is still split
    (``NS`` states), meeting a bankrupt peels off the smallest summand into
    that agent.  Two ``2^k`` piles convert, and ``FINAL`` spreads by contact.
    """
    d = operator.index(d)
    if d < 3:
        raise InvalidThreshold(f"overshoot construction needs d >= 3, got {d}")
    if d & (d - 1) == 0:
        raise InvalidThreshold(f"overshoot construction is undefined for powers of two (d={d})")
    pr = threshold_params(d)
    k, a, b_list, z = pr.k, pr.a, pr.b_list, pr.z
    assert k is not None and a is not None and b_list is not None and z is not None
    nb = {i: f"NB({2 ** i})" for i in range(k + 1)}
    # NS(v): an agent still holding the splittable overshoot remainder v.
    partial = {m: f"NS({sum(2 ** b_list[j] for j in range(m))})" for m in range(2, z + 1)}
    names = [nb[i] for i in range(k + 1)] + [partial[m] for m in range(2, z + 1)] + ["B", "FINAL"]

    def coins(m: int) -> str:
        # Agent holding the first m overshoot summands, as a single state.
        return partial[m] if m >= 2 else nb[b_list[0]]

    rules: _Rules = {}
    for i in range(k - 1):
        rules[(nb[i], nb[i])] = [(nb[i + 1], "B")]
    rules[(nb[k - 1], nb[k - 1])] = [(nb[k], coins(z))]
    rules[(nb[k], nb[k])] = [("FINAL", "FINAL")]
    for m in range(2, z + 1):
        rules[(partial[m], "B")] = [(coins(m - 1), nb[b_list[m - 1]])]
        rules[("B", partial[m])] = [(nb[b_list[m - 1]], coins(m - 1))]
    _converts(rules, "FINAL", names[:-1])
    return make_protocol(
        name=f"b(d={d})",
        state_names=names,
        q_init=nb[0],
        q1=["FINAL"],
        rules=rules,
    )


def _constructions(d: int) -> dict[str, Protocol]:
    """The succinct constructions that apply to ``d``, keyed by family, in
    tie-break order: the overshoot construction (when ``d >= 3`` is not a
    power of two), the power-of-two construction (when ``d`` is one), and
    the binary-counting construction (always)."""
    threshold_params(d)  # raises InvalidThreshold for d < 1
    out: dict[str, Protocol] = {}
    if d >= 3 and d & (d - 1):
        out["b"] = build_protocol_b(d)
    if d & (d - 1) == 0:
        out["pow2"] = build_power_of_two(d)
    out["a"] = build_protocol_a(d)
    return out


def build_best(d: int) -> Protocol:
    """The fewest-states construction available for ``d``; ties prefer the
    earlier one in :func:`_constructions` order (overshoot first)."""
    return min(_constructions(d).values(), key=lambda p: p.num_states)


#: CLI family keys, in presentation order.
FAMILIES = ("angluin", "a", "b", "pow2", "best")

_BUILDERS = {
    "angluin": build_angluin,
    "a": build_protocol_a,
    "b": build_protocol_b,
    "pow2": build_power_of_two,
    "best": build_best,
}


def build_family(family: str, d: int) -> Protocol:
    """Dispatch a family key from :data:`FAMILIES`."""
    try:
        builder = _BUILDERS[family]
    except KeyError:
        raise InvalidThreshold(f"unknown family {family!r}") from None
    return builder(d)
