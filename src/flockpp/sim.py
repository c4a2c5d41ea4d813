"""Seeded random simulation of protocol runs.

The scheduler draws an ordered pair of distinct agents uniformly at random
each step (so an ordered state pair ``(q_a, q_b)`` is drawn with probability
proportional to ``count(q_a) * count(q_b)``, or ``count * (count - 1)`` on
the diagonal) and applies one uniformly chosen entry of
``delta(q_a, q_b)``.  Runs are reproducible: the trajectory is a pure
function of (protocol, n, seed, max_steps).

Each step consumes the generator as ``randrange(n)`` (the first agent),
then ``randrange(n - 1)`` (the second agent, among the others), then
``randrange(len(cell))`` only when the cell ``delta(q_a, q_b)`` has more
than one result.  The draws are inlined as CPython's ``randrange`` makes
them (``getrandbits(m.bit_length())``, redrawn while ``>= m``), so a seed
gives the same trajectory as those three calls would.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from random import Random

from .core import Configuration, Pair, Protocol, _check_population, successors

__all__ = ["SimReport", "run"]

#: Algorithm identifier recorded in every report: CPython's stdlib Mersenne
#: Twister, which is stable across platforms and versions.
RNG_ALGORITHM = "cpython-random-mt19937"

#: Steps between trajectory self-checks against :func:`core.successors`.
SPOT_CHECK_EVERY = 1000


@dataclass(frozen=True)
class SimReport:
    """Outcome of one simulated run.

    ``converged`` means the configuration was output-unanimous (all agents
    in Q1, or all in Q0) at the horizon and unanimity on that same side held
    from ``convergence_step`` onward without interruption; transient
    unanimity does not count.  ``ever_emitted_q1`` is true if any agent was
    in an accepting state at any time, the initial configuration included.
    """

    protocol_name: str
    n: int
    seed: int
    max_steps: int
    steps_taken: int
    converged: bool
    convergence_step: int | None
    converged_value: int | None
    ever_emitted_q1: bool
    final_configuration: Configuration
    rng: str = RNG_ALGORITHM


def run(p: Protocol, n: int, seed: int, max_steps: int = 1_000_000) -> SimReport:
    """Simulate ``max_steps`` encounters among ``n`` agents.

    Once the configuration becomes absorbing (every enabled encounter is an
    identity in multiset terms) the remaining steps cannot change anything
    and are skipped; the report is identical to the full run except that the
    generator is not advanced through the skipped steps.  A population of
    one has no encounters at all and reports zero steps.  Every 1000th step
    is re-validated against :func:`flockpp.core.successors`.

    A step draws ``randrange(n)``, then ``randrange(n - 1)``, then
    ``randrange(len(cell))`` only on a nondeterministic cell; see the module
    docstring.
    """
    n = _check_population(n)
    max_steps = operator.index(max_steps)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    rng = Random(seed)
    nq = p.num_states
    counts = [0] * nq
    counts[p.q_init] = n
    in_q1 = [q in p.q1 for q in range(nq)]
    q1_agents = n if in_q1[p.q_init] else 0
    ever_q1 = q1_agents > 0

    def unanimity() -> int | None:
        if q1_agents == n:
            return 1
        if q1_agents == 0:
            return 0
        return None

    def absorbing() -> bool:
        for a, b in p._rule_pairs:
            if a == b:
                if counts[a] >= 2:
                    return False
            elif counts[a] and counts[b]:
                return False
        return True

    def snapshot() -> Configuration:
        return Configuration.from_pairs({q: c for q, c in enumerate(counts) if c})

    value = unanimity()
    value_since = 0
    steps_taken = 0

    if n >= 2:
        # randrange(n) and randrange(n - 1), inlined as the module docstring says.
        bits = rng.getrandbits
        k_a, k_b, m = n.bit_length(), (n - 1).bit_length(), n - 1
        # table[a][b] is delta_of(a, b), or None for an unlisted (identity)
        # pair.  Rows that list no pair share one row of Nones, so a protocol
        # with many states and few rules does not cost nq * nq entries.
        unlisted: list[tuple[Pair, ...] | None] = [None] * nq
        table = [unlisted] * nq
        for a, b, cell in p.delta:
            if table[a] is unlisted:
                table[a] = [None] * nq
            table[a][b] = cell
        # ends[q] counts the agents in states 0..q; agent x is in state
        # bisect_right(ends, x).  Rebuilt only when a step moves agents.
        ends = list(accumulate(counts))
        stuck = absorbing()
        step = 0
        while step < max_steps and not stuck:
            step += 1
            check = step % SPOT_CHECK_EVERY == 0
            before = snapshot() if check else None

            # Draw an ordered pair of distinct agents uniformly: x among all n
            # agents, then y among the n - 1 others, skipping agent x, which
            # sits at index ends[qa] - 1 in the order that puts it last in qa.
            x = bits(k_a)
            while x >= n:
                x = bits(k_a)
            y = bits(k_b)
            while y >= m:
                y = bits(k_b)
            qa = bisect_right(ends, x)
            qb = bisect_right(ends, y if y < ends[qa] - 1 else y + 1)
            cell = table[qa][qb]
            if cell is not None:
                qc, qd = cell[0] if len(cell) == 1 else cell[rng.randrange(len(cell))]
                if qc != qa or qd != qb:
                    counts[qa] -= 1
                    counts[qb] -= 1
                    counts[qc] += 1
                    counts[qd] += 1
                    ends = list(accumulate(counts))
                    q1_agents += in_q1[qc] + in_q1[qd] - in_q1[qa] - in_q1[qb]
                    ever_q1 = ever_q1 or q1_agents > 0
                    new_value = unanimity()
                    if new_value != value:
                        value = new_value
                        value_since = step
                    stuck = absorbing()

            if check:
                after = snapshot()
                assert before is not None
                if after not in successors(p, before):
                    raise RuntimeError(
                        f"trajectory validation failed at step {step}: "
                        f"{after} is not a successor of {before}"
                    )
        # An absorbing configuration persists through any remaining steps.
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
        final_configuration=snapshot(),
    )
