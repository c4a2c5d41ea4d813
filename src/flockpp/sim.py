"""Seeded random simulation of protocol runs.

The scheduler draws an ordered pair of distinct agents uniformly at random
each step (so an ordered state pair ``(q_a, q_b)`` is drawn with probability
proportional to ``count(q_a) * count(q_b)``, or ``count * (count - 1)`` on
the diagonal) and applies one uniformly chosen entry of
``delta(q_a, q_b)``.  Runs are reproducible: the trajectory is a pure
function of (protocol, n, seed, max_steps).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .core import Configuration, Protocol, _check_population, successors

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
    """
    _check_population(n)
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
        for a, b, _has_id, _apps in p._cells:
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
        stuck = absorbing()
        step = 0
        while step < max_steps and not stuck:
            step += 1
            check = step % SPOT_CHECK_EVERY == 0
            before = snapshot() if check else None

            # Draw an ordered pair of distinct agents uniformly.
            x = rng.randrange(n)
            qa = 0
            acc = counts[0]
            while acc <= x:
                qa += 1
                acc += counts[qa]
            y = rng.randrange(n - 1)
            qb = 0
            acc = counts[0] - (qa == 0)
            while acc <= y:
                qb += 1
                acc += counts[qb] - (qa == qb)
            cell = p.delta_of(qa, qb)
            qc, qd = cell[0] if len(cell) == 1 else cell[rng.randrange(len(cell))]

            if (qc, qd) != (qa, qb):
                counts[qa] -= 1
                counts[qb] -= 1
                counts[qc] += 1
                counts[qd] += 1
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
