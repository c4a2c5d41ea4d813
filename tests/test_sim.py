"""Seeded simulation: reproducibility, convergence reporting, guard rails."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

import flockpp as fp
from flockpp.sim import RNG_ALGORITHM, SPOT_CHECK_EVERY, SimReport
from oracle import stepwise_run, unanimous_in
from test_core import nontrivial_protocols, small_protocols

#: Endlessly active: every configuration reachable with three agents has a
#: productive encounter.
OSC = fp.make_protocol(
    "osc", ["X", "Y"], "X", ["X"],
    {("X", "X"): [("X", "Y")], ("Y", "X"): [("X", "X")], ("X", "Y"): [("X", "X")]},
)


def test_same_seed_same_report() -> None:
    p = fp.build_protocol_b(7)
    a = fp.run(p, 9, seed=1234, max_steps=20_000)
    b = fp.run(p, 9, seed=1234, max_steps=20_000)
    assert a == b


def test_different_seeds_differ_somewhere() -> None:
    p = fp.build_protocol_b(7)
    reports = [fp.run(p, 9, seed=s, max_steps=20_000) for s in range(8)]
    assert len({r.convergence_step for r in reports}) > 1


def test_b7_converges_to_all_accepting() -> None:
    p = fp.build_protocol_b(7)
    fin = p.state_named("FINAL")
    for seed in (0, 1, 2):
        r = fp.run(p, 7, seed=seed, max_steps=200_000)
        assert r.converged
        assert r.converged_value == 1
        assert r.final_configuration == fp.Configuration.from_pairs({fin: 7})
        assert r.ever_emitted_q1
        assert r.convergence_step is not None and 0 < r.convergence_step <= r.steps_taken
        assert r.steps_taken == 200_000
        assert r.rng == RNG_ALGORITHM
        assert r.protocol_name == "b(d=7)"


def test_below_threshold_never_emits_and_verifier_agrees() -> None:
    p = fp.build_protocol_b(7)
    for n in range(1, 7):
        assert fp.check_soundness(fp.reach(p, n)).holds
        for seed in range(5):
            r = fp.run(p, n, seed=seed, max_steps=50_000)
            assert not r.ever_emitted_q1
            assert r.converged
            assert r.converged_value == 0


def test_single_agent_has_no_encounters() -> None:
    p = fp.build_protocol_b(7)
    r = fp.run(p, 1, seed=7, max_steps=1000)
    assert r.steps_taken == 0
    assert r.converged
    assert r.convergence_step == 0
    assert r.converged_value == 0
    assert r.final_configuration == fp.initial_configuration(p, 1)
    assert not r.ever_emitted_q1


def test_absorbing_configuration_fast_forwards() -> None:
    # No rules at all: I_2 is absorbing from step zero, yet the report
    # still accounts for the full horizon.
    p = fp.make_protocol("inert", ["A"], "A", [], {})
    r = fp.run(p, 2, seed=0, max_steps=500)
    assert r.steps_taken == 500
    assert r.converged
    assert r.convergence_step == 0
    assert r.converged_value == 0
    assert r.final_configuration == fp.initial_configuration(p, 2)


def test_stuck_mixed_configuration_reports_no_convergence() -> None:
    # A+A demotes one agent and then nothing is enabled: the run ends in a
    # half-accepting configuration and must not be reported as converged.
    p = fp.make_protocol("halfway", ["A", "B"], "A", ["A"], {("A", "A"): [("A", "B")]})
    r = fp.run(p, 2, seed=3, max_steps=500)
    assert r.steps_taken == 500
    assert not r.converged
    assert r.convergence_step is None
    assert r.converged_value is None
    assert r.ever_emitted_q1  # the initial configuration is all-accepting
    assert r.final_configuration == fp.Configuration.from_pairs({0: 1, 1: 1})


def test_long_run_survives_spot_checks() -> None:
    # An endlessly active protocol driven well past several self-check
    # points; the run must not trip the trajectory validation.
    r = fp.run(OSC, 3, seed=9, max_steps=5 * SPOT_CHECK_EVERY)
    assert r.steps_taken == 5 * SPOT_CHECK_EVERY
    assert r.final_configuration.n == 3


def test_unanimity_must_persist_to_count() -> None:
    # This dance passes through all-X configurations without settling; the
    # streak accounting must only report convergence if the horizon config
    # is unanimous and the streak is unbroken to the end.
    for seed in range(6):
        r = fp.run(OSC, 3, seed=seed, max_steps=997)
        final = r.final_configuration
        unanimous = unanimous_in(final, OSC.q1) or unanimous_in(final, OSC.q0)
        assert r.converged == unanimous
        if r.converged:
            assert r.convergence_step is not None


def test_run_rejects_bad_arguments() -> None:
    p = fp.build_protocol_b(7)
    with pytest.raises(ValueError):
        fp.run(p, 0, seed=1)
    with pytest.raises(ValueError):
        fp.run(p, 256, seed=1)
    with pytest.raises(ValueError):
        fp.run(p, 3, seed=1, max_steps=0)
    with pytest.raises(TypeError):
        fp.run(p, 7.5, seed=1)
    with pytest.raises(TypeError):
        fp.run(p, 9, seed=1, max_steps=1e3)


def test_run_from_a_numpy_integer_size() -> None:
    p = fp.build_protocol_b(7)
    want = fp.run(p, 9, seed=3, max_steps=5000)
    got = fp.run(p, np.int64(9), seed=3, max_steps=np.int64(5000))
    assert (type(got.max_steps), type(got.steps_taken)) == (int, int)
    assert got == want


# -- the seeded trajectory contract -------------------------------------------


def test_pinned_trajectories() -> None:
    # Literal reports of the plain randrange-and-scan loop, recorded before
    # the loop was inlined; they fix the trajectory of a seed independently
    # of tests/oracle.py.
    assert fp.run(fp.build_protocol_b(7), 9, seed=1234, max_steps=20_000) == SimReport(
        protocol_name="b(d=7)",
        n=9,
        seed=1234,
        max_steps=20_000,
        steps_taken=20_000,
        converged=True,
        convergence_step=102,
        converged_value=1,
        ever_emitted_q1=True,
        final_configuration=fp.Configuration.from_pairs({4: 9}),
    )
    assert fp.run(fp.build_family("a", 250), 255, seed=2024, max_steps=100_000) == SimReport(
        protocol_name="a(d=250)",
        n=255,
        seed=2024,
        max_steps=100_000,
        steps_taken=100_000,
        converged=True,
        convergence_step=0,
        converged_value=0,
        ever_emitted_q1=False,
        final_configuration=fp.Configuration.from_pairs(
            {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 223, 9: 20, 10: 3, 11: 1}
        ),
    )


#: (family, d): each family at a size where its runs neither absorb at once
#: nor take long.
ORACLE_FAMILIES = [("a", 13), ("b", 7), ("pow2", 16), ("angluin", 5)]


@pytest.mark.parametrize("fam,d", ORACLE_FAMILIES)
def test_run_matches_stepwise_oracle_on_families(fam: str, d: int) -> None:
    p = fp.build_family(fam, d)
    for n in sorted({2, 3, d - 1, d, d + 1, 255}):
        for seed, budget in ((0, 2_345), (1, 999), (2, 1)):
            assert fp.run(p, n, seed, budget) == stepwise_run(p, n, seed, budget)


def test_run_matches_stepwise_oracle_on_small_protocols() -> None:
    inert = fp.make_protocol("inert", ["A"], "A", [], {})
    halfway = fp.make_protocol("halfway", ["A", "B"], "A", ["A"], {("A", "A"): [("A", "B")]})
    for p in (inert, halfway, OSC):
        for n in (2, 3, 5):
            for seed in range(3):
                budget = 3 * SPOT_CHECK_EVERY + 7
                assert fp.run(p, n, seed, budget) == stepwise_run(p, n, seed, budget)


@given(small_protocols(), st.integers(1, 12), st.integers(0, 2**32 - 1), st.integers(1, 2_500))
def test_run_matches_stepwise_oracle_on_random_protocols(
    p: fp.Protocol, n: int, seed: int, budget: int
) -> None:
    # Nondeterministic cells draw a third number per step, and swap results
    # such as (a, b) -> (b, a) move no agent between states.
    assert fp.run(p, n, seed, budget) == stepwise_run(p, n, seed, budget)


@given(nontrivial_protocols(), st.integers(2, 12), st.integers(0, 2**32 - 1), st.integers(1, 2_500))
def test_run_matches_stepwise_oracle_on_nontrivial_protocols(
    p: fp.Protocol, n: int, seed: int, budget: int
) -> None:
    assert fp.run(p, n, seed, budget) == stepwise_run(p, n, seed, budget)
