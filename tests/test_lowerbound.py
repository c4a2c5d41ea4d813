"""Occurrence thresholds, doubling gaps, and the state-count lower bound."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import flockpp as fp
from oracle import occurrence_by_sizes, occurrence_by_sweep
from test_core import nontrivial_protocols, small_protocols, wide_protocols

A7_FMAP = {
    "NB(1)": 1,
    "NB(2)": 2,
    "NB(4)": 4,
    "B(0)": 2,
    "B(1)": 4,
    "B(2)": 6,
    "FINAL": 7,
}


def test_occurrence_map_a7() -> None:
    om = fp.occurrence_thresholds(fp.build_protocol_a(7), 9)
    assert om.by_name() == A7_FMAP
    assert om.unknown == frozenset()
    assert om.cap_error is None


SWEEP_GRID = [
    (fam, d)
    for d in range(2, 8)
    for fam in ("angluin", "a", "pow2", "b")
    if not (fam == "pow2" and d & (d - 1))
    and not (fam == "b" and (d < 3 or d & (d - 1) == 0))
]


@pytest.mark.parametrize("fam,d", SWEEP_GRID)
def test_occurrence_agrees_with_reference(fam: str, d: int) -> None:
    # The reference sweeps agent-indexed populations of size <= 6; the
    # package values must match wherever the reference saw the state.
    p = fp.build_family(fam, d)
    om = fp.occurrence_thresholds(p, 6)
    want = occurrence_by_sweep(p, 6)
    assert om.values == want
    assert om.unknown == frozenset(s.index for s in p.states) - want.keys()


@pytest.mark.parametrize("fam,d", [
    (fam, d)
    for d in range(2, 13)
    for fam in ("angluin", "a", "pow2", "b", "best")
    if not (fam == "pow2" and d & (d - 1))
    and not (fam == "b" and (d < 3 or d & (d - 1) == 0))
])
def test_initial_state_at_one_and_accepting_at_d(fam: str, d: int) -> None:
    p = fp.build_family(fam, d)
    om = fp.occurrence_thresholds(p, d + 2)
    assert om.values[p.q_init] == 1
    (q1,) = p.q1
    assert om.values[q1] == d
    # At tiny thresholds the very first merge already certifies (d = 2) or
    # mints the overshoot payback (b at d = 3), so the pooled-out state
    # (empty pile or bankrupt marker) is dead.
    dead = {
        ("angluin", 2): "COINS(0)",
        ("pow2", 2): "B",
        ("best", 2): "B",
        ("b", 3): "B",
        ("best", 3): "B",
    }.get((fam, d))
    if dead is not None:
        assert om.unknown == frozenset({p.state_named(dead)})
    else:
        assert om.unknown == frozenset()
    assert fp.check_doubling_gaps(om).holds
    assert fp.check_state_lower_bound(p, d).holds


#: Sizes 1-4 reach 1, 2, 4 and 7 nodes.  At a node cap of 2, size 2 meets
#: the cap without passing it.  At a cap of 3 the wave of sizes 3-4 finds
#: size 4 capped first, so the stop moves to 4; size 3, the last size the
#: sweep then reads, must still be searched, since it too passes the cap.
LATE_STATE = fp.make_protocol(
    "late", ["S0", "S1", "S2", "S3"], "S0", [],
    {("S0", "S0"): [("S2", "S1")], ("S2", "S0"): [("S0", "S0")]},
    deterministic=False,
)


@given(
    st.one_of(small_protocols(), nontrivial_protocols(), wide_protocols()),
    st.integers(1, 50),
    st.one_of(st.integers(1, 20), st.integers(250, 300)),
)
@example(LATE_STATE, 2, 4)
@example(LATE_STATE, 3, 4)
def test_occurrence_thresholds_match_a_naive_sweep(p: fp.Protocol, node_cap: int, n_cap: int) -> None:
    # Node caps of 1-50 stop the sweep at some size on most protocols, and
    # n_cap above the population limit makes it stop there on the rest.
    om = fp.occurrence_thresholds(p, n_cap, node_cap)
    values, done, capped = occurrence_by_sizes(p, n_cap, node_cap, fp.MAX_POPULATION)
    assert (om.values, om.n_cap) == (values, done)
    assert om.unknown == frozenset(range(p.num_states)) - values.keys()
    if capped is not None:
        assert om.cap_error == f"reachability closure of {p.name!r} at n={capped} exceeds node cap {node_cap}"
    elif done < n_cap:
        assert om.cap_error == f"population limit n={fp.MAX_POPULATION} reached with states unknown"
    else:
        assert om.cap_error is None


def test_occurrence_values_dominated_by_fixpoint_bound() -> None:
    for fam, d in SWEEP_GRID:
        p = fp.build_family(fam, d)
        om = fp.occurrence_thresholds(p, d + 2)
        ub = fp.occurrence_upper_bounds(p)
        for q, v in om.values.items():
            assert q in ub
            assert v <= ub[q]


def test_fixpoint_bound_a7_exact_values() -> None:
    p = fp.build_protocol_a(7)
    ub = {p.display(q): v for q, v in fp.occurrence_upper_bounds(p).items()}
    # The additive bound over-counts where one witness agent plays two
    # roles, e.g. B(1) truly appears at 4 but the bound pays 4 + 2.
    assert ub == {
        "NB(1)": 1, "NB(2)": 2, "NB(4)": 4, "B(0)": 2,
        "B(1)": 6, "B(2)": 8, "FINAL": 8,
    }


def test_small_n_cap_leaves_unknowns() -> None:
    p = fp.build_protocol_a(7)
    om = fp.occurrence_thresholds(p, 2)
    assert om.by_name() == {
        "NB(1)": 1, "NB(2)": 2, "B(0)": 2,
        "NB(4)": None, "B(1)": None, "B(2)": None, "FINAL": None,
    }
    assert om.unknown == frozenset(
        p.state_named(s) for s in ("NB(4)", "B(1)", "B(2)", "FINAL")
    )
    assert om.cap_error is None
    # With unknowns the gap check can still pass on what is known.
    assert fp.check_doubling_gaps(om).holds


def test_node_cap_abort_keeps_completed_prefix() -> None:
    p = fp.build_protocol_a(7)
    om = fp.occurrence_thresholds(p, 9, node_cap=3)
    assert om.cap_error is not None
    assert "n=4" in om.cap_error
    assert om.n_cap == 3  # last size fully explored
    assert om.values[p.q_init] == 1
    assert om.by_name()["NB(2)"] == 2


def test_sweep_exits_early_once_all_states_seen() -> None:
    import time

    p = fp.build_protocol_a(7)
    t0 = time.perf_counter()
    om = fp.occurrence_thresholds(p, 10_000)
    assert time.perf_counter() - t0 < 1.0
    assert om.unknown == frozenset()
    assert om.n_cap == 10_000


def test_sweep_stops_at_population_limit() -> None:
    # Z never occurs, so a sweep asked for sizes past the limit reads every
    # size it can and reports the limit instead of raising.
    q = fp.make_protocol("dead", ["X", "Y", "Z"], "X", ["Z"], {("X", "X"): [("Y", "X")]})
    for n_cap in (fp.MAX_POPULATION, fp.MAX_POPULATION + 1, 300):
        om = fp.occurrence_thresholds(q, n_cap)
        assert om.values == {0: 1, 1: 2}
        assert om.unknown == frozenset({2})
        assert om.n_cap == fp.MAX_POPULATION
        if n_cap == fp.MAX_POPULATION:
            assert om.cap_error is None
        else:
            assert f"population limit n={fp.MAX_POPULATION}" in om.cap_error


def test_occurrence_thresholds_rejects_bad_n_cap() -> None:
    with pytest.raises(ValueError):
        fp.occurrence_thresholds(fp.build_protocol_a(7), 0)
    with pytest.raises(TypeError):
        fp.occurrence_thresholds(fp.build_protocol_a(7), 9.5)
    with pytest.raises(TypeError):
        fp.occurrence_thresholds(fp.build_protocol_a(7), 9, node_cap=1e6)


def test_occurrence_thresholds_from_numpy_integer_sizes() -> None:
    p = fp.build_protocol_a(7)
    for node_cap in (3, 1000):
        want = fp.occurrence_thresholds(p, 9, node_cap=node_cap)
        assert fp.occurrence_thresholds(p, np.int64(9), node_cap=np.int64(node_cap)) == want


def test_doubling_gap_failure_on_synthetic_map() -> None:
    q = fp.make_protocol("two", ["A", "B"], "A", ["B"], {("A", "A"): [("A", "B")]})
    synth = fp.OccurrenceMap(protocol=q, n_cap=5, values={0: 1, 1: 3}, unknown=frozenset())
    v = fp.check_doubling_gaps(synth)
    assert v.failed
    assert v.witness == (1, 3)


def test_doubling_gap_holds_on_exact_doubling() -> None:
    q = fp.make_protocol("two", ["A", "B"], "A", ["B"], {("A", "A"): [("A", "B")]})
    synth = fp.OccurrenceMap(protocol=q, n_cap=5, values={0: 1, 1: 2}, unknown=frozenset())
    assert fp.check_doubling_gaps(synth).holds


def test_state_lower_bound_failure() -> None:
    q = fp.make_protocol("two", ["A", "B"], "A", ["B"], {("A", "A"): [("A", "B")]})
    v = fp.check_state_lower_bound(q, 3)
    assert v.failed
    assert v.witness == (2, 3)
    assert fp.check_state_lower_bound(q, 2).holds


def test_state_lower_bound_families_wide() -> None:
    # Angluin's table is quadratic in d, so keep it to moderate thresholds;
    # the compact families stay cheap out to 4096.
    for d in (2, 3, 17, 64, 100, 4096):
        for fam in ("angluin", "a", "pow2", "b", "best"):
            if fam == "angluin" and d > 100:
                continue
            if fam == "pow2" and d & (d - 1):
                continue
            if fam == "b" and (d < 3 or d & (d - 1) == 0):
                continue
            assert fp.check_state_lower_bound(fp.build_family(fam, d), d).holds
