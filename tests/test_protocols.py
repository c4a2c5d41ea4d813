"""Threshold parameters and the four protocol constructors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

import flockpp as fp


# -- threshold parameters ----------------------------------------------------


@pytest.mark.parametrize(
    "d,e,i_list,k,z,a,b_list",
    [
        (1, 1, (0,), None, None, None, None),
        (2, 1, (1,), 0, 0, 0, ()),
        (5, 2, (2, 0), 2, 2, 3, (1, 0)),
        (7, 3, (2, 1, 0), 2, 1, 1, (0,)),
        (8, 1, (3,), 2, 0, 0, ()),
        (11, 3, (3, 1, 0), 3, 2, 5, (2, 0)),
        (33, 2, (5, 0), 5, 5, 31, (4, 3, 2, 1, 0)),
        (4096, 1, (12,), 11, 0, 0, ()),
    ],
)
def test_params_spot_values(d, e, i_list, k, z, a, b_list) -> None:
    pr = fp.threshold_params(d)
    assert (pr.d, pr.e, pr.i_list, pr.k, pr.z, pr.a, pr.b_list) == (
        d, e, i_list, k, z, a, b_list,
    )


@given(st.integers(2, 1 << 20))
def test_params_arithmetic_invariants(d: int) -> None:
    pr = fp.threshold_params(d)
    assert pr.e == bin(d).count("1")
    assert sum(1 << i for i in pr.i_list) == d
    assert list(pr.i_list) == sorted(pr.i_list, reverse=True)
    # d sits in (2^k, 2^(k+1)].
    assert (1 << pr.k) < d <= (1 << (pr.k + 1))
    assert pr.a == (1 << (pr.k + 1)) - d
    assert sum(1 << i for i in pr.b_list) == pr.a
    assert pr.z == len(pr.b_list) == bin(pr.a).count("1")
    assert all(i <= pr.k - 1 for i in pr.b_list)
    # z counts the zero digits among the k+1 binary digits of d-1.
    assert pr.z == format(d - 1, "b").zfill(pr.k + 1).count("0")
    assert pr.e + pr.z <= pr.k + 2


@pytest.mark.parametrize("d", [0, -1])
def test_params_rejects_nonpositive(d: int) -> None:
    with pytest.raises(fp.InvalidThreshold):
        fp.threshold_params(d)


def test_params_take_integer_thresholds_only() -> None:
    with pytest.raises(TypeError):
        fp.threshold_params(7.0)
    assert fp.threshold_params(np.int64(7)) == fp.threshold_params(7)


# -- state counts ------------------------------------------------------------


def test_state_count_formulas_exhaustive() -> None:
    for d in range(2, 65):
        pr = fp.threshold_params(d)
        assert fp.build_angluin(d).num_states == d + 1
        # floor(log2 d) + e + 2
        assert fp.build_protocol_a(d).num_states == (d.bit_length() - 1) + pr.e + 2
        if d & (d - 1) == 0:
            # log2 d + 2
            assert fp.build_power_of_two(d).num_states == d.bit_length() + 1
        else:
            assert fp.build_protocol_b(d).num_states == pr.k + pr.z + 2


@pytest.mark.parametrize(
    "fam,d,count",
    [
        ("angluin", 7, 8),
        ("angluin", 1, 1),
        ("pow2", 8, 5),
        ("pow2", 4096, 14),
        ("a", 7, 7),
        ("a", 33, 9),
        ("a", 1, 1),
        ("b", 7, 5),
        ("b", 33, 12),
        ("b", 4095, 14),
        ("best", 7, 5),
        ("best", 4096, 14),
    ],
)
def test_state_count_spots(fam: str, d: int, count: int) -> None:
    assert fp.build_family(fam, d).num_states == count


# -- generic invariants over all constructors --------------------------------

GRID = [
    (fam, d)
    for d in range(1, 33)
    for fam in ("angluin", "a", "pow2", "b", "best")
    if not (fam == "pow2" and d & (d - 1))
    and not (fam == "b" and (d < 3 or d & (d - 1) == 0))
]


@pytest.mark.parametrize("fam,d", GRID)
def test_family_protocols_are_wellformed(fam: str, d: int) -> None:
    p = fp.build_family(fam, d)
    p.validate()
    assert p.deterministic
    # Exactly one accepting state, and it converts every encounter partner.
    assert len(p.q1) == 1
    q1 = next(iter(p.q1))
    for s in p.states:
        if s.index == q1:
            continue
        assert p.delta_of(q1, s.index) == ((q1, q1),)
        assert p.delta_of(s.index, q1) == ((q1, q1),)
    # Off-diagonal symmetry: responder and initiator see mirrored outcomes.
    for x in p.states:
        for y in p.states:
            if x.index == y.index:
                continue
            fwd = p.delta_of(x.index, y.index)
            back = p.delta_of(y.index, x.index)
            assert tuple((b, a) for a, b in fwd) == back


def test_build_family_rejects_unknown() -> None:
    with pytest.raises(ValueError):
        fp.build_family("nope", 7)


@pytest.mark.parametrize("fam", fp.FAMILIES)
def test_builders_take_integer_thresholds_only(fam: str) -> None:
    d = 8 if fam == "pow2" else 7
    with pytest.raises(TypeError):
        fp.build_family(fam, float(d))
    assert fp.build_family(fam, np.int64(d)) == fp.build_family(fam, d)


# -- angluin -----------------------------------------------------------------


def test_angluin_rules() -> None:
    p = fp.build_angluin(7)
    c = {i: p.state_named(f"COINS({i})") for i in range(7)}
    conv = p.state_named("CONV")
    assert p.q_init == c[1]
    assert p.q1 == frozenset({conv})
    # Richer pile absorbs; ties to the first agent.
    assert p.delta_of(c[3], c[2]) == ((c[5], c[0]),)
    assert p.delta_of(c[2], c[3]) == ((c[0], c[5]),)
    assert p.delta_of(c[3], c[3]) == ((c[6], c[0]),)
    # Empty piles are inert.
    assert p.delta_of(c[0], c[4]) == ((c[0], c[4]),)
    # Reaching the threshold converts both.
    assert p.delta_of(c[4], c[3]) == ((conv, conv),)
    assert p.delta_of(c[6], c[6]) == ((conv, conv),)


def test_angluin_d1() -> None:
    # One agent holding one coin already meets a threshold of 1.
    p = fp.build_angluin(1)
    assert [s.name for s in p.states] == ["CONV"]
    assert p.q1 == frozenset({p.q_init})


# -- power of two ------------------------------------------------------------


def test_pow2_rules() -> None:
    p = fp.build_power_of_two(8)
    nb = {v: p.state_named(f"NB({v})") for v in (1, 2, 4)}
    b, fin = p.state_named("B"), p.state_named("FINAL")
    assert p.q_init == nb[1]
    assert p.delta_of(nb[1], nb[1]) == ((nb[2], b),)
    assert p.delta_of(nb[2], nb[2]) == ((nb[4], b),)
    assert p.delta_of(nb[4], nb[4]) == ((fin, fin),)
    # Unequal piles never merge.
    assert p.delta_of(nb[1], nb[2]) == ((nb[1], nb[2]),)
    assert p.delta_of(nb[4], b) == ((nb[4], b),)


def test_pow2_rejects_non_powers() -> None:
    for d in (0, 3, 6, 12):
        with pytest.raises(fp.InvalidThreshold):
            fp.build_power_of_two(d)


def test_pow2_d1_and_d2() -> None:
    assert fp.build_power_of_two(1).num_states == 1
    p = fp.build_power_of_two(2)
    assert [s.name for s in p.states] == ["NB(1)", "B", "FINAL"]
    nb1 = p.state_named("NB(1)")
    assert p.delta_of(nb1, nb1) == ((p.state_named("FINAL"), p.state_named("FINAL")),)


# -- protocol a --------------------------------------------------------------


def test_protocol_a_full_table_d7() -> None:
    p = fp.build_protocol_a(7)
    assert [s.name for s in p.states] == [
        "NB(1)", "NB(2)", "NB(4)", "B(0)", "B(1)", "B(2)", "FINAL",
    ]
    s = {q.name: q.index for q in p.states}

    def cell(x: str, y: str) -> tuple[str, str]:
        ((a, b),) = p.delta_of(s[x], s[y])
        return p.display(a), p.display(b)

    # Equal piles merge, the loser goes bankrupt at count 0.
    assert cell("NB(1)", "NB(1)") == ("NB(2)", "B(0)")
    assert cell("NB(2)", "NB(2)") == ("NB(4)", "B(0)")
    # Two top piles certify the threshold outright.
    assert cell("NB(4)", "NB(4)") == ("FINAL", "FINAL")
    # Bankrupt counter walks down the binary digits 4, 2, 1 of the threshold.
    assert cell("B(0)", "NB(4)") == ("B(1)", "NB(4)")
    assert cell("B(1)", "NB(2)") == ("B(2)", "NB(2)")
    assert cell("B(2)", "NB(1)") == ("FINAL", "NB(1)")
    # A mismatched pile resets the counter.
    assert cell("B(1)", "NB(1)") == ("B(0)", "NB(1)")
    assert cell("B(2)", "NB(2)") == ("B(0)", "NB(2)")
    assert cell("B(2)", "NB(4)") == ("B(0)", "NB(4)")
    # Piles ignore each other when unequal, and bankrupt agents never interact.
    assert cell("NB(1)", "NB(4)") == ("NB(1)", "NB(4)")
    assert cell("B(0)", "B(2)") == ("B(0)", "B(2)")


def test_protocol_a_gap_rule() -> None:
    # d=11 has digits 8,2,1: a pile of 4 falls in the gap after the first
    # digit and certifies d on the spot.
    p = fp.build_protocol_a(11)
    b1, nb4 = p.state_named("B(1)"), p.state_named("NB(4)")
    fin = p.state_named("FINAL")
    assert p.delta_of(b1, nb4) == ((fin, nb4),)
    # ...but only from a counter that has matched the first digit.
    b0 = p.state_named("B(0)")
    assert p.delta_of(b0, nb4) == ((b0, nb4),)


def test_protocol_a_power_of_two_has_single_digit() -> None:
    p = fp.build_protocol_a(8)
    b0, nb8 = p.state_named("B(0)"), p.state_named("NB(8)")
    fin = p.state_named("FINAL")
    assert p.delta_of(b0, nb8) == ((fin, nb8),)
    assert p.num_states == 6


def test_protocol_a_d1() -> None:
    p = fp.build_protocol_a(1)
    assert p.num_states == 1
    assert p.display(p.q_init) == "FINAL"
    assert p.q1 == frozenset({p.q_init})


# -- protocol b --------------------------------------------------------------


def test_protocol_b_full_table_d7() -> None:
    p = fp.build_protocol_b(7)
    assert [s.name for s in p.states] == ["NB(1)", "NB(2)", "NB(4)", "B", "FINAL"]
    s = {q.name: q.index for q in p.states}

    def cell(x: str, y: str) -> tuple[str, str]:
        ((a, b),) = p.delta_of(s[x], s[y])
        return p.display(a), p.display(b)

    assert cell("NB(1)", "NB(1)") == ("NB(2)", "B")
    # The top merge overshoots 7 by 1, so it mints a fresh 1-coin pile.
    assert cell("NB(2)", "NB(2)") == ("NB(4)", "NB(1)")
    assert cell("NB(4)", "NB(4)") == ("FINAL", "FINAL")
    assert cell("NB(1)", "B") == ("NB(1)", "B")


def test_protocol_b_shedding_chain_d33() -> None:
    # d=33: top merge overshoots by 31 = 16+8+4+2+1, paid out one digit at a
    # time through partial-sum states against bankrupt partners.
    p = fp.build_protocol_b(33)
    names = [st.name for st in p.states]
    assert "NS(24)" in names and "NS(28)" in names and "NS(30)" in names and "NS(31)" in names
    s = p.state_named
    ((x, y),) = p.delta_of(s("NB(16)"), s("NB(16)"))
    assert (p.display(x), p.display(y)) == ("NB(32)", "NS(31)")
    ((x, y),) = p.delta_of(s("NS(31)"), s("B"))
    assert (p.display(x), p.display(y)) == ("NS(30)", "NB(1)")
    ((x, y),) = p.delta_of(s("NS(30)"), s("B"))
    assert (p.display(x), p.display(y)) == ("NS(28)", "NB(2)")
    ((x, y),) = p.delta_of(s("NS(28)"), s("B"))
    assert (p.display(x), p.display(y)) == ("NS(24)", "NB(4)")
    ((x, y),) = p.delta_of(s("NS(24)"), s("B"))
    assert (p.display(x), p.display(y)) == ("NB(16)", "NB(8)")
    ((x, y),) = p.delta_of(s("NB(32)"), s("NB(32)"))
    assert (p.display(x), p.display(y)) == ("FINAL", "FINAL")


def test_protocol_b_single_overshoot_digit_skips_partials() -> None:
    # z=1 (d=7): the whole overshoot fits in one pile, no NS states at all.
    p = fp.build_protocol_b(7)
    assert not any(q.name.startswith("NS") for q in p.states)


def test_protocol_b_rejects_invalid_thresholds() -> None:
    for d in (1, 2, 4, 8, 4096, 0):
        with pytest.raises(fp.InvalidThreshold):
            fp.build_protocol_b(d)


# -- best --------------------------------------------------------------------


@pytest.mark.parametrize(
    "d,winner",
    [(7, "b(d=7)"), (8, "pow2(d=8)"), (33, "a(d=33)"), (5, "b(d=5)"), (1, "pow2(d=1)")],
)
def test_best_selection(d: int, winner: str) -> None:
    assert fp.build_best(d).name == winner


def test_best_never_beaten() -> None:
    for d in range(1, 65):
        best = fp.build_best(d).num_states
        for fam in ("a", "b", "pow2"):
            try:
                other = fp.build_family(fam, d).num_states
            except fp.InvalidThreshold:
                continue
            assert best <= other


def test_best_rejects_nonpositive() -> None:
    with pytest.raises(fp.InvalidThreshold):
        fp.build_best(0)


def test_angluin_rejects_nonpositive() -> None:
    with pytest.raises(fp.InvalidThreshold):
        fp.build_angluin(0)


def test_families_constant() -> None:
    assert fp.FAMILIES == ("angluin", "a", "b", "pow2", "best")
