"""The value classes are immutable records: equal by class and fields,
read-only, with keyword construction and defaults."""

import copy
import pickle

import pytest

from contrasim.ccs import parse_ccs
from contrasim.cli import Certificate, CheckReport
from contrasim.csgame import AttackerPos, SimPos, SwapPos, build_cs_game
from contrasim.game import GameGraph, Player, PositionalStrategy, solve
from contrasim.hml import TRUTH, DelayNor, DelayObs, Truth
from contrasim.lts import TAU, Lts, act
from contrasim.relations import ContrasimulationViolation, SimulationViolation

a, b = act("a"), act("b")
Q = frozenset({2})


def report(**changes):
    fields = dict(
        verdict=True, notion="contrasim", direction="preorder", lhs="1", rhs="2",
        forward=True, backward=None, certificate=Certificate(kind="formula", formula="T"),
        game_positions=3, game_moves=4, solve_ms=0.5, total_ms=0.0,
    )
    return CheckReport(**{**fields, **changes})


def one_of_each():
    lts = Lts(2, [(0, a, 1)])
    game = build_cs_game(lts, 0, 1)
    graph = GameGraph([Player.DEFENDER], [[]])
    return [
        AttackerPos(1, Q), SimPos(a, 1, Q), SwapPos(1, Q), game,
        TRUTH, DelayObs(a, TRUTH), DelayNor((TRUTH,)),
        PositionalStrategy(Player.ATTACKER), solve(graph),
        SimulationViolation(0, 1, a, 1), ContrasimulationViolation(0, 1, (a,), 0, Q, 1),
        parse_ccs("P = a.0;\n"), Certificate(kind="relation", pairs=(("P", "P"),)), report(),
    ]


def test_records_of_different_classes_with_equal_fields_are_unequal():
    attacker, swap = AttackerPos(1, Q), SwapPos(1, Q)
    assert attacker != swap
    assert {attacker: "attacker", swap: "swap"} == {swap: "swap", attacker: "attacker"}
    assert len({attacker: 0, swap: 1}) == 2
    assert attacker == AttackerPos(1, frozenset({2}))
    assert hash(attacker) == hash(AttackerPos(1, frozenset({2})))
    assert SimPos(a, 1, Q) != SimPos(b, 1, Q)


def test_records_hash_and_compare_as_the_tuple_of_their_fields():
    assert hash(AttackerPos(1, Q)) == hash((1, Q))
    assert hash(DelayNor((TRUTH,))) == hash(((TRUTH,),))
    assert hash(TRUTH) == hash(())
    assert AttackerPos(1, Q) != SwapPos(1, Q) and not AttackerPos(1, Q) == SwapPos(1, Q)
    assert AttackerPos(1, Q) != (1, Q)


def test_formulas_compare_by_value():
    assert DelayObs(a, DelayNor((TRUTH,))) == DelayObs(a, DelayNor((Truth(),)))
    assert hash(DelayObs(a, TRUTH)) == hash(DelayObs(a, Truth()))
    assert DelayObs(a, TRUTH) != DelayObs(b, TRUTH)
    assert DelayNor(()) != TRUTH
    with pytest.raises(ValueError):
        DelayObs(TAU, TRUTH)


def test_record_fields_are_read_only():
    for record in one_of_each():
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert AttackerPos(1, Q).p == 1


def test_report_total_time_is_read_only():
    """A report is complete when it is made: its total time is read-only
    like every other field."""
    done = report(total_ms=3.0)
    assert done.total_ms == 3.0
    with pytest.raises(AttributeError):
        done.total_ms = 12.5
    assert done.total_ms == 3.0


def test_keyword_construction_and_defaults():
    assert Certificate(kind="formula") == Certificate("formula", None, None)
    first, second = PositionalStrategy(Player.ATTACKER), PositionalStrategy(Player.ATTACKER)
    first.choice[0] = 1
    assert second.choice == {}
    assert PositionalStrategy(Player.DEFENDER, {2: 3}).move_from(2) == 3
    with pytest.raises(TypeError):
        AttackerPos(1)


def test_cached_properties_of_a_game():
    game = build_cs_game(Lts(2, [(0, a, 1)]), 0, 1)
    assert game.initial_position == AttackerPos(0, frozenset({1}))
    assert game.positions is game.positions
    assert game.index[game.initial_position] == game.graph.initial


def test_repr_names_the_fields():
    assert repr(AttackerPos(1, Q)) == "AttackerPos(p=1, q_set=frozenset({2}))"
    assert repr(DelayObs(a, TRUTH)) == "DelayObs(action=Action(name='a'), body=Truth())"
    assert repr(DelayNor(())) == "DelayNor(branches=())"
    assert repr(DelayNor((TRUTH,))) == "DelayNor(branches=(Truth(),))"
    assert repr(Certificate(kind="formula", formula="T")) == (
        "Certificate(kind='formula', formula='T', pairs=None)"
    )


def test_copies_and_pickles_rebuild_through_the_constructor():
    records = one_of_each()
    for record in records:
        assert copy.copy(record) == record
    for record in records[:3] + records[4:]:  # the game's Lts compares by identity
        assert pickle.loads(pickle.dumps(record)) == record
