import random

import pytest
from hypothesis import given, settings, strategies as st

from contrasim.game import (
    GameGraph,
    Player,
    PlayOutcome,
    PositionalStrategy,
    simulate_play,
    solve,
    validate_play,
)

A, D = Player.ATTACKER, Player.DEFENDER


def make_random_game(rng: random.Random, n: int) -> GameGraph:
    owner = [rng.choice((A, D)) for _ in range(n)]
    moves = []
    for _ in range(n):
        degree = rng.randint(0, min(3, n))
        moves.append(rng.sample(range(n), k=degree))
    return GameGraph(owner, moves, initial=rng.randrange(n))


@st.composite
def small_game(draw, max_positions=12):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, max_positions))
    return make_random_game(random.Random(seed), n)


# -- independent winner oracles -------------------------------------------------


def fixpoint_oracle(graph: GameGraph) -> list[Player]:
    """Iterate the attacker-won set to a fixed point from scratch."""
    won = set()
    while True:
        grown = set(won)
        for g in range(graph.position_count):
            if g in won:
                continue
            succs = graph.moves[g]
            if graph.owner[g] is D and all(t in won for t in succs):
                grown.add(g)
            elif graph.owner[g] is A and any(t in won for t in succs):
                grown.add(g)
        if grown == won:
            break
        won = grown
    return [A if g in won else D for g in range(graph.position_count)]


def minimax_oracle(graph: GameGraph, position: int, path: frozenset[int]) -> Player:
    """Exhaustive play search: repeating a position means an infinite play,
    which the defender wins."""
    if position in path:
        return D
    succs = graph.moves[position]
    if not succs:
        return A if graph.owner[position] is D else D
    sub = [minimax_oracle(graph, t, path | {position}) for t in succs]
    if graph.owner[position] is A:
        return A if A in sub else D
    return D if D in sub else A


# -- solve ------------------------------------------------------------------------


def test_stuck_defender_loses():
    graph = GameGraph([D], [[]], initial=0)
    solution = solve(graph)
    assert solution.winner == (A,)
    assert solution.attacker_rank == (0,)


def test_stuck_attacker_loses():
    graph = GameGraph([A], [[]], initial=0)
    assert solve(graph).winner == (D,)


def test_attacker_self_loop_is_defender_win():
    graph = GameGraph([A], [[0]], initial=0)
    solution = solve(graph)
    assert solution.winner == (D,)
    assert solution.attacker_rank == (None,)


def test_three_position_chain():
    # attacker -> defender -> (stuck defender)
    graph = GameGraph([A, D, D], [[1], [2], []], initial=0)
    solution = solve(graph)
    assert solution.winner == (A, A, A)
    assert solution.attacker_rank == (2, 1, 0)
    assert solution.attacker_strategy.choice == {0: 1}


def test_defender_escape_hatch():
    # the defender can move into an attacker dead end and win
    graph = GameGraph([A, D, D, A], [[1], [2, 3], [], []], initial=0)
    solution = solve(graph)
    assert solution.winner[0] is D
    assert solution.defender_strategy.choice[1] == 3


@given(small_game(max_positions=50))
@settings(max_examples=150)
def test_solve_matches_fixpoint_oracle(graph):
    assert list(solve(graph).winner) == fixpoint_oracle(graph)


@given(small_game(max_positions=12))
@settings(max_examples=60, deadline=None)
def test_solve_matches_exhaustive_minimax(graph):
    solution = solve(graph)
    for g in range(graph.position_count):
        assert solution.winner[g] is minimax_oracle(graph, g, frozenset())


@given(small_game())
def test_strategies_and_ranks_sound(graph):
    solution = solve(graph)
    for g in range(graph.position_count):
        if solution.winner[g] is A:
            rank = solution.attacker_rank[g]
            assert rank is not None
            if graph.owner[g] is A:
                chosen = solution.attacker_strategy.move_from(g)
                assert chosen in graph.moves[g]
                assert solution.attacker_rank[chosen] == rank - 1
            else:
                # every defender escape stays won with smaller rank
                for t in graph.moves[g]:
                    assert solution.winner[t] is A
                    assert solution.attacker_rank[t] < rank
        else:
            assert solution.attacker_rank[g] is None
            if graph.owner[g] is D:
                chosen = solution.defender_strategy.move_from(g)
                assert chosen is not None and solution.winner[chosen] is D


@given(small_game())
def test_unique_rows_taken_as_they_are(graph):
    fast = GameGraph.from_unique_rows(graph.owner, graph.moves, graph.initial)
    assert (fast.owner, fast.moves, fast.initial) == (graph.owner, graph.moves, graph.initial)
    assert fast.move_count == graph.move_count


@given(small_game(), st.integers(0, 2**32 - 1))
def test_solve_on_a_won_superset_is_solve(graph, seed):
    """Handed the attacker-won region, or any superset of it, solve walks
    only the moves out of it and gives the same solution."""
    solution = solve(graph)
    won = [w is A for w in solution.winner]
    rng = random.Random(seed)
    superset = [w or rng.random() < 0.5 for w in won]
    assert solve(graph, won) == solution
    assert solve(graph, superset) == solution
    assert solve(graph, [True] * graph.position_count) == solution


@given(small_game())
def test_determinacy(graph):
    winners = set(solve(graph).winner)
    assert winners <= {A, D}


# -- validate_play ------------------------------------------------------------------


def test_single_position_play_is_valid():
    graph = GameGraph([A, D], [[1], []], initial=0)
    assert validate_play(graph, [0], PositionalStrategy(D, {}))


def test_play_must_start_at_initial():
    graph = GameGraph([A, D], [[1], []], initial=0)
    assert not validate_play(graph, [1], PositionalStrategy(D, {}))
    assert not validate_play(graph, [], PositionalStrategy(D, {}))


def test_play_must_follow_moves():
    graph = GameGraph([A, D], [[1], []], initial=0)
    assert validate_play(graph, [0, 1], PositionalStrategy(D, {}))
    assert not validate_play(graph, [0, 0], PositionalStrategy(D, {}))


def test_play_deviating_from_strategy_rejected():
    graph = GameGraph([D, A, A], [[1, 2], [], []], initial=0)
    f = PositionalStrategy(D, {0: 2})
    assert validate_play(graph, [0, 2], f)
    assert not validate_play(graph, [0, 1], f)
    # moves by the other player are unconstrained
    assert validate_play(graph, [0, 1], PositionalStrategy(A, {}))


# -- simulate_play --------------------------------------------------------------------


def first_move(graph, position):
    return graph.moves[position][0]


def test_simulation_reports_attacker_stuck():
    graph = GameGraph([A, A], [[1], []], initial=0)
    play, outcome = simulate_play(graph, PositionalStrategy(D, {}), first_move, 10)
    assert outcome is PlayOutcome.ATTACKER_STUCK
    assert play == [0, 1]


def test_simulation_reports_step_budget():
    graph = GameGraph([A], [[0]], initial=0)
    play, outcome = simulate_play(graph, PositionalStrategy(D, {}), first_move, 7)
    assert outcome is PlayOutcome.STEP_BUDGET_REACHED
    assert len(play) == 8


def test_simulation_defender_stuck_without_strategy_move():
    graph = GameGraph([A, D, A], [[1], [2], []], initial=0)
    play, outcome = simulate_play(graph, PositionalStrategy(D, {}), first_move, 10)
    assert outcome is PlayOutcome.DEFENDER_STUCK
    assert play == [0, 1]


def test_illegal_adversary_move_rejected():
    graph = GameGraph([A, D], [[1], [0]], initial=0)

    def cheat(graph, position):
        return position  # self loops do not exist here

    with pytest.raises(ValueError):
        simulate_play(graph, PositionalStrategy(D, {1: 0}), cheat, 10)


@given(small_game(max_positions=20), st.integers(0, 2**32 - 1))
@settings(max_examples=80)
def test_attacker_strategy_wins_within_rank_bound(graph, seed):
    """From an attacker-won initial position, the solved attacker strategy
    defeats any adversary, within attacker_rank(initial) defender turns."""
    solution = solve(graph)
    if solution.winner[graph.initial] is not A:
        return
    rng = random.Random(seed)

    def random_defender(graph, position):
        return rng.choice(graph.moves[position])

    play, outcome = simulate_play(
        graph, solution.attacker_strategy, random_defender, 10_000
    )
    assert outcome is PlayOutcome.DEFENDER_STUCK
    # every move inside the won region strictly decreases the rank, so the
    # defender moves at most rank(initial) times before getting stuck
    assert len(play) - 1 <= solution.attacker_rank[graph.initial]
    defender_moves = sum(1 for g in play[:-1] if graph.owner[g] is D)
    assert defender_moves <= solution.attacker_rank[graph.initial]


@given(small_game(max_positions=20), st.integers(0, 2**32 - 1))
@settings(max_examples=80)
def test_defender_strategy_never_stuck_on_won_positions(graph, seed):
    solution = solve(graph)
    if solution.winner[graph.initial] is not D:
        return
    rng = random.Random(seed)

    def random_attacker(graph, position):
        return rng.choice(graph.moves[position])

    play, outcome = simulate_play(
        graph, solution.defender_strategy, random_attacker, 500
    )
    assert outcome in (PlayOutcome.ATTACKER_STUCK, PlayOutcome.STEP_BUDGET_REACHED)
