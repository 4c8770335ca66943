import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from contrasim.csgame import (
    AttackerPos,
    SimPos,
    SwapPos,
    bounded_word_game_preorder,
    build_cs_game,
    build_word_game,
    cs_successors,
    decide_equivalence,
    decide_preorder,
    extract_contrasimulation,
    extract_distinguishing_formula,
    naive_single_step_preorder,
    solve_cs_game_locally,
    strategy_from_fc,
)
from contrasim.errors import PositionBudgetError
from contrasim.game import GameGraph, Player, PlayOutcome, simulate_play, solve, validate_play
from contrasim.hml import DelayNor, DelayObs, hml_satisfies
from contrasim.lts import TAU, Lts, act
from contrasim.relations import contrasim_preorder, fc_pairs, is_contrasimulation

from conftest import (
    make_random_lts,
    make_tau_free_lts,
    phil_shape,
    random_lts,
    transcript_play,
    transcript_states,
    weak_enabled,
)

OP, A_EATS, B_EATS = act("op"), act("aEats"), act("bEats")


# -- move generation -----------------------------------------------------------


def test_attacker_successors_on_phil(phil):
    lts, pc, pp = phil
    (ab,) = lts.strong_successors(pc, OP)
    succs = cs_successors(lts, AttackerPos(pc, frozenset({pp})))
    assert SimPos(OP, ab, frozenset({pp})) in succs


def test_sim_answer_is_unique_and_advances_the_set(phil):
    lts, pc, pp = phil
    ab, q1, *_ = transcript_states(lts, pc, pp)
    succs = cs_successors(lts, SimPos(OP, ab, frozenset({pp})))
    assert succs == [AttackerPos(ab, q1)]
    assert len(q1) == 2


def test_swap_over_empty_set_is_stuck(phil):
    lts, _, _ = phil
    assert cs_successors(lts, SwapPos(0, frozenset())) == []


def test_sim_answer_may_be_empty(instable):
    lts, pab, pb = instable
    # challenge aEats against a set that cannot answer it
    succs = cs_successors(lts, SimPos(A_EATS, 0, frozenset({pb})))
    assert succs == [AttackerPos(0, frozenset())]


def test_attacker_positions_always_have_the_reflexive_swap(phil):
    lts, pc, pp = phil
    game = build_cs_game(lts, pc, pp)
    for idx, pos in enumerate(game.positions):
        if isinstance(pos, AttackerPos):
            assert game.graph.moves[idx]
            assert game.index[SwapPos(pos.p, pos.q_set)] in game.graph.moves[idx]


# -- game construction ------------------------------------------------------------


def test_trivial_one_state_game():
    lts = Lts(1, [])
    game = build_cs_game(lts, 0, 0)
    assert game.graph.position_count == 2
    assert set(game.positions) == {
        AttackerPos(0, frozenset({0})),
        SwapPos(0, frozenset({0})),
    }
    # the two positions form a cycle: reflexive swap, reflexive answer
    assert game.graph.moves[0] == (1,)
    assert game.graph.moves[1] == (0,)


def test_transcript_positions_present_and_playable(phil):
    lts, pc, pp = phil
    game = build_cs_game(lts, pc, pp)
    play = transcript_play(lts, pc, pp)
    indices = [game.index[pos] for pos in play]
    from contrasim.game import PositionalStrategy

    assert validate_play(game.graph, indices, PositionalStrategy(Player.DEFENDER, {}))


def test_transcript_consistent_with_a_winning_strategy(phil):
    """The solved defender strategy, overridden at the pivotal swap with the
    transcript's own commitment, validates the whole play."""
    from contrasim.game import PositionalStrategy

    lts, pc, pp = phil
    game = build_cs_game(lts, pc, pp)
    solution = solve(game.graph)
    play = transcript_play(lts, pc, pp)
    indices = [game.index[pos] for pos in play]
    choice = dict(solution.defender_strategy.choice)
    for here, nxt in zip(indices, indices[1:]):
        if game.graph.owner[here] is Player.DEFENDER:
            assert solution.winner[nxt] is Player.DEFENDER  # still a winning move
            choice[here] = nxt
    adjusted = PositionalStrategy(Player.DEFENDER, choice)
    assert validate_play(game.graph, indices, adjusted)


def test_position_kinds_partition_ownership(phil):
    lts, pc, pp = phil
    game = build_cs_game(lts, pc, pp)
    for idx, pos in enumerate(game.positions):
        expected = Player.ATTACKER if isinstance(pos, AttackerPos) else Player.DEFENDER
        assert game.graph.owner[idx] is expected
        if isinstance(pos, SimPos):
            assert len(game.graph.moves[idx]) == 1


def reference_game(lts, p, q, word_bound=None):
    """Positions and move rows of a plain breadth-first search over
    ``cs_successors`` from ``AttackerPos(p, {q})``."""
    initial = AttackerPos(p, frozenset({q}))
    index = {initial: 0}
    positions = [initial]
    moves = []
    for pos in positions:  # grows while it is walked: the BFS queue
        row = []
        for succ in cs_successors(lts, pos, word_bound):
            if succ not in index:
                index[succ] = len(positions)
                positions.append(succ)
            row.append(index[succ])
        moves.append(tuple(row))
    return positions, moves


@given(random_lts(), st.data())
@settings(max_examples=60, deadline=None)
def test_builder_matches_reference_bfs(lts, data):
    """Index for index in the set game.  In the word game at bounds 1-3 the
    rows list their swaps in configuration order, not in word order: the
    same positions, the same successor set per position, no duplicate in a
    row."""
    p = data.draw(st.integers(0, lts.state_count - 1))
    q = data.draw(st.integers(0, lts.state_count - 1))
    for word_bound in (None, 1, 2, 3):
        game = build_cs_game(lts, p, q, word_bound=word_bound)
        positions, moves = reference_game(lts, p, q, word_bound)
        assert game.graph.initial == 0
        assert game.initial_position == AttackerPos(p, frozenset({q}))
        for idx, pos in enumerate(game.positions):
            assert game.index[pos] == idx
        if word_bound is None:
            assert list(game.positions) == positions
            assert list(game.graph.moves) == moves
            continue
        assert set(game.positions) == set(positions)
        reference = {pos: {positions[t] for t in row} for pos, row in zip(positions, moves)}
        for pos, row in zip(game.positions, game.graph.moves):
            assert len(set(row)) == len(row)
            assert {game.positions[t] for t in row} == reference[pos]


def blow(k: int) -> Lts:
    """blow(k): state 0 loops on a and b; state 1 is the NFA that loops on a
    and b and guesses "b, then k - 1 more letters"."""
    a, b = act("a"), act("b")
    edges = [(0, a, 0), (0, b, 0), (1, a, 1), (1, b, 1), (1, b, 2)]
    edges += [(i, x, i + 1) for i in range(2, k + 1) for x in (a, b)]
    return Lts(k + 2, edges)


def test_blow_twelve_game_size():
    game = build_cs_game(blow(12), 0, 1)
    assert game.graph.position_count == 16_487
    assert game.graph.move_count == 49_305


def test_position_budget():
    lts = blow(4)
    size = build_cs_game(lts, 0, 1).graph.position_count
    assert build_cs_game(lts, 0, 1, max_positions=size).graph.position_count == size
    with pytest.raises(PositionBudgetError, match=f"budget of {size - 1} "):
        build_cs_game(lts, 0, 1, max_positions=size - 1)
    with pytest.raises(PositionBudgetError):
        solve_cs_game_locally(lts, [(0, 1)], max_positions=10)
    words = build_cs_game(lts, 0, 1, word_bound=2).graph.position_count
    with pytest.raises(PositionBudgetError):
        build_cs_game(lts, 0, 1, max_positions=words - 1, word_bound=2)
    # From state 1 of blow(1) every a/b word is feasible, 2^41 - 1 of at
    # most 40 letters, but they reach few configurations: both searches
    # decide within a budget of 1000.
    game, solution, (root,) = solve_cs_game_locally(
        blow(1), [(1, 0)], max_positions=1000, word_bound=40
    )
    assert solution.winner[root] is Player.ATTACKER
    assert game.graph.position_count == 9
    game = build_cs_game(blow(1), 1, 0, max_positions=1000, word_bound=40)
    assert solve(game.graph).winner[game.graph.initial] is Player.ATTACKER
    assert game.graph.position_count == 10


@pytest.mark.parametrize("seed", range(8))
def test_word_rows_are_the_word_successors(seed):
    """On cyclic systems with tau loops, each attacker row of the word game
    holds the swaps that :func:`cs_successors` lists by word, as a set."""
    rng = random.Random(seed)
    for _ in range(5):
        lts = make_random_lts(rng, n_states=rng.randint(2, 7), n_actions=2)
        p, q = rng.randrange(lts.state_count), rng.randrange(lts.state_count)
        for word_bound in (1, 2, 3, 4):
            game = build_cs_game(lts, p, q, word_bound=word_bound)
            for pos, row in zip(game.positions, game.graph.moves):
                assert len(set(row)) == len(row)
                assert {game.positions[t] for t in row} == set(
                    cs_successors(lts, pos, word_bound)
                )


@pytest.mark.parametrize("k, bound, explored", [(1, 1000, 9), (8, 40, 277)])
def test_word_game_walks_past_the_word_count(k, bound, explored):
    """blow(k) has exponentially many words of up to ``bound`` letters
    (2^1001 - 1 from state 1 of blow(1)), but the word game walks its
    configurations and decides within the default budget."""
    game, solution, (root,) = solve_cs_game_locally(blow(k), [(1, 0)], word_bound=bound)
    assert solution.winner[root] is Player.ATTACKER
    assert game.graph.position_count == explored


@given(random_lts())
@settings(max_examples=40, deadline=None)
def test_reachable_positions_within_exponential_bound(lts):
    n = lts.state_count
    bound = (len(lts.visible_actions) + 2) * n * 2**n
    game = build_cs_game(lts, 0, n - 1)
    assert game.graph.position_count <= bound


# -- local solving -------------------------------------------------------------------


def assert_solution_sound(graph, solution) -> None:
    """Ranks fall along the attacker's choices and along every move out of
    an attacker-won defender position; the defender's choices stay won."""
    for g, owner in enumerate(graph.owner):
        rank = solution.attacker_rank[g]
        if solution.winner[g] is Player.DEFENDER:
            assert rank is None
            if owner is Player.DEFENDER:
                chosen = solution.defender_strategy.move_from(g)
                assert chosen in graph.moves[g]
                assert solution.winner[chosen] is Player.DEFENDER
        elif owner is Player.ATTACKER:
            chosen = solution.attacker_strategy.move_from(g)
            assert chosen in graph.moves[g]
            assert solution.attacker_rank[chosen] == rank - 1
        else:
            assert all(solution.attacker_rank[t] < rank for t in graph.moves[g])


def reachable_states(lts: Lts, start: int) -> set[int]:
    """Every state reachable from ``start`` by any steps."""
    seen = {start}
    todo = [start]
    while todo:
        here = frozenset((todo.pop(),))
        steps = lts.internal_closure(here).union(
            *(lts.delay_successors(here, a) for a in lts.visible_actions)
        )
        todo += steps - seen
        seen |= steps
    return seen


def copied_states_in_play(game, solution, root: int) -> set[int]:
    """The states of the copied positions in the play subgraph from
    ``root``: all attacker moves, only the defender strategy's moves."""
    reached, todo, out = {root}, [root], set()
    while todo:
        i = todo.pop()
        if game.graph.owner[i] is Player.ATTACKER:
            targets = game.graph.moves[i]
        else:
            targets = (solution.defender_strategy.move_from(i),)
            if targets == (i,):
                out.add(game.states[i])
        todo += [t for t in targets if t not in reached]
        reached.update(targets)
    return out


def check_local_against_eager(lts: Lts, p: int, q: int, word_bound: int | None = None) -> None:
    """Local solving from ``[(p, q)]`` and from ``[(p, q), (q, p)]`` agrees
    with the solved full game: one root per pair, the same verdicts, and no
    more positions or moves than the full game.  Each position the local
    run gives to the attacker is attacker-won in the full game, and when
    every root holds, so is every expanded position's winner the full
    game's.  The solution is the one ``solve`` gives on the explored game,
    its least ranks included.  Each unexpanded position moves to itself,
    and it is copied or left behind once the attacker has won every root.  A
    copied position is an attacker position ``(p, Q)`` with ``p`` in ``Q``
    that the full game gives to the defender.  Each swap to a state in
    the closure of its set is mirrored: its one move leads to the
    attacker's own state, ``AttackerPos(p', {p'})``, which is copied;
    every other expanded swap has all its answers.  In the set game,
    relations and formulas are sound, each relation contains the identity
    on the states reachable from every copied position its play meets,
    and without mirrored or copied positions the relations are those of
    the full game."""
    eager = build_cs_game(lts, p, q, word_bound=word_bound)
    eager_solution = solve(eager.graph)
    eager_roots = (eager.graph.initial, eager.index[AttackerPos(q, frozenset({p}))])
    expected = [eager_solution.winner[r] is Player.DEFENDER for r in eager_roots]
    for pairs in ([(p, q)], [(p, q), (q, p)]):
        game, solution, roots = solve_cs_game_locally(lts, pairs, word_bound=word_bound)
        assert solution == solve(game.graph)
        assert [game.positions[r] for r in roots] == [
            AttackerPos(x, frozenset({y})) for x, y in pairs
        ]
        assert game.graph.position_count <= eager.graph.position_count
        assert game.move_count <= eager.graph.move_count
        frontier = set(game.frontier)
        eager_winner = [eager_solution.winner[eager.index[pos]] for pos in game.positions]
        held = all(solution.winner[r] is Player.DEFENDER for r in roots)
        lost = all(solution.winner[r] is Player.ATTACKER for r in roots)
        for i, winner in enumerate(solution.winner):
            if winner is Player.ATTACKER or (held and i not in frontier):
                assert winner is eager_winner[i]
        copied = False
        for i in game.frontier:
            assert game.graph.moves[i] == (i,)
            assert solution.winner[i] is Player.DEFENDER
            pos = game.positions[i]
            if isinstance(pos, AttackerPos) and pos.p in pos.q_set:
                copied = True
                assert eager_winner[i] is Player.DEFENDER
            else:
                assert lost
        mirrored = False
        for i, pos in enumerate(game.positions):
            if i in frontier:
                continue
            assert not (isinstance(pos, AttackerPos) and pos.p in pos.q_set)
            if not isinstance(pos, SwapPos):
                continue
            answers = sorted(lts.internal_closure(pos.q_set))
            if pos.p in answers:
                mirrored = True
                mirror = AttackerPos(pos.p, frozenset({pos.p}))
                assert game.graph.moves[i] == (game.index[mirror],)
            else:
                single = frozenset({pos.p})
                assert [game.positions[t] for t in game.graph.moves[i]] == [
                    AttackerPos(q2, single) for q2 in answers
                ]
        assert_solution_sound(game.graph, solution)
        for root, eager_root, (left, right), holds in zip(roots, eager_roots, pairs, expected):
            assert (solution.winner[root] is Player.DEFENDER) == holds
            if word_bound is not None:
                continue  # the certificates are those of the set game
            if holds:
                relation = extract_contrasimulation(game, solution, (root,))
                assert (left, right) in relation
                assert is_contrasimulation(lts, relation)
                for s in copied_states_in_play(game, solution, root):
                    assert {(r, r) for r in reachable_states(lts, s)} <= relation
                if not (mirrored or copied):
                    assert relation == extract_contrasimulation(eager, eager_solution, (eager_root,))
            else:
                phi = extract_distinguishing_formula(game, solution, root)
                assert hml_satisfies(lts, left, phi)
                assert not hml_satisfies(lts, right, phi)


@given(random_lts(), st.data())
@settings(max_examples=80, deadline=None)
def test_local_solving_matches_eager(lts, data):
    p = data.draw(st.integers(0, lts.state_count - 1))
    q = data.draw(st.integers(0, lts.state_count - 1))
    for word_bound in (None, 1, 2, 3):
        check_local_against_eager(lts, p, q, word_bound)


@pytest.mark.parametrize("seed", range(8))
def test_local_solving_on_cyclic_corpus(seed):
    """Larger cyclic systems with tau loops, every ordered pair of a
    sample, in the set game and in the word game at bound 2."""
    rng = random.Random(seed)
    for _ in range(5):
        lts = make_random_lts(rng, n_states=rng.randint(2, 7), n_actions=2)
        for _ in range(4):
            p, q = rng.randrange(lts.state_count), rng.randrange(lts.state_count)
            check_local_against_eager(lts, p, q)
            check_local_against_eager(lts, p, q, word_bound=2)


def test_local_solving_decides_blow_twelve_early():
    """The full blow(12) game has 16,487 positions.  Smallest sets first,
    the attacker's win is found among 59 to 64, in both directions (a plain
    last-in-first-out search finds it among 155), and the attacker's
    strategy on them is as short as on the full game.  A copied root
    queried beside it, which the defender wins unexpanded, does not keep
    the search going."""
    lts = blow(12)
    eager = build_cs_game(lts, 0, 1)
    eager_rank = solve(eager.graph).attacker_rank
    back = eager.index[AttackerPos(1, frozenset({0}))]
    full_ranks = (eager_rank[eager.graph.initial], eager_rank[back])
    for (p, q), full_rank in zip(((0, 1), (1, 0)), full_ranks):
        game, solution, (root,) = solve_cs_game_locally(lts, [(p, q)])
        assert solution.winner[root] is Player.ATTACKER
        assert game.graph.position_count <= 100
        assert solution.attacker_rank[root] == full_rank
        phi = extract_distinguishing_formula(game, solution, root)
        assert hml_satisfies(lts, p, phi) and not hml_satisfies(lts, q, phi)
        both, solution, roots = solve_cs_game_locally(lts, [(q, q), (p, q)])
        assert [solution.winner[r] for r in roots] == [Player.DEFENDER, Player.ATTACKER]
        assert both.graph.position_count <= game.graph.position_count + 1


def test_local_formula_on_chain_as_short_as_on_full_game():
    """An a-chain of 1,200 steps ending in b against one ending in c: the
    attacker's strategy on the explored part is no longer than on the full
    game, so neither is the formula, which is nested deeper than the
    recursion limit."""
    n = 1200
    a = act("a")
    edges = [(i, a, i + 1) for i in range(n)] + [(n + 1 + i, a, n + 2 + i) for i in range(n)]
    edges += [(n, act("b"), 2 * n + 2), (2 * n + 1, act("c"), 2 * n + 2)]
    lts = Lts(2 * n + 3, edges)
    eager = build_cs_game(lts, 0, n + 1)
    eager_solution = solve(eager.graph)
    game, solution, (root,) = solve_cs_game_locally(lts, [(0, n + 1)])
    assert game.graph.position_count < eager.graph.position_count
    assert solution.attacker_rank[root] == eager_solution.attacker_rank[0]
    phi = extract_distinguishing_formula(game, solution, root)
    assert phi == extract_distinguishing_formula(eager, eager_solution, 0)


def test_local_solving_explores_part_of_a_holding_game():
    """A random system of 8 states whose full game from states 0 and 5 has
    501 positions.  Both directions hold; the local search decides them
    within half of those positions (it explores 227), and the relation
    read off the explored part is a contrasimulation."""
    lts = make_random_lts(random.Random(54), n_states=8, n_actions=2)
    p, q = 0, 5
    full = build_cs_game(lts, p, q).graph.position_count
    assert full == 501
    game, solution, roots = solve_cs_game_locally(lts, [(p, q), (q, p)])
    assert all(solution.winner[r] is Player.DEFENDER for r in roots)
    assert game.graph.position_count <= full // 2
    relation = extract_contrasimulation(game, solution, roots)
    assert {(p, q), (q, p)} <= relation
    assert is_contrasimulation(lts, relation)


@given(random_lts(), st.data())
@settings(max_examples=60, deadline=None)
def test_defender_wins_are_upward_closed(lts, data):
    """Monotonicity: for attacker positions ``(p, Q)`` and ``(p, Q')`` of
    one game with ``Q`` inside ``Q'``, a defender win at the first gives
    one at the second."""
    p = data.draw(st.integers(0, lts.state_count - 1))
    q = data.draw(st.integers(0, lts.state_count - 1))
    game = build_cs_game(lts, p, q)
    winner = solve(game.graph).winner
    attackers = [(i, pos) for i, pos in enumerate(game.positions) if isinstance(pos, AttackerPos)]
    held = [pos for i, pos in attackers if winner[i] is Player.DEFENDER]
    for i, pos in attackers:
        if any(h.p == pos.p and h.q_set <= pos.q_set for h in held):
            assert winner[i] is Player.DEFENDER


@given(random_lts(), st.data())
@settings(max_examples=60, deadline=None)
def test_defender_wins_where_the_attacker_state_is_in_the_set(lts, data):
    """Reflexivity, which copied positions and mirror answers rely on: the
    defender wins every attacker position ``(p, Q)`` with ``p`` in ``Q``,
    so the local search leaves each such position to the defender without
    expanding it.  Copying keeps ``p`` in ``Q``: a simulation answer
    contains ``p``'s own delay step, and a swap to ``p'`` is answered by
    ``p'`` itself."""
    p = data.draw(st.integers(0, lts.state_count - 1))
    q = data.draw(st.integers(0, lts.state_count - 1))
    game = build_cs_game(lts, p, q)
    winner = solve(game.graph).winner
    for i, pos in enumerate(game.positions):
        if isinstance(pos, AttackerPos) and pos.p in pos.q_set:
            assert winner[i] is Player.DEFENDER


def test_copied_positions_keep_holding_checks_constant():
    """The full phil(k) game grows as 2^k.  Mirror answers alone keep the
    holding check linear in k (133 positions for k = 4, 277 for k = 12);
    leaving every attacker position whose state lies in the defender's set
    to the defender, unexpanded, decides both directions within the same
    positions for every k, and the relation read off them is a
    contrasimulation."""
    counts = set()
    for k in (4, 8, 12, 16):
        lts, pc, pp = phil_shape(k)
        game, solution, roots = solve_cs_game_locally(lts, [(pc, pp), (pp, pc)])
        assert all(solution.winner[r] is Player.DEFENDER for r in roots)
        counts.add(game.graph.position_count)
        relation = extract_contrasimulation(game, solution, roots)
        assert {(pc, pp), (pp, pc)} <= relation
        if k == 8:
            assert is_contrasimulation(lts, relation)
    assert len(counts) == 1


# -- deciding the preorder ----------------------------------------------------------


def test_phil_equivalence(phil, monkeypatch):
    lts, pc, pp = phil
    assert decide_preorder(lts, pc, pp)
    assert decide_preorder(lts, pp, pc)
    builds = []
    monkeypatch.setattr(
        "contrasim.csgame.solve_cs_game_locally",
        lambda *args, **kwargs: builds.append(args) or solve_cs_game_locally(*args, **kwargs),
    )
    assert decide_equivalence(lts, pc, pp)
    assert builds == [(lts, [(pc, pp), (pp, pc)])]


def test_locked_fails_one_direction(locked):
    lts, pc, pl = locked
    assert not decide_preorder(lts, pc, pl)


def test_instable_not_equivalent(instable):
    lts, pab, pb = instable
    assert not decide_equivalence(lts, pab, pb)


def test_reflexivity(phil):
    lts, pc, _ = phil
    for s in (0, pc, lts.state_count - 1):
        assert decide_preorder(lts, s, s)


# -- certificates ----------------------------------------------------------------------


def test_extracted_relation_on_phil(phil):
    lts, pc, pp = phil
    game = build_cs_game(lts, pc, pp)
    solution = solve(game.graph)
    relation = extract_contrasimulation(game, solution)
    assert (pc, pp) in relation
    assert is_contrasimulation(lts, relation)


def test_extraction_on_deadlock_self_pair():
    lts = Lts(1, [])
    game = build_cs_game(lts, 0, 0)
    solution = solve(game.graph)
    assert extract_contrasimulation(game, solution) == {(0, 0)}
    with pytest.raises(ValueError):  # position 1 is the swap, not a pair
        extract_contrasimulation(game, solution, (1,))


def test_extraction_refuses_attacker_won_instances(locked):
    lts, pc, pl = locked
    game = build_cs_game(lts, pc, pl)
    solution = solve(game.graph)
    with pytest.raises(ValueError):
        extract_contrasimulation(game, solution)


def test_formula_extraction_refuses_defender_won_instances(phil):
    lts, pc, pp = phil
    game = build_cs_game(lts, pc, pp)
    solution = solve(game.graph)
    with pytest.raises(ValueError):
        extract_distinguishing_formula(game, solution, game.graph.initial)


def test_formula_for_empty_defender_set_is_empty_nor():
    lts = Lts(2, [(0, act("a"), 1)])
    game = build_cs_game(lts, 0, 1)
    solution = solve(game.graph)
    pos = game.index[AttackerPos(1, frozenset())]
    assert solution.winner[pos] is Player.ATTACKER
    assert extract_distinguishing_formula(game, solution, pos) == DelayNor(())


def test_formula_separates_locked_example(locked):
    lts, pc, pl = locked
    game = build_cs_game(lts, pc, pl)
    solution = solve(game.graph)
    phi = extract_distinguishing_formula(game, solution, game.graph.initial)
    assert hml_satisfies(lts, pc, phi)
    assert not hml_satisfies(lts, pl, phi)


@given(random_lts())
@settings(max_examples=60, deadline=None)
def test_certificates_sound_on_random_instances(lts):
    """Defender wins yield relations the independent checker accepts;
    attacker wins yield formulas splitting initial state from set."""
    rng = random.Random(lts.state_count + len(lts.transitions))
    p = rng.randrange(lts.state_count)
    q = rng.randrange(lts.state_count)
    game = build_cs_game(lts, p, q)
    solution = solve(game.graph)
    if solution.winner[game.graph.initial] is Player.DEFENDER:
        relation = extract_contrasimulation(game, solution)
        assert (p, q) in relation
        assert is_contrasimulation(lts, relation)
    else:
        phi = extract_distinguishing_formula(game, solution, game.graph.initial)
        assert hml_satisfies(lts, p, phi)
        assert not hml_satisfies(lts, q, phi)


@given(random_lts())
@settings(max_examples=60, deadline=None)
def test_formulas_have_no_repeated_disjuncts(lts):
    """Every formula extracted at a lost root separates its pair, and no
    delayed nor in it has two equal branches."""
    for p in range(lts.state_count):
        for q in range(lts.state_count):
            game, solution, (root,) = solve_cs_game_locally(lts, [(p, q)])
            if solution.winner[root] is Player.DEFENDER:
                continue
            phi = extract_distinguishing_formula(game, solution, root)
            assert hml_satisfies(lts, p, phi) and not hml_satisfies(lts, q, phi)
            todo, seen = [phi], set()
            while todo:
                node = todo.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                if isinstance(node, DelayNor):
                    assert len(set(node.branches)) == len(node.branches)
                    todo += node.branches
                elif isinstance(node, DelayObs):
                    todo.append(node.body)


@given(random_lts(), st.data())
@settings(max_examples=60, deadline=None)
def test_one_game_decides_both_directions(lts, data):
    """The reflexive swap, which in the word game is the empty-word
    challenge, leads from the root of the lhs-vs-rhs game to the rhs-vs-lhs
    root, whose winner and certificates are those of the reverse check."""
    p = data.draw(st.integers(0, lts.state_count - 1))
    q = data.draw(st.integers(0, lts.state_count - 1))
    game = build_cs_game(lts, p, q)
    solution = solve(game.graph)
    initial, back = game.graph.initial, game.index[AttackerPos(q, frozenset({p}))]
    reflexive = SwapPos(p, frozenset({q}))
    (swap,) = (i for i in game.graph.moves[initial] if game.positions[i] == reflexive)
    assert back in game.graph.moves[swap]
    holds = solution.winner[back] is Player.DEFENDER
    assert holds == decide_preorder(lts, q, p)
    if holds:
        relation = extract_contrasimulation(game, solution, (back,))
        assert (q, p) in relation and is_contrasimulation(lts, relation)
        if solution.winner[initial] is Player.DEFENDER:
            both = extract_contrasimulation(game, solution, (initial, back))
            assert both == relation | extract_contrasimulation(game, solution)
            assert is_contrasimulation(lts, both)
    else:
        phi = extract_distinguishing_formula(game, solution, back)
        assert hml_satisfies(lts, q, phi) and not hml_satisfies(lts, p, phi)

    for bound in (1, 2, 3):
        words = build_cs_game(lts, p, q, word_bound=bound)
        back = words.index[AttackerPos(q, frozenset({p}))]
        assert back in words.graph.moves[words.index[reflexive]]
        assert (solve(words.graph).winner[back] is Player.DEFENDER) == bounded_word_game_preorder(
            lts, q, p, bound
        )


@given(random_lts(), st.data())
@settings(max_examples=60, deadline=None)
def test_one_game_decides_every_queried_pair(lts, data):
    """One local game asked for 1 to 3 pairs, which may repeat a pair or
    pair a state with itself, has one root per pair, in order, at that
    pair's attacker position, and its winner there is that of the pair's
    own check: in the set game and in the word game at bounds 1 and 2."""
    state = st.integers(0, lts.state_count - 1)
    p, q = data.draw(state), data.draw(state)
    pair = st.one_of(st.just((p, q)), st.just((q, p)), st.just((p, p)), st.tuples(state, state))
    pairs = data.draw(st.lists(pair, min_size=1, max_size=3))
    for bound in (None, 1, 2):
        game, solution, roots = solve_cs_game_locally(lts, pairs, word_bound=bound)
        assert solution == solve(game.graph)
        assert len(roots) == len(pairs) and len(set(roots)) == len(set(pairs))
        for root, (x, y) in zip(roots, pairs):
            assert game.positions[root] == AttackerPos(x, frozenset({y}))
            if bound is None:
                holds = decide_preorder(lts, x, y)
            else:
                holds = bounded_word_game_preorder(lts, x, y, bound)
            assert (solution.winner[root] is Player.DEFENDER) == holds


# -- agreement with the independent oracle --------------------------------------------


@given(random_lts(max_states=4))
@settings(max_examples=40, deadline=None)
def test_game_agrees_with_oracle(lts):
    oracle = contrasim_preorder(lts)
    for p in range(lts.state_count):
        for q in range(lts.state_count):
            assert decide_preorder(lts, p, q) == ((p, q) in oracle)


# -- the deliberately unsound single-step shortcut --------------------------------------


def test_naive_shortcut_misses_instable_choice(instable):
    lts, pab, pb = instable
    assert naive_single_step_preorder(lts, pab, pb)
    assert naive_single_step_preorder(lts, pb, pab)
    assert not decide_preorder(lts, pab, pb)
    assert not decide_preorder(lts, pb, pab)


def test_naive_shortcut_reflexive(instable):
    lts, pab, _ = instable
    assert naive_single_step_preorder(lts, pab, pab)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_naive_shortcut_exact_without_internal_steps(seed):
    lts = make_tau_free_lts(random.Random(seed), n_states=4)
    for p in range(lts.state_count):
        for q in range(lts.state_count):
            assert naive_single_step_preorder(lts, p, q) == decide_preorder(lts, p, q)


# -- the bounded word game ---------------------------------------------------------------


def reference_word_game(lts, p, q, max_word_length):
    """The word game as a game of its own, by a plain breadth-first search
    that recomputes every row anew.  The attacker at ``(p, q)`` challenges
    with a feasible word ``w`` and a state ``p'`` reached by it, to ``(w,
    p', q)``; the defender answers with each ``q'`` that ``q`` reaches by
    the weak word step ``w``, and the sides swap, to ``(q', p')``."""
    initial = (p, q)
    index = {initial: 0}
    positions = [initial]
    moves = []
    todo = deque((initial,))

    def intern(pos):
        if pos not in index:
            index[pos] = len(positions)
            positions.append(pos)
            todo.append(pos)
        return index[pos]

    while todo:
        pos = todo.popleft()
        row = []
        if len(pos) == 2:
            here, there = pos
            for word, frontier in lts.feasible_words(here, max_word_length):
                for p2 in sorted(lts.internal_closure(frontier)):
                    row.append(intern((word, p2, there)))
        else:
            word, here, there = pos
            for q2 in sorted(lts.weak_word_successors(there, word)):
                row.append(intern((q2, here)))
        moves.append(tuple(row))
    owner = [Player.ATTACKER if len(pos) == 2 else Player.DEFENDER for pos in positions]
    return GameGraph(owner, moves), positions


def assert_word_verdicts_match_reference(lts, p, q, bound):
    """The reference word game's verdicts at ``(p, q)`` and ``(q, p)`` are
    those of the word mode of the set game, solved locally and whole."""
    graph, positions = reference_word_game(lts, p, q, bound)
    winner = solve(graph).winner
    expected = [winner[positions.index(root)] is Player.DEFENDER for root in ((p, q), (q, p))]
    game, solution, roots = solve_cs_game_locally(lts, [(p, q), (q, p)], word_bound=bound)
    assert [solution.winner[r] is Player.DEFENDER for r in roots] == expected
    whole = build_cs_game(lts, p, q, word_bound=bound)
    whole_roots = (whole.graph.initial, whole.index[AttackerPos(q, frozenset({p}))])
    whole_winner = solve(whole.graph).winner
    assert [whole_winner[r] is Player.DEFENDER for r in whole_roots] == expected


@given(random_lts(), st.data())
@settings(max_examples=40, deadline=None)
def test_word_game_matches_reference(lts, data):
    p = data.draw(st.integers(0, lts.state_count - 1))
    q = data.draw(st.integers(0, lts.state_count - 1))
    for bound in (1, 2, 3):
        assert_word_verdicts_match_reference(lts, p, q, bound)


def test_word_game_matches_reference_on_phil(phil):
    lts, pc, pp = phil
    for p in range(lts.state_count):
        for q in range(p, lts.state_count):
            assert_word_verdicts_match_reference(lts, p, q, 3)
    graph, positions = build_word_game(lts, pc, pp, 3)
    game = build_cs_game(lts, pc, pp, word_bound=3)
    assert positions == game.positions and graph.moves == game.graph.moves


def test_bound_one_misses_bound_two_catches(instable):
    lts, pab, pb = instable
    assert bounded_word_game_preorder(lts, pab, pb, 1)
    assert not bounded_word_game_preorder(lts, pab, pb, 2)


def test_extractors_refuse_word_games(instable):
    """A word challenge is a word then a swap, not a delay step: read as a
    set-game challenge, the attacker's win at bound 2 would give ``<e>~()``,
    which both sides satisfy.  Both extractors refuse word games."""
    lts, pab, pb = instable
    game, solution, (root,) = solve_cs_game_locally(lts, [(pab, pb)], word_bound=2)
    assert solution.winner[root] is Player.ATTACKER
    with pytest.raises(ValueError):
        extract_distinguishing_formula(game, solution, root)
    assert game.word_bound == 2
    game, solution, (root,) = solve_cs_game_locally(lts, [(pab, pb)], word_bound=1)
    assert solution.winner[root] is Player.DEFENDER
    with pytest.raises(ValueError):
        extract_contrasimulation(game, solution, (root,))
    # the set game keeps both extractors
    game, solution, (root,) = solve_cs_game_locally(lts, [(pab, pb)])
    assert game.word_bound is None
    formula = extract_distinguishing_formula(game, solution, root)
    assert hml_satisfies(lts, pab, formula) and not hml_satisfies(lts, pb, formula)


def test_bounded_game_reflexive(instable):
    lts, pab, _ = instable
    for bound in (1, 2, 3):
        assert bounded_word_game_preorder(lts, pab, pab, bound)


def test_bound_must_be_positive(instable):
    lts, pab, pb = instable
    with pytest.raises(ValueError):
        bounded_word_game_preorder(lts, pab, pb, 0)


@pytest.mark.parametrize("fixture_name", ["phil", "locked", "instable"])
def test_bounded_game_exact_on_acyclic_fixtures(fixture_name, request):
    """With the bound at the state count, the word game agrees with the set
    game on every ordered pair of the (acyclic) example systems."""
    lts, left, right = request.getfixturevalue(fixture_name)
    bound = lts.state_count
    for p in range(lts.state_count):
        for q in range(lts.state_count):
            assert bounded_word_game_preorder(lts, p, q, bound) == decide_preorder(
                lts, p, q
            ), (p, q)


@given(random_lts(max_states=4))
@settings(max_examples=20, deadline=None)
def test_bounded_game_over_approximates(lts):
    """A shorter bound can only flip verdicts from false to true."""
    for p in range(lts.state_count):
        for q in range(lts.state_count):
            exact = decide_preorder(lts, p, q)
            if exact:
                assert bounded_word_game_preorder(lts, p, q, 2)


# -- defender strategies from the preorder ------------------------------------------------


def test_fc_membership_contains_the_relation(phil):
    lts, pc, pp = phil
    oracle = contrasim_preorder(lts)
    configs = fc_pairs(lts, oracle)
    for p, q in sorted(oracle)[:10]:
        assert (p, frozenset({q})) in configs


def test_fc_membership_after_one_challenge(phil):
    lts, pc, pp = phil
    ab, q1, *_ = transcript_states(lts, pc, pp)
    oracle = contrasim_preorder(lts)
    assert (ab, q1) in fc_pairs(lts, oracle)


def test_fc_membership_false_off_the_word_successors():
    lts = Lts(3, [(0, act("a"), 1), (1, act("a"), 2)])
    configs = fc_pairs(lts, {(0, 0)})
    assert (0, frozenset({0})) in configs
    assert (1, frozenset({1})) in configs
    assert (1, frozenset({0})) not in configs
    assert (0, frozenset({1, 2})) not in configs
    assert (2, frozenset({0, 1})) not in configs


def test_fc_strategy_defined_at_all_sim_positions(phil):
    lts, pc, pp = phil
    game = build_cs_game(lts, pc, pp)
    oracle = contrasim_preorder(lts)
    f = strategy_from_fc(game, fc_pairs(lts, oracle))
    for idx, pos in enumerate(game.positions):
        if isinstance(pos, SimPos):
            assert f.move_from(idx) == game.graph.moves[idx][0]


def test_fc_strategy_makes_the_documented_swap_choice(phil):
    """At the pivotal swap the strategy commits to a state that can still
    answer the pending aEats observation."""
    lts, pc, pp = phil
    game = build_cs_game(lts, pc, pp)
    _, q1, ta_c, *_ = transcript_states(lts, pc, pp)
    oracle = contrasim_preorder(lts)
    f = strategy_from_fc(game, fc_pairs(lts, oracle))
    swap_idx = game.index[SwapPos(ta_c, q1)]
    answer = game.positions[f.move_from(swap_idx)]
    assert isinstance(answer, AttackerPos)
    assert weak_enabled(lts, answer.p, A_EATS)
    assert not weak_enabled(lts, answer.p, B_EATS)
    # the solved winning strategy commits to the same side
    solution = solve(game.graph)
    solved_answer = game.positions[solution.defender_strategy.move_from(swap_idx)]
    assert weak_enabled(lts, solved_answer.p, A_EATS)
    assert not weak_enabled(lts, solved_answer.p, B_EATS)


def test_fc_strategy_survives_random_attackers(phil):
    lts, pc, pp = phil
    game = build_cs_game(lts, pc, pp)
    oracle = contrasim_preorder(lts)
    f = strategy_from_fc(game, fc_pairs(lts, oracle))
    rng = random.Random(99)

    def random_attacker(graph, position):
        return rng.choice(graph.moves[position])

    for _ in range(1000):
        play, outcome = simulate_play(game.graph, f, random_attacker, 40)
        assert outcome in (PlayOutcome.ATTACKER_STUCK, PlayOutcome.STEP_BUDGET_REACHED)


def test_solved_strategy_survives_a_long_random_play(phil):
    lts, pc, pp = phil
    game = build_cs_game(lts, pc, pp)
    solution = solve(game.graph)
    rng = random.Random(7)

    def random_attacker(graph, position):
        return rng.choice(graph.moves[position])

    play, outcome = simulate_play(
        game.graph, solution.defender_strategy, random_attacker, 10_000
    )
    assert outcome in (PlayOutcome.ATTACKER_STUCK, PlayOutcome.STEP_BUDGET_REACHED)
