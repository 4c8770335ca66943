"""The contrasimulation set game and the decision procedures built on it.

To decide whether the right process can match every weak word of the left
one with roles swapping afterwards, the two players move over positions of
three kinds:

* ``AttackerPos(p, Q)``: the attacker owns ``p``, the defender a set ``Q``
  of states still consistent with the challenges so far.
* ``SimPos(a, p', Q)``: the attacker has challenged with a delay-``a`` step
  to ``p'``; the defender's unique answer advances ``Q`` by the set-lifted
  delay step (possibly to the empty set).
* ``SwapPos(p', Q)``: the attacker has requested a swap after internal
  steps to ``p'``; the defender commits to one state reachable internally
  from ``Q`` and the sides exchange, so the play continues from
  ``AttackerPos(q', {p'})``.

The defender wins exactly from the positions of the backward-attractor
complement; a defender win at ``AttackerPos(p, {q})`` certifies the
preorder, and the certificate extractors below turn winning strategies into
either a checkable relation (defender) or a distinguishing formula
(attacker).

The module also carries two deliberately weaker procedures kept for
comparison: a single-step fixed point that is unsound for the preorder, and
a word game whose challenges are cut off at a given length.
"""

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .game import GameGraph, GameSolution, Player, PositionalStrategy, solve
from .hml import DelayNor, DelayObs, HmlFormula
from .lts import Action, Lts, StateSet, TAU, Word


@dataclass(frozen=True, slots=True)
class AttackerPos:
    p: int
    q_set: StateSet


@dataclass(frozen=True, slots=True)
class SimPos:
    action: Action
    p: int
    q_set: StateSet


@dataclass(frozen=True, slots=True)
class SwapPos:
    p: int
    q_set: StateSet


CsPosition = Union[AttackerPos, SimPos, SwapPos]

Relation = frozenset[tuple[int, int]]


def owner_of(pos: CsPosition) -> Player:
    return Player.ATTACKER if isinstance(pos, AttackerPos) else Player.DEFENDER


def cs_successors(lts: Lts, pos: CsPosition) -> list[CsPosition]:
    """Legal moves from a position, in a fixed deterministic order.

    Challenges use delay steps (leading internal behavior, then the action);
    swap answers apply internal closure to the defender's set.  An attacker
    position always has at least the reflexive swap challenge; a swap over
    the empty set has no answers.
    """
    if isinstance(pos, AttackerPos):
        here = frozenset((pos.p,))
        out: list[CsPosition] = []
        for a in lts.visible_actions:
            for p2 in sorted(lts.delay_successors(here, a)):
                out.append(SimPos(a, p2, pos.q_set))
        for p2 in sorted(lts.internal_closure(here)):
            out.append(SwapPos(p2, pos.q_set))
        return out
    if isinstance(pos, SimPos):
        return [AttackerPos(pos.p, lts.delay_successors(pos.q_set, pos.action))]
    if isinstance(pos, SwapPos):
        single = frozenset((pos.p,))
        return [AttackerPos(q2, single) for q2 in sorted(lts.internal_closure(pos.q_set))]
    raise TypeError(f"unknown position {pos!r}")


@dataclass(frozen=True)
class CsGame:
    """The reachable part of the set game, index-aligned with its GameGraph."""

    lts: Lts
    graph: GameGraph
    positions: tuple[CsPosition, ...]
    index: Mapping[CsPosition, int]

    @property
    def initial_position(self) -> CsPosition:
        return self.positions[self.graph.initial]


def build_cs_game(lts: Lts, p: int, q: int) -> CsGame:
    """Breadth-first closure of the move relation from ``AttackerPos(p, {q})``.

    Positions are deduplicated by structural identity; the construction is
    finite because there are at most (|actions|+2) * |S| * 2^|S| positions.
    """
    lts._check_state(p)
    lts._check_state(q)
    initial = AttackerPos(p, frozenset((q,)))
    index: dict[CsPosition, int] = {initial: 0}
    positions: list[CsPosition] = [initial]
    moves: list[list[int]] = []
    todo: deque[CsPosition] = deque((initial,))
    while todo:
        pos = todo.popleft()
        row = []
        for succ in cs_successors(lts, pos):
            idx = index.get(succ)
            if idx is None:
                idx = len(positions)
                index[succ] = idx
                positions.append(succ)
                todo.append(succ)
            row.append(idx)
        moves.append(row)
    graph = GameGraph((owner_of(pos) for pos in positions), moves, initial=0)
    return CsGame(lts=lts, graph=graph, positions=tuple(positions), index=index)


def decide_preorder(lts: Lts, p: int, q: int) -> bool:
    """True iff the defender wins the set game started at ``(p, {q})``."""
    game = build_cs_game(lts, p, q)
    solution = solve(game.graph)
    return solution.winner[game.graph.initial] is Player.DEFENDER


def decide_equivalence(lts: Lts, p: int, q: int) -> bool:
    return decide_preorder(lts, p, q) and decide_preorder(lts, q, p)


# -- certificates -------------------------------------------------------------


def extract_contrasimulation(game: CsGame, solution: GameSolution) -> Relation:
    """Read a relation off the defender's winning strategy.

    The result contains the initial pair plus, for every swap answer inside
    the play subgraph (all attacker moves, only the strategy's defender
    moves), the swapped pair it commits to.  It always passes the
    independent contrasimulation check.
    """
    initial = game.graph.initial
    if solution.winner[initial] is not Player.DEFENDER:
        raise ValueError("no contrasimulation to extract: the attacker wins")
    root = game.positions[initial]
    assert isinstance(root, AttackerPos)
    (q0,) = root.q_set
    pairs = {(root.p, q0)}

    reached = {initial}
    todo = deque((initial,))
    while todo:
        idx = todo.popleft()
        pos = game.positions[idx]
        if isinstance(pos, AttackerPos):
            targets: Iterable[int] = game.graph.moves[idx]
        else:
            chosen = solution.defender_strategy.move_from(idx)
            if chosen is None:
                # Unreachable for a winning strategy from a won position.
                raise ValueError(f"defender strategy undefined at {pos!r}")
            targets = (chosen,)
            if isinstance(pos, SwapPos):
                answer = game.positions[chosen]
                assert isinstance(answer, AttackerPos)
                pairs.add((answer.p, pos.p))
        for t in targets:
            if t not in reached:
                reached.add(t)
                todo.append(t)
    return frozenset(pairs)


def extract_distinguishing_formula(
    game: CsGame, solution: GameSolution, pos: CsPosition | int
) -> HmlFormula:
    """Turn the attacker's winning strategy at an attacker position into a formula.

    A simulation challenge becomes a delayed observation over the unique
    defender answer; a swap challenge becomes a delayed nor over all defender
    answers (all of them attacker-won).  Recursion terminates because the
    attacker rank strictly decreases.  The result is satisfied by the
    position's process and refuted by every member of its set.
    """
    idx = pos if isinstance(pos, int) else game.index[pos]
    if not isinstance(game.positions[idx], AttackerPos):
        raise ValueError("formulas are extracted at attacker positions")
    if solution.winner[idx] is not Player.ATTACKER:
        raise ValueError("no distinguishing formula: the defender wins here")

    memo: dict[int, HmlFormula] = {}

    def build(at: int) -> HmlFormula:
        cached = memo.get(at)
        if cached is not None:
            return cached
        challenge = solution.attacker_strategy.move_from(at)
        assert challenge is not None
        target = game.positions[challenge]
        if isinstance(target, SimPos):
            (answer,) = game.graph.moves[challenge]
            result: HmlFormula = DelayObs(target.action, build(answer))
        else:
            assert isinstance(target, SwapPos)
            result = DelayNor(tuple(build(t) for t in game.graph.moves[challenge]))
        memo[at] = result
        return result

    return build(idx)


# -- deliberately weaker procedures -------------------------------------------


def naive_single_step_preorder(lts: Lts, p: int, q: int) -> bool:
    """Greatest fixed point of the single-step swap condition.

    Every weak single step of the left state must be answered by a weak step
    of the right state with the pair re-entering the relation swapped.  This
    is *unsound* for the contrasimulation preorder: word challenges through
    instable states are lost when broken into single steps.  Kept as an
    executable counterexample and for the tau-free case, where it agrees
    with the game.
    """
    lts._check_state(p)
    lts._check_state(q)
    n = lts.state_count
    alphabet = lts.visible_actions + (TAU,)
    weak = {
        (s, a): lts.weak_successors(s, a) for s in range(n) for a in alphabet
    }
    rel = {(x, y) for x in range(n) for y in range(n)}
    changed = True
    while changed:
        changed = False
        for x, y in sorted(rel):
            ok = all(
                any((y2, x2) in rel for y2 in weak[(y, a)])
                for a in alphabet
                for x2 in weak[(x, a)]
            )
            if not ok:
                rel.discard((x, y))
                changed = True
    return (p, q) in rel


@dataclass(frozen=True, slots=True)
class _WordAttacker:
    p: int
    q: int


@dataclass(frozen=True, slots=True)
class _WordChallenge:
    word: Word
    p: int
    q: int


def build_word_game(
    lts: Lts, p: int, q: int, max_word_length: int
) -> tuple[GameGraph, tuple]:
    """The word-challenge game with attacker words cut off at ``max_word_length``.

    The attacker challenges with a weak word step to some state, the
    defender must answer the same word and the sides swap.  Restricting the
    word length only removes attacker options, so the solved verdict
    over-approximates the preorder; it is exact on acyclic systems once the
    bound reaches the state count.  Returns the graph and its index-aligned
    positions.
    """
    if max_word_length < 1:
        raise ValueError("max_word_length must be at least 1")
    lts._check_state(p)
    lts._check_state(q)

    initial = _WordAttacker(p, q)
    index: dict[object, int] = {initial: 0}
    positions: list = [initial]
    moves: list[list[int]] = []
    todo: deque = deque((initial,))

    def intern(pos) -> int:
        idx = index.get(pos)
        if idx is None:
            idx = len(positions)
            index[pos] = idx
            positions.append(pos)
            todo.append(pos)
        return idx

    while todo:
        pos = todo.popleft()
        row = []
        if isinstance(pos, _WordAttacker):
            for word, frontier in lts.feasible_words(pos.p, max_word_length):
                for p2 in sorted(lts.internal_closure(frontier)):
                    row.append(intern(_WordChallenge(word, p2, pos.q)))
        else:
            assert isinstance(pos, _WordChallenge)
            for q2 in sorted(lts.weak_word_successors(pos.q, pos.word)):
                row.append(intern(_WordAttacker(q2, pos.p)))
        moves.append(row)

    owner = (
        Player.ATTACKER if isinstance(pos, _WordAttacker) else Player.DEFENDER
        for pos in positions
    )
    return GameGraph(owner, moves, initial=0), tuple(positions)


def bounded_word_game_preorder(lts: Lts, p: int, q: int, max_word_length: int) -> bool:
    graph, _ = build_word_game(lts, p, q, max_word_length)
    return solve(graph).winner[graph.initial] is Player.DEFENDER


def format_word_position(lts: Lts, pos) -> str:
    if isinstance(pos, _WordAttacker):
        return f"({lts.name_of(pos.p)}, {lts.name_of(pos.q)})"
    word = "".join(f"<{a}>" for a in pos.word) or "<>"
    return f"Challenge({word}, {lts.name_of(pos.p)}, {lts.name_of(pos.q)})"


# -- defender strategies from a known preorder ---------------------------------


def _fc_pairs(lts: Lts, relation: Iterable[tuple[int, int]]) -> set[tuple[int, StateSet]]:
    """Expand state pairs to the pairs (state, answer set) reachable by
    synchronized delay words, with trailing internal closure on the state side."""
    configs: set[tuple[int, StateSet]] = set()
    todo: deque[tuple[int, StateSet]] = deque()
    for x, y in relation:
        seed = (x, frozenset((y,)))
        if seed not in configs:
            configs.add(seed)
            todo.append(seed)
    while todo:
        p1, q_set = todo.popleft()
        here = frozenset((p1,))
        for a in lts.visible_actions:
            next_sets = lts.delay_successors(q_set, a)
            for p2 in lts.delay_successors(here, a):
                nxt = (p2, next_sets)
                if nxt not in configs:
                    configs.add(nxt)
                    todo.append(nxt)
    return {
        (p2, q_set)
        for p1, q_set in configs
        for p2 in lts.internal_closure(frozenset((p1,)))
    }


def fc_membership(
    lts: Lts, relation: Iterable[tuple[int, int]], p: int, q_set: StateSet
) -> bool:
    """Whether ``(p, q_set)`` arises from ``relation`` by some synchronized
    delay word, internal steps on the state side included."""
    lts._check_state(p)
    return (p, frozenset(q_set)) in _fc_pairs(lts, relation)


def strategy_from_fc(
    lts: Lts, game: CsGame, relation: Iterable[tuple[int, int]]
) -> PositionalStrategy:
    """A positional defender strategy built from a contrasimulation preorder.

    Simulation positions take their unique answer.  Swap positions commit to
    the lowest-index internally reachable state whose swapped pair still
    arises from the relation; where none does, the strategy is undefined.
    When the initial pair is in the relation, the strategy is defined at
    every defender position it can reach.
    """
    pairs = _fc_pairs(lts, relation)
    choice: dict[int, int] = {}
    for idx, pos in enumerate(game.positions):
        if isinstance(pos, SimPos):
            (answer,) = game.graph.moves[idx]
            choice[idx] = answer
        elif isinstance(pos, SwapPos):
            single = frozenset((pos.p,))
            for q2 in sorted(lts.internal_closure(pos.q_set)):
                if (q2, single) in pairs:
                    choice[idx] = game.index[AttackerPos(q2, single)]
                    break
    return PositionalStrategy(Player.DEFENDER, choice)


# -- presentation helpers ------------------------------------------------------


def format_state_set(lts: Lts, states: StateSet) -> str:
    return "{" + ", ".join(lts.name_of(s) for s in sorted(states)) + "}"


def format_position(lts: Lts, pos: CsPosition) -> str:
    if isinstance(pos, AttackerPos):
        return f"({lts.name_of(pos.p)}, {format_state_set(lts, pos.q_set)})"
    if isinstance(pos, SimPos):
        return (
            f"Sim({pos.action}, {lts.name_of(pos.p)}, "
            f"{format_state_set(lts, pos.q_set)})"
        )
    if isinstance(pos, SwapPos):
        return f"Swap({lts.name_of(pos.p)}, {format_state_set(lts, pos.q_set)})"
    raise TypeError(f"unknown position {pos!r}")
