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
(attacker).  The attacker's reflexive swap leads from ``AttackerPos(p, {q})``
to ``AttackerPos(q, {p})``, so one game decides both directions of an
equivalence: :func:`solve_cs_game_locally` is asked for the pairs
``[(p, q), (q, p)]`` and returns one root per pair.

One expander does the per-position work: it keys positions by ints over
interned defender sets, generates each position's moves, and records the
positions in the parallel lists of :class:`CsGame`, which decodes them into
the position records above on demand.  Two searches run it.
:func:`build_cs_game` expands the whole reachable game breadth-first: the
graph the DOT export draws, and the reference the local search is tested
against.  :func:`solve_cs_game_locally`, which decides every query, expands
positions over the smallest defender sets first, propagates attacker wins
as soon as a position's moves are known, and stops once the attacker wins
every queried root.  The defender wins every attacker position ``(p, Q)``
with ``p`` in ``Q``, by copying the attacker: a simulation answer contains
``p``'s own delay step, which keeps ``p`` in ``Q``, and a swap to ``p'`` is
answered by ``p'``.  So the local search leaves each such position, once
taken, to the defender without expanding it (it is copied), and answers a
swap ``SwapPos(p', Q)`` with ``p'`` in the internal closure of ``Q`` by
that mirror answer alone, ``AttackerPos(p', {p'})``, which is copied in
turn.  A holding check thus explores only part of the game.  The
certificate extractors read the lists directly; the relation takes the
identity on the states reachable from each copied position.

The module also carries a deliberately weaker procedure kept for
comparison: a word mode of the same game, in which the attacker challenges
with a word of at most a given length and a swap (see
:func:`cs_successors`).  Its empty-word challenges are the reflexive
swaps, so it too decides both directions in one game.  Its swaps are
mirrored and its positions copied the same way; the certificate extractors
raise ``ValueError`` on it (:attr:`CsGame.word_bound`).  At bound 1 its
words are single weak steps, and it decides the naive single-step fixed
point, which is unsound for the preorder.
"""

from collections import deque
from functools import cached_property
from types import SimpleNamespace
from typing import AbstractSet, Iterable, Mapping, Sequence, Union

from .errors import PositionBudgetError
from .game import (
    DEFAULT_MAX_POSITIONS,
    GameGraph,
    GameSolution,
    Player,
    PositionalStrategy,
    solve,
)
from .hml import DelayNor, DelayObs, HmlFormula
from .lts import Action, Lts, StateSet
from .record import Record


class AttackerPos(Record):
    __slots__ = _fields = ("p", "q_set")

    def __init__(self, p: int, q_set: StateSet):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q_set", q_set)


class SimPos(Record):
    __slots__ = _fields = ("action", "p", "q_set")

    def __init__(self, action: Action, p: int, q_set: StateSet):
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q_set", q_set)


class SwapPos(Record):
    __slots__ = _fields = ("p", "q_set")

    def __init__(self, p: int, q_set: StateSet):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q_set", q_set)


CsPosition = Union[AttackerPos, SimPos, SwapPos]

Relation = frozenset[tuple[int, int]]


def cs_successors(
    lts: Lts, pos: CsPosition, word_bound: int | None = None
) -> list[CsPosition]:
    """Legal moves from a position, in a fixed deterministic order.

    Challenges use delay steps (leading internal behavior, then the action);
    swap answers apply internal closure to the defender's set.  An attacker
    position always has at least the reflexive swap challenge; a swap over
    the empty set has no answers.  This is the executable specification that
    the set-game expander follows move for move.

    With ``word_bound``, the attacker at ``(p, Q)`` challenges with a word
    instead: for each feasible word ``w`` of at most ``word_bound`` letters
    (:meth:`Lts.feasible_words`) and each ``p'`` in the internal closure of
    its delay frontier from ``p``, a swap ``SwapPos(p', Q after w)``, each
    distinct swap listed once.  The expander lists the same swaps in the
    order of the configurations it walks, not by word.
    """
    if isinstance(pos, AttackerPos) and word_bound is not None:
        out = []
        for word, frontier in lts.feasible_words(pos.p, word_bound):
            answers = lts.word_successors(word, pos.q_set)
            out += [SwapPos(p2, answers) for p2 in sorted(lts.internal_closure(frontier))]
        return list(dict.fromkeys(out))
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


# Position kinds, as stored in CsGame.kinds.
ATTACKER, SIM, SWAP = 0, 1, 2

_OWNER = (Player.ATTACKER, Player.DEFENDER, Player.DEFENDER)


class CsGame(Record):
    """The reachable part of the set game, index-aligned with its GameGraph.

    Position ``i`` is stored in parallel lists: its kind ``kinds[i]``
    (``ATTACKER``, ``SIM`` or ``SWAP``), the attacker's state ``states[i]``,
    the defender's set ``q_sets[q_ids[i]]`` and, for a simulation challenge,
    the index ``actions[i]`` into ``lts.visible_actions`` (-1 otherwise).
    Every distinct set is stored once.  ``positions`` and ``index`` decode
    the lists into ``AttackerPos``/``SimPos``/``SwapPos`` values on first
    use.  The lists must not be mutated.

    A game explored by :func:`solve_cs_game_locally` may stop short of the
    reachable game: ``frontier`` lists the positions whose moves were never
    generated, and in ``graph`` each of them is a defender position whose
    one move leads to itself.  Among them are the copied positions, the
    attacker positions ``(p, Q)`` with ``p`` in ``Q``, which the defender
    wins by copying the attacker.  ``word_bound`` is the bound of a word
    game, ``None`` for the set game.
    """

    _fields = (
        "lts", "graph", "kinds", "states", "q_ids", "actions", "q_sets", "frontier", "word_bound"
    )

    def __init__(
        self, lts: Lts, graph: GameGraph, kinds: list[int], states: list[int],
        q_ids: list[int], actions: list[int], q_sets: list[StateSet],
        frontier: tuple[int, ...] = (), word_bound: int | None = None,
    ):
        self._set(lts, graph, kinds, states, q_ids, actions, q_sets, frontier, word_bound)

    @cached_property
    def positions(self) -> tuple[CsPosition, ...]:
        visible = self.lts.visible_actions
        out: list[CsPosition] = []
        for kind, p, qid, ai in zip(self.kinds, self.states, self.q_ids, self.actions):
            q_set = self.q_sets[qid]
            if kind == ATTACKER:
                out.append(AttackerPos(p, q_set))
            elif kind == SIM:
                out.append(SimPos(visible[ai], p, q_set))
            else:
                out.append(SwapPos(p, q_set))
        return tuple(out)

    @cached_property
    def index(self) -> Mapping[CsPosition, int]:
        return {pos: idx for idx, pos in enumerate(self.positions)}

    @property
    def initial_position(self) -> CsPosition:
        return self.positions[self.graph.initial]

    @property
    def move_count(self) -> int:
        """Moves of the expanded positions: the one move of each frontier
        position is not counted."""
        return self.graph.move_count - len(self.frontier)


def _expander(lts: Lts, max_positions: int, word_bound: int | None = None) -> SimpleNamespace:
    """The per-position work of the set game, shared by its two searches.

    Returns the lists that :class:`CsGame` keeps, as far as the game is
    expanded, and three functions.  ``row(i)`` lists the moves of position
    ``i`` and adds the positions they reach if they are new: in
    :func:`cs_successors` order, except that a word-game attacker row lists
    its swaps in configuration order (below); ``attacker(p, q)`` is the
    index of ``AttackerPos(p, {q})``, added if it is new; ``game(moves,
    frontier)`` wraps the lists and the given rows into a :class:`CsGame`,
    each position owned as its kind says, except that the frontier
    positions are the defender's.

    A position is keyed by one int, ``((q_id * width + a) * n + s) * 3 +
    kind``.  Each distinct set is interned once; its internal closure and
    its delay successor per action are computed on first use and then
    looked up, and each state's challenges are listed once, from its own
    strong steps and internal closure.  ``add`` is the one place where
    positions are created, so it enforces the position budget.

    The word game lists no words.  Its attacker at ``(s, Q)`` walks the
    configurations ``(s', Q')`` that at most ``word_bound`` synchronized
    delay steps reach, breadth-first and each once: a simulation challenge
    of ``s'`` by ``a`` leads to ``(s'', Q' after a)``.  The row is the swaps
    of each configuration, from ``s'`` over ``Q'``, in the order the walk
    finds them, each listed once.  ``s'`` lies in its own internal closure,
    so each configuration is itself one of the row's swaps: the walk is no
    longer than the row, and the position budget bounds both.
    """
    if word_bound is not None and word_bound < 1:
        raise ValueError("word_bound must be at least 1")
    n = lts.state_count
    visible = lts.visible_actions
    width = max(len(visible), 1)
    stride = width * n * 3  # key distance between consecutive set ids
    closure = lts._closure
    strong = lts._strong  # strong[s][a]: the Lts's own successor set of s by a
    empty: StateSet = frozenset()

    q_sets: list[StateSet] = []
    q_index: dict[StateSet, int] = {}
    answers: list[list[int] | None] = []  # sorted internal closure per set id
    delay: list[int] = []  # delay[q_id * width + a]: set id of the a-step, -1 if not yet known
    singleton = [-1] * n  # set id of {s}, -1 if not yet known
    challenges: list[list | None] = [None] * n  # per state: challenges_of(s), once listed

    def intern(q_set: StateSet) -> int:
        qid = q_index.get(q_set)
        if qid is None:
            qid = len(q_sets)
            q_index[q_set] = qid
            q_sets.append(q_set)
            answers.append(None)
            delay.extend([-1] * width)
        return qid

    def closed(qid: int) -> list[int]:
        reached = answers[qid]
        if reached is None:
            reached = answers[qid] = sorted(empty.union(*map(closure.__getitem__, q_sets[qid])))
        return reached

    def single(s: int) -> int:
        qid = singleton[s]
        if qid < 0:
            # A state without internal steps is its own closure: reuse that set.
            qid = singleton[s] = intern(closure[s] if len(closure[s]) == 1 else frozenset((s,)))
        return qid

    def challenges_of(s: int) -> list[tuple[int, int, int, int]]:
        """(key offset, kind, state, action index) of each challenge from ``s``."""
        out = []
        here = closure[s]
        stable = len(here) == 1
        for ai, a in enumerate(visible):
            # the delay successors of s by a
            if stable:
                targets = strong[s].get(a, empty)
            else:
                targets = empty.union(*[strong[s2].get(a, empty) for s2 in here])
            if targets:
                out += [((ai * n + s2) * 3 + SIM, SIM, s2, ai) for s2 in sorted(targets)]
        out += [(s2 * 3 + SWAP, SWAP, s2, -1) for s2 in sorted(here)]
        challenges[s] = out
        return out

    def delay_of(qid: int, ai: int) -> int:
        here = closed(qid)
        a = visible[ai]
        if len(here) == 1:
            target = strong[here[0]].get(a, empty)  # a lone stable state: no new set
        else:
            target = empty.union(*[strong[s].get(a, empty) for s in here])
        delay[qid * width + ai] = target_id = intern(target)
        return target_id

    kinds: list[int] = []
    states: list[int] = []
    q_ids: list[int] = []
    actions: list[int] = []
    index: dict[int, int] = {}  # position key -> position index

    def add(key: int, kind: int, s: int, qid: int, ai: int) -> int:
        idx = len(kinds)
        if idx == max_positions:
            raise PositionBudgetError(max_positions)
        index[key] = idx
        kinds.append(kind)
        states.append(s)
        q_ids.append(qid)
        actions.append(ai)
        return idx

    def attacker(p: int, q: int) -> int:
        qid = single(q)
        key = qid * stride + p * 3 + ATTACKER
        idx = index.get(key)
        return add(key, ATTACKER, p, qid, -1) if idx is None else idx

    def row(at: int) -> tuple[int, ...]:
        kind, s, qid = kinds[at], states[at], q_ids[at]
        out = []
        if kind == ATTACKER and word_bound is not None:
            # The configuration walk, breadth-first, each (s', Q') once.
            configs = [(s, qid, word_bound)]  # with the delay steps left
            seen = {qid * n + s}
            for s1, q1, left in configs:  # grows while it is walked: the queue
                base = q1 * stride
                for offset, kind2, s2, ai in challenges[s1] or challenges_of(s1):
                    if kind2 == SWAP:
                        key = base + offset
                        idx = index.get(key)
                        out.append(add(key, SWAP, s2, q1, -1) if idx is None else idx)
                    elif left:
                        target = delay[q1 * width + ai]
                        if target < 0:
                            target = delay_of(q1, ai)
                        config = target * n + s2
                        if config not in seen:
                            seen.add(config)
                            configs.append((s2, target, left - 1))
            out = list(dict.fromkeys(out))  # two configurations may offer one swap
        elif kind == ATTACKER:
            base = qid * stride
            for offset, kind2, s2, ai in challenges[s] or challenges_of(s):
                key = base + offset
                idx = index.get(key)
                out.append(add(key, kind2, s2, qid, ai) if idx is None else idx)
        elif kind == SIM:
            ai = actions[at]
            target = delay[qid * width + ai]
            if target < 0:
                target = delay_of(qid, ai)
            key = target * stride + s * 3 + ATTACKER
            idx = index.get(key)
            out.append(add(key, ATTACKER, s, target, -1) if idx is None else idx)
        else:
            swapped = single(s)
            base = swapped * stride
            for s2 in closed(qid):
                key = base + s2 * 3 + ATTACKER
                idx = index.get(key)
                out.append(add(key, ATTACKER, s2, swapped, -1) if idx is None else idx)
        return tuple(out)

    def game(moves: Iterable[Iterable[int]], frontier: tuple[int, ...] = ()) -> CsGame:
        owner = [_OWNER[k] for k in kinds]
        for i in frontier:
            owner[i] = Player.DEFENDER
        # Each move is generated once, or deduplicated, so no row holds a duplicate.
        graph = GameGraph.from_unique_rows(owner, moves)
        return CsGame(lts, graph, kinds, states, q_ids, actions, q_sets, frontier, word_bound)

    return SimpleNamespace(
        kinds=kinds, states=states, q_ids=q_ids, q_sets=q_sets,
        closed=closed, row=row, attacker=attacker, game=game,
    )


def build_cs_game(
    lts: Lts, p: int, q: int, max_positions: int = DEFAULT_MAX_POSITIONS,
    word_bound: int | None = None,
) -> CsGame:
    """Breadth-first closure of the move relation from ``AttackerPos(p, {q})``.

    Produces the positions and moves of a breadth-first search over
    :func:`cs_successors`, in the same order; with ``word_bound``, the same
    positions and the same successor set per position, each word-game
    attacker row in configuration order.  The construction is finite
    because there are at most (|actions|+2) * |S| * 2^|S| positions; more
    than ``max_positions`` raise :class:`PositionBudgetError`.
    """
    lts._check_state(p)
    lts._check_state(q)
    expander = _expander(lts, max_positions, word_bound)
    expander.attacker(p, q)
    kinds, row = expander.kinds, expander.row
    # Positions are appended in discovery order, so walking the lists in
    # index order is the breadth-first queue.
    moves = []
    while len(moves) < len(kinds):
        moves.append(row(len(moves)))
    return expander.game(moves)


def solve_cs_game_locally(
    lts: Lts, pairs: Sequence[tuple[int, int]],
    max_positions: int = DEFAULT_MAX_POSITIONS, word_bound: int | None = None,
) -> tuple[CsGame, GameSolution, tuple[int, ...]]:
    """Decide the set game at ``AttackerPos(p, {q})`` for each queried pair
    ``(p, q)`` of ``pairs``, in one game, expanding only the positions they
    need; with ``word_bound``, the bounded word game, whose attacker
    challenges with words (:func:`cs_successors`), walked as delay steps
    over configurations and bounded by the same ``max_positions``.  Both
    directions of an equivalence are the pairs ``[(p, q), (q, p)]``.

    Returns the explored game, its solution and the roots, one position
    index per pair, in order (a repeated pair repeats its root).
    This is the local algorithm of Liu & Smolka (ICALP 1998): once a
    position's moves are known, attacker wins propagate backward over the
    known edges, with one pending counter per defender position as in
    :func:`solve`.  The next position to expand is one over the smallest
    defender set; among those the last one queued, where a row's new
    positions are queued, each by the size of its own set, so that its first
    move comes first.  A smaller set only helps the attacker, and at the
    empty set the reflexive swap wins at once, so it is expanded next.
    Exploration stops when the attacker has won every root but the copied
    ones (below), or when no unexpanded position is left.

    From any attacker position ``(p, Q)`` with ``p`` in ``Q`` the defender
    keeps ``p`` in ``Q``: a simulation answer contains ``p``'s own delay
    step, and a swap to ``p'`` is answered by ``p'``; in the word game the
    defender answers every word with the attacker's own path.  So such a
    position is copied: when it is taken, it is left unexpanded, a defender
    position that moves to itself.  A swap ``SwapPos(p', Q)`` whose ``p'``
    lies in the internal closure of ``Q`` is expanded to one move, the
    mirror answer ``AttackerPos(p', {p'})``, which is copied.  Copied positions and
    mirrored swaps are defender wins in the whole game and in the pruned
    one, and every other position keeps its winner.

    In the explored game every unexpanded position, listed in
    :attr:`CsGame.frontier`, is a defender position whose only move leads to
    itself, so no attacker win is claimed through it.  The solution is
    ``solve(game.graph)``; :func:`solve` ranks only the region the search
    found won, which is that game's attractor, since each win is propagated
    over the known moves before the next position is expanded.
    """
    for p, q in pairs:
        lts._check_state(p)
        lts._check_state(q)
    n = lts.state_count
    expander = _expander(lts, max_positions, word_bound)
    roots = tuple([expander.attacker(p, q) for p, q in pairs])
    kinds, states, q_ids, q_sets = expander.kinds, expander.states, expander.q_ids, expander.q_sets
    closed, row_of, attacker = expander.closed, expander.row, expander.attacker
    count = len(kinds)
    moves: list[tuple[int, ...] | None] = [None] * count  # None until expanded
    preds: list[list[int] | None] = [[] for _ in range(count)]  # expanded predecessors
    pending = [0] * count  # moves not yet won, per expanded defender position
    won = [False] * count
    # buckets[k]: positions over a set of k states, to be expanded last in, first out.
    buckets: list[list[int]] = [[] for _ in range(n + 1)]
    buckets[1] += reversed(roots)
    lowest = 1
    # A copied root, (p, {p}), is the defender's: the search waits for the others only.
    undecided = {root for root, (p, q) in zip(roots, pairs) if p != q}

    while undecided:
        bucket = buckets[lowest]
        if not bucket:
            if lowest == n:
                break
            lowest += 1
            continue
        at = bucket.pop()
        if moves[at] is not None:
            continue
        kind = kinds[at]
        if kind == ATTACKER and states[at] in q_sets[q_ids[at]]:
            continue  # copied: the defender wins by copying the attacker
        if kind == SWAP and states[at] in closed(q_ids[at]):
            # The mirror answer: the defender swaps to the attacker's own state.
            row = moves[at] = (attacker(states[at], states[at]),)
        else:
            row = moves[at] = row_of(at)
        if len(kinds) > count:
            for i in range(len(kinds) - 1, count - 1, -1):
                k = len(q_sets[q_ids[i]])
                if k < lowest:
                    lowest = k
                buckets[k].append(i)
                moves.append(None)
                preds.append([])
                pending.append(0)
                won.append(False)
            count = len(kinds)
        if kind == ATTACKER:
            for t in row:
                if won[t]:
                    won[at] = True
                    break
                preds[t].append(at)  # left behind if ``at`` is won: then skipped
            else:
                if not q_sets[q_ids[at]]:
                    s = states[at]
                    buckets[0].append(next(t for t in row if kinds[t] == SWAP and states[t] == s))
                continue
        else:
            left = 0
            for t in row:
                if not won[t]:
                    left += 1
                    preds[t].append(at)
            if left:
                pending[at] = left
                continue
            won[at] = True
        # Pass the new win back over the known edges.
        stack = [at]
        while stack:
            w = stack.pop()
            undecided.discard(w)
            for u in preds[w]:
                if won[u]:
                    continue
                if kinds[u] == ATTACKER:
                    won[u] = True
                    stack.append(u)
                else:
                    pending[u] -= 1
                    if not pending[u]:
                        won[u] = True
                        stack.append(u)
            preds[w] = None  # a won position gains no predecessors

    del preds, pending, buckets
    frontier = tuple(i for i, row in enumerate(moves) if row is None)
    for i in frontier:
        moves[i] = (i,)
    game = expander.game(moves, frontier)
    del expander, row_of, attacker  # frees the position index before solving
    return game, solve(game.graph, won), roots


def decide_preorder(lts: Lts, p: int, q: int) -> bool:
    """True iff the defender wins the set game started at ``(p, {q})``."""
    _, solution, (root,) = solve_cs_game_locally(lts, [(p, q)])
    return solution.winner[root] is Player.DEFENDER


def decide_equivalence(lts: Lts, p: int, q: int) -> bool:
    """Both preorders, read off one game at its two roots."""
    _, solution, roots = solve_cs_game_locally(lts, [(p, q), (q, p)])
    return all(solution.winner[root] is Player.DEFENDER for root in roots)


# -- certificates -------------------------------------------------------------


def extract_contrasimulation(
    game: CsGame, solution: GameSolution, roots: Iterable[int] | None = None
) -> Relation:
    """Read a relation off the defender's winning strategy.

    ``roots`` are attacker positions over a single defender state, by
    default the initial position.  The result contains the pair of each
    root plus, for every swap answer inside the play subgraph from the
    roots (all attacker moves, only the strategy's defender moves), the
    swapped pair it commits to.  A copied position, an attacker position that moves to itself, adds
    ``(s, s)`` for every state ``s`` reachable from its state, since from
    there the defender copies the attacker; one walk over the system's
    steps covers all of them.  The relation always passes the independent
    contrasimulation check.  A word game raises ``ValueError``: a defender
    win there gives no contrasimulation.
    """
    if game.word_bound is not None:
        raise ValueError("no contrasimulation to extract from a word game")
    roots = (game.graph.initial,) if roots is None else tuple(roots)
    kinds, states = game.kinds, game.states
    pairs = set()
    for root in roots:
        if solution.winner[root] is not Player.DEFENDER:
            raise ValueError("no contrasimulation to extract: the attacker wins")
        q_set = game.q_sets[game.q_ids[root]]
        if kinds[root] != ATTACKER or len(q_set) != 1:
            raise ValueError("relations are extracted at attacker positions over one state")
        pairs.add((states[root], *q_set))

    reached = set(roots)
    todo = deque(roots)
    copied = []  # states of the copied positions met
    while todo:
        idx = todo.popleft()
        if kinds[idx] == ATTACKER:
            targets: Iterable[int] = game.graph.moves[idx]
            if targets == (idx,):
                copied.append(states[idx])
        else:
            chosen = solution.defender_strategy.move_from(idx)
            if chosen is None:
                # Unreachable for a winning strategy from a won position.
                raise ValueError(f"defender strategy undefined at {game.positions[idx]!r}")
            targets = (chosen,)
            if kinds[idx] == SWAP:
                pairs.add((states[chosen], states[idx]))
        for t in targets:
            if t not in reached:
                reached.add(t)
                todo.append(t)

    # The identity on the states reachable from the copied ones.
    strong = game.lts._strong
    seen = set(copied)
    while copied:
        for targets in strong[copied.pop()].values():
            copied += targets - seen
            seen |= targets
    pairs.update((s, s) for s in seen)
    return frozenset(pairs)


def extract_distinguishing_formula(game: CsGame, solution: GameSolution, idx: int) -> HmlFormula:
    """Turn the attacker's winning strategy at the attacker position with
    index ``idx`` into a formula.

    A simulation challenge becomes a delayed observation over the unique
    defender answer; a swap challenge becomes a delayed nor over the distinct
    formulas of all defender answers (all of them attacker-won), in the
    order of their first answers.  The attacker rank strictly decreases from
    a position to each answer of its challenge, so the explicit stack below
    never revisits a position it is still building.
    The result is satisfied by the position's process and refuted by every
    member of its set.  A word game raises ``ValueError``: its challenges
    are a word then a swap, not one step.
    """
    if game.word_bound is not None:
        raise ValueError("no distinguishing formula is extracted from a word game")
    if game.kinds[idx] != ATTACKER:
        raise ValueError("formulas are extracted at attacker positions")
    if solution.winner[idx] is not Player.ATTACKER:
        raise ValueError("no distinguishing formula: the defender wins here")

    visible = game.lts.visible_actions
    choice = solution.attacker_strategy.choice
    moves, kinds, actions = game.graph.moves, game.kinds, game.actions
    memo: dict[int, HmlFormula] = {}
    stack = [idx]
    while stack:
        at = stack[-1]
        if at in memo:
            stack.pop()
            continue
        challenge = choice[at]
        answers = moves[challenge]
        if kinds[challenge] == SIM:
            (answer,) = answers
            body = memo.get(answer)
            if body is None:
                stack.append(answer)
                continue
            memo[at] = DelayObs(visible[actions[challenge]], body)
        else:
            missing = [t for t in answers if t not in memo]
            if missing:
                stack += missing
                continue
            memo[at] = DelayNor(tuple(dict.fromkeys([memo[t] for t in answers])))
        stack.pop()
    return memo[idx]


# -- deliberately weaker procedures -------------------------------------------


def naive_single_step_preorder(lts: Lts, p: int, q: int) -> bool:
    """Whether ``(p, q)`` lies in the greatest fixed point of the single-step
    swap condition: every weak step of the left state is answered by a weak
    step of the right one with the pair re-entering the relation swapped.
    That is the word game at bound 1 (:func:`bounded_word_game_preorder`):
    a word of at most one letter is a single weak step.  *Unsound* for the
    contrasimulation preorder, as word challenges through instable states
    are lost when broken into single steps; kept as an executable
    counterexample and for the tau-free case, where it agrees with the game.
    """
    return bounded_word_game_preorder(lts, p, q, 1)


def build_word_game(
    lts: Lts, p: int, q: int, max_word_length: int,
    max_positions: int = DEFAULT_MAX_POSITIONS,
) -> tuple[GameGraph, tuple[CsPosition, ...]]:
    """The whole bounded word game: :func:`build_cs_game` with ``word_bound``,
    as ``(graph, positions)``; kept for ``perfbench/spans.py``."""
    game = build_cs_game(lts, p, q, max_positions, word_bound=max_word_length)
    return game.graph, game.positions


def bounded_word_game_preorder(lts: Lts, p: int, q: int, max_word_length: int) -> bool:
    """Whether the defender wins the word game with attacker words cut off
    at ``max_word_length`` from ``(p, {q})``.  Restricting the word length
    only removes attacker options, so the verdict over-approximates the
    preorder; it is exact on acyclic systems once the bound reaches the
    state count."""
    _, solution, (root,) = solve_cs_game_locally(lts, [(p, q)], word_bound=max_word_length)
    return solution.winner[root] is Player.DEFENDER


# -- defender strategies from a known preorder ---------------------------------


def strategy_from_fc(
    game: CsGame, configs: AbstractSet[tuple[int, StateSet]]
) -> PositionalStrategy:
    """A positional defender strategy built from a contrasimulation preorder,
    given as its configurations ``configs``, as
    :func:`contrasim.relations.fc_pairs` lists them for ``game.lts``.

    Simulation positions take their unique answer.  Swap positions commit to
    their first answer, in state order, whose swapped pair still arises
    from the relation; where none does, the strategy is undefined.  When
    the initial pair is in the relation, the strategy is defined at every
    defender position it can reach.
    """
    states, q_ids, q_sets, moves = game.states, game.q_ids, game.q_sets, game.graph.moves
    choice: dict[int, int] = {}
    for idx, kind in enumerate(game.kinds):
        if kind == SIM:
            choice[idx] = moves[idx][0]
        elif kind == SWAP:
            for t in moves[idx]:
                if (states[t], q_sets[q_ids[t]]) in configs:
                    choice[idx] = t
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


format_word_position = format_position  # kept for ``perfbench/spans.py``
