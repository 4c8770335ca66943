"""Simple reachability games: two players move a token along a graph.

The attacker wins exactly the finite plays that strand the defender on a
defender-owned position without moves; the defender wins every other play,
in particular all infinite ones.  Winning regions are computed by a backward
attractor pass that runs in time linear in the number of moves, using
reverse edges and per-position out-degree counters.
"""

from collections import deque
from enum import Enum
from itertools import compress
from typing import Callable, Iterable, Optional, Sequence

from .record import Record

# The default bound on the positions of a game that a query builds.
DEFAULT_MAX_POSITIONS = 1_000_000


class Player(Enum):
    ATTACKER = "attacker"
    DEFENDER = "defender"


class GameGraph:
    """A bipartite move graph with a total owner partition and an initial position.

    Adjacency lists are deduplicated at construction (moves form a relation).
    Instances are immutable after construction.  The empty graph is allowed
    as a degenerate value (for serialization); plays require positions.
    """

    __slots__ = ("owner", "moves", "initial")

    def __init__(self, owner: Iterable[Player], moves: Iterable[Iterable[int]], initial: int = 0):
        self.owner: tuple[Player, ...] = tuple(owner)
        n = len(self.owner)
        rows = []
        for targets in moves:
            seen = set()
            row = []
            for t in targets:
                if not (0 <= t < n):
                    raise IndexError(f"move target {t} outside 0..{n - 1}")
                if t not in seen:
                    seen.add(t)
                    row.append(t)
            rows.append(tuple(row))
        if len(rows) != n:
            raise ValueError(f"{n} owners but {len(rows)} adjacency rows")
        self.moves: tuple[tuple[int, ...], ...] = tuple(rows)
        if n > 0 and not (0 <= initial < n):
            raise IndexError(f"initial position {initial} outside 0..{n - 1}")
        self.initial = initial

    @classmethod
    def from_unique_rows(
        cls, owner: Iterable[Player], moves: Iterable[Iterable[int]], initial: int = 0
    ) -> "GameGraph":
        """A graph whose rows are already in range and free of duplicates,
        as the set game generates them, in its word mode too, and as the
        pair games of :mod:`contrasim.relations` do: the rows are taken
        without the constructor's checks."""
        graph = cls.__new__(cls)
        graph.owner = tuple(owner)
        graph.moves = tuple(map(tuple, moves))
        graph.initial = initial
        return graph

    @property
    def position_count(self) -> int:
        return len(self.owner)

    @property
    def move_count(self) -> int:
        return sum(len(row) for row in self.moves)


class PositionalStrategy(Record):
    """A partial next-move map for one player, keyed by position index."""

    _fields = ("player", "choice")

    def __init__(self, player: Player, choice: Optional[dict[int, int]] = None):
        self._set(player, {} if choice is None else choice)

    def move_from(self, position: int) -> Optional[int]:
        return self.choice.get(position)


class GameSolution(Record):
    """The winner of each position, both players' strategies and the
    attacker ranks.  ``attacker_rank`` is, per position, 0 on stuck defender
    positions, one more than the chosen successor along attacker wins, one
    more than the highest-ranked successor on other won defender positions,
    and None (infinity) on defender-won positions.  solve() gives the least
    such ranks, the attractor levels, also when it is handed a won region."""

    _fields = ("winner", "attacker_strategy", "defender_strategy", "attacker_rank")

    def __init__(
        self, winner: tuple[Player, ...], attacker_strategy: PositionalStrategy,
        defender_strategy: PositionalStrategy, attacker_rank: tuple[Optional[int], ...],
    ):
        self._set(winner, attacker_strategy, defender_strategy, attacker_rank)


def solve(graph: GameGraph, won: Optional[Sequence[bool]] = None) -> GameSolution:
    """Compute winning regions, positional strategies, and attacker ranks.

    The attacker-won region is the least set that contains every defender
    position without moves and is closed under attacker positions with some
    won successor and defender positions with only won successors.  The BFS
    order makes ranks strictly decrease along attacker strategy moves and
    along every move out of a won defender position.  The defender takes
    its first move that is not won.

    ``won``, when given, flags a set of positions that contains every
    attacker-won one, such as the region a local search found won.  Only the
    moves out of it are walked backward; since the pass meets the won
    positions in the same order, the solution is the one without ``won``.
    """
    n = graph.position_count
    owner, moves = graph.owner, graph.moves
    preds: list[list[int]] = [[] for _ in range(n)]
    for src in range(n) if won is None else compress(range(n), won):
        for dst in moves[src]:
            preds[dst].append(src)

    attacker, defender = Player.ATTACKER, Player.DEFENDER
    rank: list[Optional[int]] = [None] * n
    pending = [len(row) for row in moves]
    attacker_choice: dict[int, int] = {}
    queue: deque[int] = deque()

    for g in range(n):
        if owner[g] is defender and not moves[g]:
            rank[g] = 0
            queue.append(g)

    while queue:
        w = queue.popleft()
        for u in preds[w]:
            if rank[u] is not None:
                continue
            if owner[u] is attacker:
                rank[u] = rank[w] + 1
                attacker_choice[u] = w
                queue.append(u)
            else:
                pending[u] -= 1
                if pending[u] == 0:
                    rank[u] = rank[w] + 1
                    queue.append(u)

    defender_choice: dict[int, int] = {}
    for g, (who, row) in enumerate(zip(owner, moves)):
        if who is defender and rank[g] is None:
            for t in row:
                if rank[t] is None:
                    defender_choice[g] = t
                    break

    return GameSolution(
        winner=tuple([defender if r is None else attacker for r in rank]),
        attacker_strategy=PositionalStrategy(attacker, attacker_choice),
        defender_strategy=PositionalStrategy(defender, defender_choice),
        attacker_rank=tuple(rank),
    )


def validate_play(graph: GameGraph, play: Sequence[int], strategy: PositionalStrategy) -> bool:
    """True iff ``play`` is a legal path from the initial position that obeys
    ``strategy`` wherever the strategy owns the position and is defined."""
    if not play or play[0] != graph.initial:
        return False
    for here, nxt in zip(play, play[1:]):
        if nxt not in graph.moves[here]:
            return False
        if graph.owner[here] is strategy.player:
            chosen = strategy.move_from(here)
            if chosen is not None and chosen != nxt:
                return False
    return True


class PlayOutcome(Enum):
    DEFENDER_STUCK = "defender-stuck"
    ATTACKER_STUCK = "attacker-stuck"
    STEP_BUDGET_REACHED = "step-budget-reached"


Adversary = Callable[[GameGraph, int], int]


def simulate_play(
    graph: GameGraph,
    strategy: PositionalStrategy,
    adversary: Adversary,
    max_steps: int,
) -> tuple[list[int], PlayOutcome]:
    """Play ``strategy`` against an adversary callback until someone is stuck.

    The strategy's player counts as stuck when the strategy has no move at a
    position it owns.  Hitting the step budget reports the defender as
    surviving; that is evidence, not proof, of a defender win.
    """
    position = graph.initial
    play = [position]
    for _ in range(max_steps):
        mover = graph.owner[position]
        options = graph.moves[position]
        if mover is strategy.player:
            nxt = strategy.move_from(position)
            if nxt is None:
                return play, _stuck(mover)
            if nxt not in options:
                raise ValueError(
                    f"strategy proposes illegal move {position} -> {nxt}"
                )
        else:
            if not options:
                return play, _stuck(mover)
            nxt = adversary(graph, position)
            if nxt not in options:
                raise ValueError(
                    f"adversary proposes illegal move {position} -> {nxt}"
                )
        position = nxt
        play.append(position)
    return play, PlayOutcome.STEP_BUDGET_REACHED


def _stuck(player: Player) -> PlayOutcome:
    if player is Player.DEFENDER:
        return PlayOutcome.DEFENDER_STUCK
    return PlayOutcome.ATTACKER_STUCK
