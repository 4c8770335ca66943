"""The traced pass: the calls ``cli.run_check`` makes, each inside a span.

:func:`traced_check` calls the same public functions that ``run_check``
calls, in the same order, and records one ``query`` span per query with a
child span around each layer call.  Span names read ``<layer>.<step>``,
where the layer is the ``contrasim`` module that does the work; whatever
the ``query`` span's children do not cover is glue (``query.self_ms``).
Spans stay in memory until the run writes them out.
"""

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from contrasim import csgame, relations
from contrasim.aut import parse_aut
from contrasim.ccs import expand_ccs_roots, parse_ccs
from contrasim.game import Player, solve
from contrasim.hml import DelayNor, DelayObs, format_formula
from contrasim.lts import Lts

from workloads import Query


@dataclass
class Span:
    name: str
    query: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    error: Optional[str] = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """Records spans; a disabled tracer records nothing and costs a call."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.query = -1

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(name, self.query, parent, time.perf_counter())
        self.spans.append(record)
        self._open.append(idx)
        try:
            yield
        except BaseException as exc:
            # The innermost span an exception leaves is the failing layer.
            if not any(s.error for s in self.spans[idx + 1:]):
                record.error = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            self._open.pop()


@dataclass
class TracedResult:
    """What the traced pipeline computed for one query, for the checks and
    counters that run after its ``query`` span has closed."""

    lts: Lts
    lhs: int
    rhs: int
    results: list[bool]
    certificate: Optional[str] = None
    games: list = field(default_factory=list)  # (CsGame, GameSolution)
    formula: object = None
    relation_pairs: int = 0
    ccs_states: int = 0


def _relation_line(lts: Lts, pairs) -> str:
    named = ((lts.name_of(p), lts.name_of(q)) for p, q in sorted(pairs))
    return "relation: [" + ", ".join(f"({p}, {q})" for p, q in named) + "]"


def traced_check(query: Query, model_dir: Path, tr: Tracer) -> TracedResult:
    """Mirror of ``cli.run_check`` for one query, with a span per layer call."""
    path = model_dir / query.model
    text = path.read_text()
    ccs_states = 0
    if path.suffix == ".aut":
        with tr.span("aut.parse"):
            lts, _ = parse_aut(text)
        lhs, rhs = int(query.lhs), int(query.rhs)
    else:
        with tr.span("ccs.parse"):
            program = parse_ccs(text)
        with tr.span("ccs.expand"):
            lts, (lhs, rhs) = expand_ccs_roots(program, [query.lhs, query.rhs])
        ccs_states = lts.state_count
    # The front ends build the Lts themselves; rebuilding it from the same
    # transitions times the constructor and its tau closure on their own.
    with tr.span("lts.build"):
        Lts(lts.state_count, lts.transitions, lts.state_names)

    directions = [(lhs, rhs)]
    if query.direction == "equivalence":
        directions.append((rhs, lhs))
    out = TracedResult(lts, lhs, rhs, [], ccs_states=ccs_states)

    if query.notion == "contrasim":
        for p, q in directions:
            with tr.span("csgame.build"):
                game = csgame.build_cs_game(lts, p, q)
            with tr.span("game.solve"):
                solution = solve(game.graph)
            out.games.append((game, solution))
            out.results.append(solution.winner[game.graph.initial] is Player.DEFENDER)
        if all(out.results):
            pairs: set[tuple[int, int]] = set()
            with tr.span("csgame.extract"):
                for game, solution in out.games:
                    pairs |= csgame.extract_contrasimulation(game, solution)
            out.relation_pairs = len(pairs)
            out.certificate = _relation_line(lts, pairs)
        else:
            game, solution = out.games[out.results.index(False)]
            with tr.span("csgame.extract"):
                out.formula = csgame.extract_distinguishing_formula(
                    game, solution, game.graph.initial
                )
            with tr.span("hml.format"):
                out.certificate = "formula: " + format_formula(out.formula)
        first = out.games[0][0]
        with tr.span("csgame.labels"):
            [csgame.format_position(lts, pos) for pos in first.positions]
    elif query.notion == "bounded-word-game":
        for i, (p, q) in enumerate(directions):
            with tr.span("csgame.word_game"):
                graph, positions = csgame.build_word_game(lts, p, q, query.word_bound)
            if i == 0:
                with tr.span("csgame.labels"):
                    [csgame.format_word_position(lts, pos) for pos in positions]
            with tr.span("game.solve"):
                solution = solve(graph)
            out.results.append(solution.winner[graph.initial] is Player.DEFENDER)
    elif query.notion == "naive-contrasim-1step":
        with tr.span("csgame.naive"):
            for p, q in directions:
                out.results.append(csgame.naive_single_step_preorder(lts, p, q))
    else:
        oracle = {
            "weak-sim": relations.weak_sim_preorder,
            "weak-bisim": relations.weak_bisimilarity,
            "strong-bisim": relations.strong_bisimilarity,
        }[query.notion]
        with tr.span("relations.oracle"):
            related = oracle(lts)
        out.results = [(p, q) in related for p, q in directions]
        if all(out.results):
            out.relation_pairs = len(related)
            out.certificate = _relation_line(lts, related)
    return out


# -- counters, taken after the query span has closed ------------------------------


def strategy_positions(game, solution) -> int:
    """Positions of the winner's strategy subgraph from the initial position:
    the winner follows its strategy, the loser takes every move."""
    graph = game.graph
    defender_wins = solution.winner[graph.initial] is Player.DEFENDER
    seen = {graph.initial}
    todo = deque(seen)
    while todo:
        idx = todo.popleft()
        if (graph.owner[idx] is Player.DEFENDER) == defender_wins:
            strategy = solution.defender_strategy if defender_wins else solution.attacker_strategy
            targets = [strategy.move_from(idx)]
        else:
            targets = graph.moves[idx]
        for t in targets:
            if t is not None and t not in seen:
                seen.add(t)
                todo.append(t)
    return len(seen)


def formula_nodes(formula) -> int:
    """Distinct nodes of a formula DAG."""
    seen = {id(formula)}
    todo = [formula]
    while todo:
        node = todo.pop()
        if isinstance(node, DelayObs):
            children = (node.body,)
        elif isinstance(node, DelayNor):
            children = node.branches
        else:
            children = ()
        for child in children:
            if id(child) not in seen:
                seen.add(id(child))
                todo.append(child)
    return len(seen)


def count_result(result: TracedResult, counts: dict) -> None:
    """Add one query's counters to ``counts``."""
    lts = result.lts
    counts["lts.states"] += lts.state_count
    counts["lts.transitions"] += len(lts.transitions)
    counts["lts.tau_edges"] += sum(1 for _, a, _ in lts.transitions if a.is_tau)
    counts["ccs.states"] += result.ccs_states
    counts["relations.relation_pairs"] += result.relation_pairs
    for game, solution in result.games:
        kinds = {"attacker": 0, "sim": 0, "swap": 0}
        q_sets = set()
        for pos in game.positions:
            kind = ("attacker" if isinstance(pos, csgame.AttackerPos)
                    else "sim" if isinstance(pos, csgame.SimPos) else "swap")
            kinds[kind] += 1
            q_sets.add(pos.q_set)
            counts["csgame.q_max"] = max(counts["csgame.q_max"], len(pos.q_set))
        for kind, n in kinds.items():
            counts[f"csgame.positions.{kind}"] += n
        counts["csgame.positions"] += game.graph.position_count
        counts["csgame.moves"] += game.graph.move_count
        counts["csgame.q_sets_distinct"] += len(q_sets)
        counts["csgame.strategy_positions"] += strategy_positions(game, solution)
        counts["game.attacker_won"] += sum(1 for w in solution.winner if w is Player.ATTACKER)
        rank = solution.attacker_rank[game.graph.initial]
        if rank is not None:
            counts["game.initial_rank_sum"] += rank
            counts["game.attacker_won_games"] += 1
    if result.formula is not None:
        counts["hml.formula_nodes"] += formula_nodes(result.formula)
        counts["hml.formula_chars"] += len(result.certificate) - len("formula: ")
