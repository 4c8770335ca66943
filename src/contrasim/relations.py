"""Coinductive relation checkers and fixed-point oracles.

These are the desk-scale ground truth the game procedures are checked
against: straightforward pair-deletion loops and exhaustive configuration
enumeration, optimized for auditability rather than speed.  All checkers
treat relations as plain sets of ordered state-index pairs over one LTS.
"""

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .lts import Action, Lts, StateSet, TAU, Word

Pair = tuple[int, int]


def _as_relation(lts: Lts, relation: Iterable[Pair]) -> frozenset[Pair]:
    rel = frozenset(relation)
    for p, q in rel:
        lts._check_state(p)
        lts._check_state(q)
    return rel


# -- weak simulation -----------------------------------------------------------


@dataclass(frozen=True)
class SimulationViolation:
    """A strong step of the left state that the right state cannot answer."""

    p: int
    q: int
    action: Action
    p_after: int


def weak_simulation_violation(
    lts: Lts, relation: Iterable[Pair]
) -> Optional[SimulationViolation]:
    rel = _as_relation(lts, relation)
    for p, q in sorted(rel):
        for action in lts.visible_actions + (TAU,):
            for p2 in sorted(lts.strong_successors(p, action)):
                answers = lts.weak_successors(q, action)
                if not any((p2, q2) in rel for q2 in answers):
                    return SimulationViolation(p, q, action, p2)
    return None


def is_weak_simulation(lts: Lts, relation: Iterable[Pair]) -> bool:
    """Every strong step on the left is matched by a weak step on the right,
    with the successors related again."""
    return weak_simulation_violation(lts, relation) is None


def is_weak_simulation_words(
    lts: Lts, relation: Iterable[Pair], max_word_length: int
) -> bool:
    """The word-based reformulation of the weak simulation condition, checked
    for all words up to the given length (exact on acyclic systems once the
    bound reaches the state count)."""
    rel = _as_relation(lts, relation)
    for p, q in rel:
        for word, _ in lts.feasible_words(p, max_word_length):
            for p2 in lts.weak_word_successors(p, word):
                answers = lts.weak_word_successors(q, word)
                if not any((p2, q2) in rel for q2 in answers):
                    return False
    return True


# -- contrasimulation ----------------------------------------------------------


@dataclass(frozen=True)
class ContrasimulationViolation:
    """A synchronized configuration where some internally reachable left
    state has no related answer in the right set."""

    p: int
    q: int
    word: Word
    config_state: int
    config_set: StateSet
    p_after: int


def _pair_configs(lts: Lts, p: int, q: int):
    """Configurations (state, answer set, word) reachable from (p, {q}) under
    synchronized delay steps."""
    seed = (p, frozenset((q,)))
    seen = {seed}
    todo = deque(((p, frozenset((q,)), ()),))
    while todo:
        p1, q_set, word = todo.popleft()
        yield p1, q_set, word
        here = frozenset((p1,))
        for a in lts.visible_actions:
            next_set = lts.delay_successors(q_set, a)
            for p2 in sorted(lts.delay_successors(here, a)):
                key = (p2, next_set)
                if key not in seen:
                    seen.add(key)
                    todo.append((p2, next_set, word + (a,)))


def contrasimulation_violation(
    lts: Lts, relation: Iterable[Pair]
) -> Optional[ContrasimulationViolation]:
    rel = _as_relation(lts, relation)
    for p, q in sorted(rel):
        for p1, q_set, word in _pair_configs(lts, p, q):
            answers = lts.internal_closure(q_set)
            for p2 in sorted(lts.internal_closure(frozenset((p1,)))):
                if not any((q2, p2) in rel for q2 in answers):
                    return ContrasimulationViolation(p, q, word, p1, q_set, p2)
    return None


def is_contrasimulation(lts: Lts, relation: Iterable[Pair]) -> bool:
    """Exact check of the word-quantified condition: every weak word step on
    the left is matched on the right with the pair re-entering the relation
    swapped.

    Words never need enumerating: configurations track the exact answer set
    for each challenge prefix, and trailing internal closure on both sides
    accounts for where weak word steps may end.
    """
    return contrasimulation_violation(lts, relation) is None


def check_coupling(lts: Lts, relation: Iterable[Pair]) -> bool:
    """Every related pair admits an internal move on the right that reverses
    the orientation inside the relation."""
    rel = _as_relation(lts, relation)
    return all(
        any((q2, p) in rel for q2 in lts.internal_closure(frozenset((q,))))
        for p, q in rel
    )


# -- greatest fixed points -----------------------------------------------------


def contrasim_preorder(lts: Lts) -> frozenset[Pair]:
    """The full contrasimulation preorder, by pair deletion from the total
    relation until the contrasimulation condition stabilizes.

    The synchronized configurations of every pair are computed once; the
    deletion sweeps only re-evaluate the membership tests against them.
    """
    n = lts.state_count
    closure_of = [lts.internal_closure(frozenset((s,))) for s in range(n)]
    configs: dict[Pair, list[tuple[tuple[int, ...], frozenset[int]]]] = {}
    for p in range(n):
        for q in range(n):
            entries = []
            for p1, q_set, _ in _pair_configs(lts, p, q):
                entries.append(
                    (tuple(sorted(closure_of[p1])), lts.internal_closure(q_set))
                )
            configs[(p, q)] = entries

    rel = {(p, q) for p in range(n) for q in range(n)}
    # column[x] = states currently related to x from the left.
    column: list[set[int]] = [set(range(n)) for _ in range(n)]
    changed = True
    while changed:
        changed = False
        for pair in sorted(rel):
            ok = all(
                not answers.isdisjoint(column[p2])
                for left_closure, answers in configs[pair]
                for p2 in left_closure
            )
            if not ok:
                rel.discard(pair)
                column[pair[1]].discard(pair[0])
                changed = True
    return frozenset(rel)


def _gfp_simulation(lts: Lts, match_weak: bool, symmetric: bool) -> frozenset[Pair]:
    n = lts.state_count
    alphabet = lts.visible_actions + (TAU,)
    strong = {(s, a): sorted(lts.strong_successors(s, a)) for s in range(n) for a in alphabet}
    if match_weak:
        answer = {(s, a): lts.weak_successors(s, a) for s in range(n) for a in alphabet}
    else:
        answer = strong

    def simulates(p: int, q: int, rel: set[Pair]) -> bool:
        return all(
            any((p2, q2) in rel for q2 in answer[(q, a)])
            for a in alphabet
            for p2 in strong[(p, a)]
        )

    rel = {(p, q) for p in range(n) for q in range(n)}
    changed = True
    while changed:
        changed = False
        for p, q in sorted(rel):
            ok = simulates(p, q, rel)
            if ok and symmetric:
                ok = simulates(q, p, rel)
            if not ok:
                rel.discard((p, q))
                if symmetric:
                    rel.discard((q, p))
                changed = True
    return frozenset(rel)


def weak_sim_preorder(lts: Lts) -> frozenset[Pair]:
    """The weak simulation preorder (the greatest weak simulation)."""
    return _gfp_simulation(lts, match_weak=True, symmetric=False)


def weak_bisimilarity(lts: Lts) -> frozenset[Pair]:
    """The greatest symmetric relation that is a weak simulation both ways."""
    return _gfp_simulation(lts, match_weak=True, symmetric=True)


def strong_bisimilarity(lts: Lts) -> frozenset[Pair]:
    """The greatest symmetric relation matching every strong step (internal
    ones included) by exactly one strong step."""
    return _gfp_simulation(lts, match_weak=False, symmetric=True)


def interleaved_compose(r1: Iterable[Pair], r2: Iterable[Pair]) -> frozenset[Pair]:
    """The interleaved concatenation of two relations: compositions in both
    orders, united.  Preserves being a contrasimulation."""
    a = frozenset(r1)
    b = frozenset(r2)
    by_left_b: dict[int, list[int]] = {}
    for x, y in b:
        by_left_b.setdefault(x, []).append(y)
    by_left_a: dict[int, list[int]] = {}
    for x, y in a:
        by_left_a.setdefault(x, []).append(y)
    out = {(p, r) for p, q in a for r in by_left_b.get(q, ())}
    out |= {(p, r) for p, q in b for r in by_left_a.get(q, ())}
    return frozenset(out)
