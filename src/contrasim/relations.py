"""Coinductive relation checkers and fixed-point oracles.

The checkers (``is_weak_simulation``, ``is_contrasimulation``,
``check_coupling``) and ``contrasim_preorder`` are the ground truth the
game procedures are checked against: exhaustive configuration enumeration
and a pair-deletion fixed point, written to be audited.  All of them treat
relations as plain sets of ordered state-index pairs over one LTS.

Weak similarity, weak bisimilarity and the naive single-step fixed point
of :mod:`contrasim.csgame` answer queries of the command line, so they
share one counter-based refinement, :func:`_greatest_fixed_point`, which
handles each deleted pair once.  The pair-deletion loops it replaced are
kept in the tests as its reference.  Strong bisimilarity comes from
partition refinement instead, :func:`strong_classes`, whose classes the
command line also quotients a system by before deciding any notion but
contrasimilarity.
"""

from collections import deque
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Hashable, Iterable, Optional

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


def _step_tables(lts: Lts, *, weak: bool) -> list[list[StateSet]]:
    """Per action of ``visible_actions + (TAU,)``, every state's strong
    successors, or its weak ones (for tau, its internal closure)."""
    strong, closure = lts._strong, lts._closure
    empty: StateSet = frozenset()
    tables = []
    for action in lts.visible_actions + (TAU,):
        if not weak:
            tables.append([steps.get(action, empty) for steps in strong])
        elif action.is_tau:
            tables.append(list(closure))
        else:
            row = []
            for reach in closure:
                delay: set[int] = set()
                for s in reach:
                    delay |= strong[s].get(action, empty)
                out: set[int] = set()
                for s in delay:
                    out |= closure[s]
                row.append(frozenset(out))
            tables.append(row)
    return tables


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _flags(bits: Iterable[bool]) -> int:
    """Booleans as one byte each, packed little-endian into an int."""
    return int.from_bytes(bytes(bits), "little")


def _greatest_fixed_point(
    left: list[list[StateSet]],
    right: list[list[StateSet]],
    swapped: bool = False,
    symmetric: bool = False,
) -> frozenset[Pair]:
    """The greatest relation ``R`` in which, for every ``(x, y)`` in ``R``,
    every action ``a`` and every ``x2`` in ``left[a][x]``, some ``y2`` in
    ``right[a][y]`` has ``(x2, y2)`` in ``R`` (``(y2, x2)`` if ``swapped``);
    with ``symmetric``, the greatest such relation closed under mirroring.

    Counter-based refinement (Henzinger, Henzinger & Kopke, FOCS 1995):
    ``count[t][a*n + q]`` is the number of q's right ``a``-answers still
    related to ``t``.  Every pair leaves the relation once and is then
    popped from the worklist once, decrementing the counters of the right
    predecessors of its answer side; a counter that reaches zero deletes the
    left predecessors of ``t`` paired with ``q``.  Cost is O(n * m) for n
    states and m table entries.
    """
    n = len(left[0])
    actions = range(len(left))
    left_pred = [[[] for _ in range(n)] for _ in actions]
    # right_pred[y2]: (counter index a*n + q, q, left_pred[a]) for each q
    # that answers an a-step with y2.
    right_pred: list[list[tuple[int, int, list[list[int]]]]] = [[] for _ in range(n)]
    degree = [0] * (len(left) * n)
    left_mask = [0] * n
    right_mask = [0] * n
    for a in actions:
        bit = 1 << a
        for x, succ in enumerate(left[a]):
            if succ:
                left_mask[x] |= bit
                for t in succ:
                    left_pred[a][t].append(x)
        for q, succ in enumerate(right[a]):
            if succ:
                right_mask[q] |= bit
                degree[a * n + q] = len(succ)
                for y2 in succ:
                    right_pred[y2].append((a * n + q, q, left_pred[a]))

    # Start from the pairs whose right side answers every action the left
    # side can take (both ways if symmetric).
    states = range(n)
    covers = {m: _flags(not m & ~r for r in right_mask) for m in set(left_mask)}
    if symmetric:
        covered = {r: _flags(not m & ~r for m in left_mask) for r in set(right_mask)}
    rel: list[bytearray] = []
    for x in states:
        bits = covers[left_mask[x]]
        if symmetric:
            bits &= covered[right_mask[x]]
        rel.append(bytearray(bits.to_bytes(n, "little")))
    initially_gone = [row.translate(_FLIP) for row in rel]

    # The worklist holds each deleted pair as (t, y2): the left successor
    # and the right answer it no longer relates.  The pairs missing from
    # the start are fed in one row at a time, which keeps the list short.
    count: list[Optional[list[int]]] = [None] * n
    work: list[Pair] = []
    for x in states:
        gone = compress(states, initially_gone[x])
        work.extend(zip(gone, repeat(x)) if swapped else zip(repeat(x), gone))
        while work:
            t, y2 = work.pop()
            preds = right_pred[y2]
            if not preds:
                continue
            counts = count[t]
            if counts is None:
                counts = count[t] = degree[:]
            for c, q, left_pred_a in preds:
                remaining = counts[c] - 1
                counts[c] = remaining
                if remaining:
                    continue
                for p in left_pred_a[t]:
                    row = rel[p]
                    if row[q]:
                        row[q] = 0
                        work.append((q, p) if swapped else (p, q))
                        if symmetric and p != q:
                            rel[q][p] = 0
                            work.append((p, q) if swapped else (q, p))
    return frozenset((x, y) for x in states for y in compress(states, rel[x]))


def strong_classes(lts: Lts) -> list[int]:
    """The strong-bisimulation class of every state, as dense ints numbered
    in the order of the classes' smallest members.

    A state's *signature* is the set of (action, class) pairs of its steps,
    internal ones included; strong bisimilarity is the coarsest partition
    whose classes hold states of equal signature only.  It is found in two
    parts, by loops only:

    * A well-founded state has no infinite path, so it is bisimilar to
      well-founded states only.  These states are classed successors first
      (Kahn's order over out-degrees), each once, by its signature over
      classes that are already final.
    * The rest start as one block and are refined by signature (Paige &
      Tarjan 1987; Valmari 2009).  When a block splits, its largest part
      keeps the block's id and the others get new ones, so a state changes
      id O(log n) times, and only the predecessors of states that changed
      are signed again, unless they are alone in their block.  Signing
      every state each round would take n rounds on an n-chain.
    """
    n = lts.state_count
    strong = lts._strong
    action_id = {a: i for i, a in enumerate(lts.visible_actions + (TAU,))}
    width = len(action_id)
    degree = [sum(map(len, steps.values())) for steps in strong]
    preds: list[list[int]] = [[] for _ in range(n)]  # one entry per transition
    for s, steps in enumerate(strong):
        for targets in steps.values():
            for t in targets:
                preds[t].append(s)
    block = [-1] * n  # the class of a well-founded state, the block of another

    def signature(s: int) -> Hashable:
        """``s``'s steps as ``block * width + action`` ints: their frozenset,
        or the int itself when there is just one."""
        if degree[s] == 1:
            ((a, (t,)),) = strong[s].items()
            return block[t] * width + action_id[a]
        steps = frozenset(
            [block[t] * width + action_id[a] for a, targets in strong[s].items() for t in targets]
        )
        return next(iter(steps)) if len(steps) == 1 else steps

    class_of: dict[Hashable, int] = {}  # signature -> class of a well-founded state
    pending = degree[:]  # steps into states not yet classed
    order = [s for s in range(n) if not degree[s]]
    for s in order:  # grows while it is walked
        key = signature(s)
        c = class_of.get(key)
        if c is None:
            c = class_of[key] = len(class_of)
        block[s] = c
        for p in preds[s]:
            left = pending[p] - 1
            pending[p] = left
            if not left:
                order.append(p)

    if len(order) < n:
        # Every predecessor of these states is one of them.
        start = len(class_of)
        touched = [s for s in range(n) if block[s] < 0]
        for s in touched:
            block[s] = start
        members = {start: set(touched)}
        # Between rounds, each member of a block that is not touched has the
        # block's signature.
        block_signature: dict[int, Hashable] = {start: None}
        while touched:
            split: dict[int, dict[Hashable, list[int]]] = {}
            for s in touched:
                split.setdefault(block[s], {}).setdefault(signature(s), []).append(s)
            moved: list[int] = []
            for b, by_signature in split.items():
                mine, old = members[b], block_signature[b]
                untouched = len(mine) - sum(map(len, by_signature.values()))
                if untouched:
                    by_signature.setdefault(old, [])  # listed only if they move
                if len(by_signature) == 1:
                    (block_signature[b],) = by_signature
                    continue
                size = {sig: len(states) for sig, states in by_signature.items()}
                if untouched:
                    size[old] += untouched
                keep = block_signature[b] = max(size, key=size.get)
                for sig, states in by_signature.items():
                    if sig is keep:
                        continue
                    if untouched and sig == old:
                        states = mine.difference(
                            *(others for other, others in by_signature.items() if other is not sig)
                        )
                    new = start + len(block_signature)
                    block_signature[new] = sig
                    members[new] = set(states)
                    mine.difference_update(states)
                    for t in states:
                        block[t] = new
                    moved += states
            touched = [  # a block of one state cannot split
                p for p in {p for s in moved for p in preds[s]} if len(members[block[p]]) > 1
            ]

    dense: dict[int, int] = {}
    return [dense.setdefault(b, len(dense)) for b in block]


def weak_sim_preorder(lts: Lts) -> frozenset[Pair]:
    """The weak simulation preorder (the greatest weak simulation)."""
    return _greatest_fixed_point(_step_tables(lts, weak=False), _step_tables(lts, weak=True))


def weak_bisimilarity(lts: Lts) -> frozenset[Pair]:
    """The greatest symmetric relation that is a weak simulation both ways."""
    return _greatest_fixed_point(
        _step_tables(lts, weak=False), _step_tables(lts, weak=True), symmetric=True
    )


def strong_bisimilarity(lts: Lts) -> frozenset[Pair]:
    """The greatest symmetric relation matching every strong step (internal
    ones included) by exactly one strong step: the pairs of states in one
    class of :func:`strong_classes`."""
    members: dict[int, list[int]] = {}
    for s, c in enumerate(strong_classes(lts)):
        members.setdefault(c, []).append(s)
    return frozenset((p, q) for group in members.values() for p in group for q in group)


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
