"""Coinductive relation checkers, fixed-point oracles and bisimulation
classes.

The checkers (``is_weak_simulation``, ``is_contrasimulation``,
``check_coupling``) and ``contrasim_preorder`` are the ground truth the
game procedures are checked against: exhaustive configuration enumeration
and a pair-deletion fixed point, written to be audited.  All of them treat
relations as plain sets of ordered state-index pairs over one LTS.  The
contrasimulation checker, the oracle and :func:`fc_pairs`, whose
configurations :func:`contrasim.csgame.strategy_from_fc` turns into a
defender strategy, share one walk over the configurations (state, answer
set) that related pairs reach by synchronized delay words; the checker
walks only the ⊆-minimal sets of each state.

Weak similarity has two engines, and both take the system itself; only
this module knows how its strong and weak steps are tabulated.  Queried
pairs are decided by a pair game, :func:`solve_pair_game`, built from
those pairs only and solved by :func:`contrasim.game.solve`.  The whole
preorder, :func:`weak_sim_preorder`, which a holding ``weak-sim``
certificate prints, comes from a counter-based refinement that handles
each deleted pair once and keeps a byte per pair and, while the counts
fit in one, per counter, where the pair game with every pair a root would
hold (|actions| + 2)·n² positions.  Pair-deletion loops are kept in the
tests as the reference of both.
Strong and weak bisimilarity come from partition refinement instead:
:func:`strong_classes` and :func:`weak_classes` class the states, and the
bisimilarity relates the states of one class.

Weak classes give a smaller system on which every notion defined by
transferring weak steps has the same answer:

* **Construction.**  Let ``≈`` be weak bisimilarity.  ``S/≈`` has a step
  ``[s] -a-> [t]`` for every step ``s -a-> t``, except internal steps from
  a class to itself (:meth:`contrasim.lts.Lts.quotient`).
* **Lemma.**  For every state ``p`` and word ``w``, the classes of the
  states ``p`` reaches by the weak word step ``w`` are the classes
  ``[p]`` reaches by ``w`` in ``S/≈``.  Every step maps to a step or to a
  dropped internal self-loop, which gives one inclusion; ``{(s, [s])}`` is
  a weak bisimulation (Milner 1989), which gives the other.  Both hold for
  any partition finer than ``≈``, the strong classes included.
* **Consequences.**  Contrasimilarity, weak similarity, weak bisimilarity,
  the naive single-step fixed point and the bounded word game are the same
  on ``S`` and on ``S/≈``: ``(p, q)`` is in a greatest relation on ``S``
  iff ``([p], [q])`` is in it on ``S/≈``, and relating every member of
  related classes turns a relation of one of these kinds on ``S/≈`` into
  one on ``S`` (for contrasimulations, apply the lemma once per side of
  the swap).  A formula of the paper's fragment holds at ``p`` iff it
  holds at ``[p]``, since the fragment is invariant under weak
  bisimilarity.  Strong bisimilarity is not among them; it is "same
  strong class".

The command line decides weak similarity, the naive fixed point and the
bounded word game on ``S/≈``, each on a game built from the queried pairs
only (the naive fixed point is the word game at bound 1), and the
bisimilarities by class; contrasimilarity stays on the model.  The
library deciders run on the system they are given and are the oracles it
is tested against.
"""

from collections import deque
from itertools import compress, repeat
from typing import AbstractSet, Hashable, Iterable, Mapping, Optional, Sequence

from .errors import PositionBudgetError
from .game import DEFAULT_MAX_POSITIONS, GameGraph, Player, solve
from .lts import Action, Lts, StateSet, TAU, Word
from .record import Record

Pair = tuple[int, int]


def _as_relation(lts: Lts, relation: Iterable[Pair]) -> frozenset[Pair]:
    rel = frozenset(relation)
    for p, q in rel:
        lts._check_state(p)
        lts._check_state(q)
    return rel


# -- weak simulation -----------------------------------------------------------


class SimulationViolation(Record):
    """A strong step of the left state that the right state cannot answer."""

    _fields = ("p", "q", "action", "p_after")

    def __init__(self, p: int, q: int, action: Action, p_after: int):
        self._set(p, q, action, p_after)


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


class ContrasimulationViolation(Record):
    """A synchronized configuration where some internally reachable left
    state has no related answer in the right set."""

    _fields = ("p", "q", "word", "config_state", "config_set", "p_after")

    def __init__(
        self, p: int, q: int, word: Word, config_state: int, config_set: StateSet, p_after: int
    ):
        self._set(p, q, word, config_state, config_set, p_after)


def _configs(lts: Lts, seeds: Iterable[Pair], minimal: bool = False):
    """Each configuration (state, answer set) reached by synchronized delay
    steps from ``(p, {q})`` of a seed ``(p, q)``, once, as ``(state, set,
    seed, word)`` with the first seed and a shortest word that reach it.
    The seeds are walked breadth-first in order over one seen-set, so a
    walk stops where an earlier one has been; delay steps are computed once
    per set and per state for the whole walk.

    With ``minimal``, a configuration whose set contains a set already
    walked for the same state is skipped, with all it would reach: the
    walk keeps the ⊆-minimal sets per state, an antichain (De Wulf,
    Doyen, Henzinger & Raskin, CAV 2006).  Delay steps and internal
    closure are monotone in the set, so whatever a skipped configuration
    would reach is reached over a subset from the walked one."""
    visible = lts.visible_actions
    seen: set[tuple[int, StateSet]] = set()
    walked: dict[int, list[StateSet]] = {}  # with ``minimal``: the minimal sets per state
    # the delay step of each set and each state, per visible action
    steps: dict[StateSet, list[StateSet]] = {}
    moves: dict[int, list[list[int]]] = {}
    for seed in seeds:
        p, q = seed
        start = (p, frozenset((q,)))
        if start in seen:
            continue
        seen.add(start)
        todo = deque(((*start, ()),))
        while todo:
            p1, q_set, word = todo.popleft()
            if minimal:
                sets = walked.setdefault(p1, [])
                if any(walked_set <= q_set for walked_set in sets):
                    continue
                sets[:] = [walked_set for walked_set in sets if not q_set <= walked_set]
                sets.append(q_set)
            yield p1, q_set, seed, word
            next_sets = steps.get(q_set)
            if next_sets is None:
                next_sets = steps[q_set] = [lts.delay_successors(q_set, a) for a in visible]
            targets = moves.get(p1)
            if targets is None:
                here = frozenset((p1,))
                targets = moves[p1] = [sorted(lts.delay_successors(here, a)) for a in visible]
            for a, next_set, p2s in zip(visible, next_sets, targets):
                for p2 in p2s:
                    key = (p2, next_set)
                    if key not in seen:
                        seen.add(key)
                        todo.append((p2, next_set, word + (a,)))


def fc_pairs(lts: Lts, relation: Iterable[Pair]) -> set[tuple[int, StateSet]]:
    """The configurations (state, answer set) that the relation's pairs
    reach by synchronized delay words (:func:`_configs`), each with every
    state internally reachable from its state: ``(p, Q)`` is in it iff it
    arises from the relation, internal steps of ``p`` included."""
    return {(p2, q_set) for p1, q_set, _, _ in _configs(lts, relation) for p2 in lts._closure[p1]}


def contrasimulation_violation(
    lts: Lts, relation: Iterable[Pair]
) -> Optional[ContrasimulationViolation]:
    """The first configuration of :func:`_configs` over the sorted relation
    with an internally reachable state that no related swapped pair answers
    from the set's internal closure, named by the seed and word reaching it.

    Violations are downward-closed in the set: a smaller set has fewer
    answers.  So the walk skips every configuration whose set contains one
    already walked for its state, and it still finds the violation that
    the whole walk finds first."""
    rel = _as_relation(lts, relation)
    closures: dict[StateSet, StateSet] = {}
    for p1, q_set, (p, q), word in _configs(lts, sorted(rel), minimal=True):
        answers = closures.get(q_set)
        if answers is None:
            answers = closures[q_set] = lts.internal_closure(q_set)
        for p2 in sorted(lts._closure[p1]):
            if not any((q2, p2) in rel for q2 in answers):
                return ContrasimulationViolation(p, q, word, p1, q_set, p2)
    return None


def is_contrasimulation(lts: Lts, relation: Iterable[Pair]) -> bool:
    """Exact check of the word-quantified condition: every weak word step on
    the left is matched on the right with the pair re-entering the relation
    swapped.

    Words never need enumerating: configurations track the exact answer set
    for each challenge prefix, and trailing internal closure on both sides
    accounts for where weak word steps may end.  Every configuration the
    related pairs reach is checked, each once.
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
            configs[(p, q)] = [
                (tuple(sorted(closure_of[p1])), lts.internal_closure(q_set))
                for p1, q_set, _, _ in _configs(lts, ((p, q),))
            ]

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


def _step_tables(lts: Lts) -> tuple[list[list[StateSet]], list[list[AbstractSet[int]]]]:
    """Per action of ``visible_actions + (TAU,)``, every state's strong
    successors, the challenges of weak simulation, and its weak ones (for
    tau, its internal closure), the answers."""
    empty: StateSet = frozenset()
    rows = _weak_steps(lts, range(lts.state_count))
    strong = [[row.get(a, empty) for row in lts._strong] for a in lts.visible_actions + (TAU,)]
    weak = [[row.get(a, empty) for row in rows] for a in lts.visible_actions]
    return strong, weak + [list(lts._closure)]


def _weak_steps(lts: Lts, classes: Sequence[int]) -> list[dict[Action, AbstractSet[int]]]:
    """Per class of ``classes``, a partition finer than weak bisimilarity
    and numbered by smallest members, the classes its smallest member
    reaches by a weak step: under each visible action, and under ``TAU`` by
    internal steps alone, the class itself left out.  An action that
    reaches no class has no entry."""
    steps, closure = lts._strong, lts._closure
    smallest: list[int] = []  # smallest[c]: the smallest member of class c
    for s, c in enumerate(classes):
        if c == len(smallest):
            smallest.append(s)
    # Per class: the classes of its internal closure, and its visible steps
    # each followed by that closure.
    within = [frozenset([classes[t] for t in closure[s]]) for s in smallest]
    after = [
        {a: _NO_STEPS.union(*[within[classes[t]] for t in targets])
         for a, targets in steps[s].items() if a is not TAU}
        for s in smallest
    ]
    rows: list[dict[Action, AbstractSet[int]]] = []
    for c, reach in enumerate(within):
        row: dict[Action, AbstractSet[int]] = {}
        for d in reach:
            for a, targets in after[d].items():
                row.setdefault(a, set()).update(targets)
        if len(reach) > 1:
            row[TAU] = reach.difference((c,))
        rows.append(row)
    return rows


def weak_sim_preorder(lts: Lts, max_pairs: float = float("inf")) -> frozenset[Pair]:
    """The weak simulation preorder: the greatest relation ``R`` in which,
    for every ``(x, y)`` in ``R``, every action ``a`` and every strong
    ``a``-step of ``x`` to ``x2``, some weak ``a``-step of ``y`` to ``y2``
    has ``(x2, y2)`` in ``R``.  More than ``max_pairs`` pairs raise
    :class:`PositionBudgetError` before any pair is built.

    Counter-based refinement (Henzinger, Henzinger & Kopke, FOCS 1995):
    ``count[t][a*n + q]`` is the number of q's weak ``a``-answers still
    related to ``t``.  Every pair leaves the relation once and is then
    popped from the worklist once, decrementing the counters of the weak
    predecessors of its answer side (every state is its own, by its
    internal closure); a counter that reaches zero deletes the strong
    predecessors of ``t`` paired with ``q``.  A counter never exceeds its
    degree, so the counters are bytes while every degree fits in one.
    Cost is O(n * m) for n states and m table entries: every pair is
    decided.
    """
    from array import array  # here: every query imports this module, few need it

    strong, weak = _step_tables(lts)
    n = lts.state_count
    actions = range(len(strong))
    strong_pred = [[[] for _ in range(n)] for _ in actions]
    # weak_pred[y2]: (counter index a*n + q, q, strong_pred[a]) for each q
    # that answers an a-step with y2.
    weak_pred: list[list[tuple[int, int, list[list[int]]]]] = [[] for _ in range(n)]
    degree = [0] * (len(strong) * n)
    strong_mask = [0] * n
    weak_mask = [0] * n
    for a in actions:
        bit = 1 << a
        for x, succ in enumerate(strong[a]):
            if succ:
                strong_mask[x] |= bit
                for t in succ:
                    strong_pred[a][t].append(x)
        for q, succ in enumerate(weak[a]):
            if succ:
                weak_mask[q] |= bit
                degree[a * n + q] = len(succ)
                for y2 in succ:
                    weak_pred[y2].append((a * n + q, q, strong_pred[a]))
    degree = array("B" if max(degree, default=0) < 256 else "I", degree)

    # Start from the pairs whose right side answers every action the left
    # side can take; per left action mask, a byte per right state.
    states = range(n)
    covers = {m: bytes([not m & ~r for r in weak_mask]) for m in set(strong_mask)}
    gaps = {m: bytes([bool(m & ~r) for r in weak_mask]) for m in covers}
    rel = [bytearray(covers[m]) for m in strong_mask]

    # The worklist holds each deleted pair.  The pairs missing from the start
    # are fed in one row at a time, which keeps the list short.
    count: list[Optional[array]] = [None] * n
    work: list[Pair] = []
    for x in states:
        work.extend(zip(repeat(x), compress(states, gaps[strong_mask[x]])))
        while work:
            t, y2 = work.pop()
            counts = count[t]
            if counts is None:
                counts = count[t] = degree[:]
            for c, q, strong_pred_a in weak_pred[y2]:
                remaining = counts[c] - 1
                counts[c] = remaining
                if remaining:
                    continue
                for p in strong_pred_a[t]:
                    row = rel[p]
                    if row[q]:
                        row[q] = 0
                        work.append((p, q))
    size = sum(map(sum, rel))
    if size > max_pairs:  # lifted from classes, the pairs are at least as many
        raise PositionBudgetError(max_pairs, size, at_least=True)
    return frozenset((x, y) for x in states for y in compress(states, rel[x]))


def solve_pair_game(
    lts: Lts, roots: Iterable[Pair], max_positions: int = DEFAULT_MAX_POSITIONS
) -> frozenset[Pair]:
    """The pairs of ``roots`` in :func:`weak_sim_preorder`: the defender's
    wins of a game built breadth-first from the roots and solved by
    :func:`solve`.

    The attacker at ``(x, y)`` picks an action ``a`` and a strong
    ``a``-step of ``x`` to ``x2`` and moves to the defender position
    ``(a, x2, y)``, which every ``x`` shares; the defender answers with a
    weak ``a``-step of ``y`` to ``y2`` and moves to ``(x2, y2)``, and is
    stuck without answers.  More than ``max_positions`` positions raise
    :class:`PositionBudgetError`.
    """
    strong, weak = _step_tables(lts)
    n = lts.state_count
    square = n * n  # (x, y) is keyed x*n + y, (a, x2, y) (a+1)*n*n + x2*n + y
    index: dict[int, int] = {}  # position key -> position index
    keys: list[int] = []

    def add(key: int) -> int:
        idx = index.get(key)
        if idx is None:
            idx = len(keys)
            if idx == max_positions:
                raise PositionBudgetError(max_positions)
            index[key] = idx
            keys.append(key)
        return idx

    for x, y in roots:
        add(x * n + y)
    root_count = len(keys)
    moves: list[list[int]] = []
    for key in keys:  # grows while it is walked: the breadth-first queue
        a, rest = divmod(key, square)
        x, y = divmod(rest, n)
        if a:
            moves.append([add(x * n + y2) for y2 in weak[a - 1][y]])
        else:
            moves.append(
                [add(a2 * square + x2 * n + y) for a2, row in enumerate(strong, 1)
                 for x2 in row[x]]
            )
    owner = [Player.ATTACKER if key < square else Player.DEFENDER for key in keys]
    # Distinct choices lead to distinct positions, so no row holds a duplicate.
    graph = GameGraph.from_unique_rows(owner, moves)
    del index, moves, owner, keys[root_count:]  # freed before solving
    winner = solve(graph).winner
    won = [divmod(keys[i], n) for i in range(root_count) if winner[i] is Player.DEFENDER]
    return frozenset(won)


def _classes(
    steps: Sequence[Mapping[Action, AbstractSet[int]]],
    actions: Sequence[Action],
    stay: Optional[Action] = None,
) -> list[int]:
    """The coarsest partition of the states ``0 .. len(steps)-1`` in which
    states of one class have equal *signatures*, the sets of (action, class)
    pairs of their steps; ``steps[s]`` maps each of ``actions`` that ``s``
    takes to its successors.  With ``stay``, every state also takes that
    action to itself, left out of ``steps``.  Classes are dense ints
    numbered in the order of their smallest members.

    Found in three parts, by loops only:

    * A well-founded state has no infinite path, so it shares a class with
      well-founded states only.  These states are classed successors first
      (Kahn's order over out-degrees), each once, by its signature over
      classes that are already final.  With ``stay`` this does not hold
      (an internal cycle is invisible to weak bisimilarity), and all states
      go on to the next two parts.
    * Of the rest, those that no cycle reaches are set aside, top down.  The
      others, the *core*, start as one block and are refined by signature
      (Paige & Tarjan 1987; Valmari 2009).  When a block splits, its largest
      part keeps the block's id and the others get new ones, so a state
      changes id O(log n) times, and only the predecessors of states that
      changed are signed again, unless they are alone in their block.
      Signing every state each round would take n rounds on an n-chain.
    * The states set aside are then classed successors first like the
      well-founded ones, against the core's classes too.  A chain that ends
      in a loop costs one round, not one per state.

    A state's implicit ``stay`` step is the same pair for every member of its
    class, so states are compared by their signatures less that pair.  A
    state classed successors first has no id yet; it joins class ``c`` if
    its signature is ``c``'s, or is ``c``'s plus a ``stay`` step into ``c``.
    No signature can be both for two classes: either would make the two
    classes bisimilar.
    """
    n = len(steps)
    action_id = {a: i for i, a in enumerate(actions)}
    width = len(action_id)
    stay_id = None if stay is None else action_id[stay]
    degree = [0] * n
    preds: list[list[int]] = [[] for _ in range(n)]  # one entry per step
    for s, row in enumerate(steps):
        for targets in row.values():
            degree[s] += len(targets)
            for t in targets:
                preds[t].append(s)
    block = [-1] * n  # a state's class once final, its block in the core

    def signature(s: int) -> Hashable:
        """``s``'s steps as ``block * width + action`` ints, less a ``stay``
        step into its own block: their frozenset, or the one int."""
        row = steps[s]
        own = None if stay_id is None else block[s] * width + stay_id
        if degree[s] == 1:
            ((a, (t,)),) = row.items()
            code = block[t] * width + action_id[a]
            return _NO_STEPS if code == own else code
        sig = frozenset(
            [block[t] * width + action_id[a] for a, targets in row.items() for t in targets]
        )
        if own in sig:
            sig = sig.difference((own,))
        return next(iter(sig)) if len(sig) == 1 else sig

    signatures: list[Hashable] = []  # by class or block id
    class_of: dict[Hashable, int] = {}  # signature -> final class

    def register(key: Hashable, c: int) -> None:
        """Let the signature ``key`` of final class ``c`` find ``c``, and so,
        with ``stay``, ``key`` plus a ``stay`` step into ``c``: a state
        with that signature and no id yet is in ``c``."""
        class_of[key] = c
        if stay_id is not None:
            codes = key if isinstance(key, frozenset) else frozenset((key,))
            full = codes.union((c * width + stay_id,))
            class_of[next(iter(full)) if len(full) == 1 else full] = c

    pending = degree[:]  # steps into states not yet classed

    def settle(order: list[int]) -> None:
        """Class the states of ``order``, and every state whose last
        unclassed successor they are, each by its signature."""
        for s in order:  # grows while it is walked
            key = signature(s)
            c = class_of.get(key)
            if c is None:
                c = len(signatures)
                signatures.append(key)
                register(key, c)
            block[s] = c
            for p in preds[s]:
                left = pending[p] - 1
                pending[p] = left
                if not left:
                    order.append(p)

    # With stay, a state on an internal cycle may share a class with a
    # well-founded one, so every state waits for the refinement.
    settle([s for s in range(n) if not degree[s]] if stay_id is None else [])
    rest = [s for s in range(n) if block[s] < 0]
    if not rest:
        return _dense(block)

    # Every predecessor of a state in rest is in rest.  Peel off, top down,
    # the states no cycle reaches; the core is what is left.
    inbound = [len(p) for p in preds]
    peeled = [s for s in rest if not inbound[s]]
    for s in peeled:  # grows while it is walked
        for targets in steps[s].values():
            for t in targets:
                left = inbound[t] - 1
                inbound[t] = left
                if not left and block[t] < 0:
                    peeled.append(t)
    core = [s for s in rest if inbound[s]]

    members: dict[int, set[int]] = {}
    if core:
        start = len(signatures)
        signatures.append(None)
        for s in core:
            block[s] = start
        members = {start: set(core)}
        # Between rounds, each member of a block that is not touched has the
        # block's signature.
        touched = core
        while touched:
            split: dict[int, dict[Hashable, list[int]]] = {}
            for s in touched:
                split.setdefault(block[s], {}).setdefault(signature(s), []).append(s)
            moved: list[int] = []
            for b, by_signature in split.items():
                mine, old = members[b], signatures[b]
                untouched = len(mine) - sum(map(len, by_signature.values()))
                if untouched:
                    by_signature.setdefault(old, [])  # listed only if they move
                if len(by_signature) == 1:
                    (signatures[b],) = by_signature
                    continue
                size = {sig: len(states) for sig, states in by_signature.items()}
                if untouched:
                    size[old] += untouched
                keep = signatures[b] = max(size, key=size.get)
                for sig, states in by_signature.items():
                    if sig is keep:
                        continue
                    if untouched and sig == old:
                        states = mine.difference(
                            *(others for other, others in by_signature.items() if other is not sig)
                        )
                    new = len(signatures)
                    signatures.append(sig)
                    members[new] = set(states)
                    mine.difference_update(states)
                    for t in states:
                        block[t] = new
                    moved += states
            again = {p for s in moved for p in preds[s]}
            if stay_id is not None:
                again.update(moved)  # their stay step moved with them
            # A block of one state cannot split; a peeled state is no block's.
            touched = [p for p in again if block[p] >= 0 and len(members[block[p]]) > 1]

    if peeled:
        # A block of one state was not signed again when its successors
        # moved, so every block is signed afresh.
        for b, mine in members.items():
            register(signature(next(iter(mine))), b)
        for s in core:
            for p in preds[s]:
                pending[p] -= 1
        settle([s for s in peeled if not pending[s]])
    return _dense(block)


_NO_STEPS: frozenset[int] = frozenset()


def _dense(ids: list[int]) -> list[int]:
    """``ids`` renumbered ``0, 1, ...`` in the order of first occurrence."""
    dense: dict[int, int] = {}
    return [dense.setdefault(i, len(dense)) for i in ids]


def strong_classes(lts: Lts) -> list[int]:
    """The strong-bisimulation class of every state, as dense ints numbered
    in the order of the classes' smallest members: the partition whose
    classes hold states of equal strong steps (internal ones included) up
    to classes."""
    return _classes(lts._strong, lts.visible_actions + (TAU,))


def weak_classes(lts: Lts) -> list[int]:
    """The weak-bisimulation class of every state, numbered like
    :func:`strong_classes`.

    Weak bisimilarity is strong bisimilarity of the weak steps, with the
    internal closure, which always holds the state itself, as the internal
    step.  It is refined on the strong classes, which have the same weak
    classes and are fewer: a class takes the weak steps of its smallest
    member, mapped to classes.  Without internal steps, weak steps are
    strong steps and the strong classes are returned.
    """
    strong = strong_classes(lts)
    if not any(TAU in steps for steps in lts._strong):
        return strong
    # A class's internal closure holds the class itself: its stay step.
    rows = _weak_steps(lts, strong)
    weak = _classes(rows, lts.visible_actions + (TAU,), stay=TAU)
    return [weak[c] for c in strong]


def _same_class(classes: Sequence[int]) -> frozenset[Pair]:
    """The pairs of states that share a class."""
    members: dict[int, list[int]] = {}
    for s, c in enumerate(classes):
        members.setdefault(c, []).append(s)
    return frozenset((p, q) for group in members.values() for p in group for q in group)


def weak_bisimilarity(lts: Lts) -> frozenset[Pair]:
    """The greatest symmetric relation that is a weak simulation both ways:
    the pairs of states in one class of :func:`weak_classes`."""
    return _same_class(weak_classes(lts))


def strong_bisimilarity(lts: Lts) -> frozenset[Pair]:
    """The greatest symmetric relation matching every strong step (internal
    ones included) by exactly one strong step: the pairs of states in one
    class of :func:`strong_classes`."""
    return _same_class(strong_classes(lts))


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
