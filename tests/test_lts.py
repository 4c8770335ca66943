import copy
import pickle
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from contrasim.lts import Action, Lts, StateNames, TAU, act
from contrasim.relations import strong_classes

from conftest import random_lts

OP = act("op")
A_EATS = act("aEats")
B_EATS = act("bEats")


def find_state(lts: Lts, fragment: str) -> int:
    matches = [s for s in range(lts.state_count) if fragment in lts.name_of(s)]
    assert len(matches) == 1, f"{fragment!r} matches {matches}"
    return matches[0]


# -- independent oracles -------------------------------------------------------


def closure_oracle(lts: Lts, states) -> frozenset[int]:
    """Reflexive-transitive closure over tau edges by repeated edge scans."""
    reached = set(states)
    while True:
        extra = {
            dst
            for src, label, dst in lts.transitions
            if label.is_tau and src in reached and dst not in reached
        }
        if not extra:
            return frozenset(reached)
        reached |= extra


def path_delay_oracle(lts: Lts, start: int, action: Action) -> frozenset[int]:
    """Delay successors as endpoints of explicit tau*-then-action paths."""
    return frozenset(
        dst
        for src, label, dst in lts.transitions
        if label == action and src in closure_oracle(lts, {start})
    )


def enumerate_weak_word(lts: Lts, start: int, word) -> frozenset[int]:
    """Weak word successors by literal composition of weak steps."""
    current = closure_oracle(lts, {start})
    for letter in word:
        after_action = {
            dst
            for src, label, dst in lts.transitions
            if label == letter and src in current
        }
        current = closure_oracle(lts, after_action)
    return frozenset(current)


def reference_tables(n: int, transitions):
    """The constructor's tables as a set of triples and a second pass build
    them: (transitions, strong steps, internal closures, visible actions)."""
    seen, kept = set(), []
    for t in transitions:
        if t not in seen:
            seen.add(t)
            kept.append(t)
    rows = [{} for _ in range(n)]
    for src, action, dst in kept:
        rows[src].setdefault(action, set()).add(dst)
    strong = tuple({a: frozenset(t) for a, t in row.items()} for row in rows)
    visible = tuple(sorted({a for _, a, _ in kept if a.is_visible}, key=lambda a: a.name))
    closure = []
    for start in range(n):
        reached = {start}
        queue = deque((start,))
        while queue:
            for nxt in strong[queue.popleft()].get(TAU, ()):
                if nxt not in reached:
                    reached.add(nxt)
                    queue.append(nxt)
        closure.append(frozenset(reached))
    return tuple(kept), strong, tuple(closure), visible


# -- hypothesis strategy -------------------------------------------------------


# -- Action / construction ------------------------------------------------------


def test_tau_is_distinct_from_visible_actions():
    assert TAU.is_tau and not TAU.is_visible
    assert TAU != act("tau")
    assert str(TAU) == "tau"


@pytest.mark.parametrize("bad", ["", "a b", "a'", 'x"y', "a\tb"])
def test_invalid_action_names_rejected(bad):
    with pytest.raises(ValueError):
        Action(bad)


def test_actions_are_interned():
    a = act("a")
    assert Action("a") is a
    assert copy.copy(a) is a and copy.deepcopy(a) is a
    assert pickle.loads(pickle.dumps(a)) is a
    assert pickle.loads(pickle.dumps(TAU)) is TAU is Action(None)
    # equality and hashing are the interpreter's own, by identity
    assert Action.__eq__ is object.__eq__ and Action.__hash__ is object.__hash__
    with pytest.raises(AttributeError):
        a.name = "b"
    assert repr(a) == "Action(name='a')"


def test_duplicate_transitions_are_dropped():
    lts = Lts(2, [(0, act("a"), 1), (0, act("a"), 1), (0, TAU, 1)])
    assert len(lts.transitions) == 2


@st.composite
def transition_lists(draw, max_states=7):
    """A state count and transitions over it with repeats, self-loops and
    internal cycles; with few transitions, some states are isolated."""
    n = draw(st.integers(1, max_states))
    edge = st.tuples(
        st.integers(0, n - 1), st.sampled_from((TAU, TAU, act("a"), act("b"))), st.integers(0, n - 1)
    )
    edges = draw(st.lists(edge, max_size=3 * n))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=n)) if edges else []
    return n, draw(st.permutations(edges + repeats))


@given(transition_lists())
@settings(max_examples=300)
def test_constructor_tables_match_reference(system):
    n, transitions = system
    kept, strong, closure, visible = reference_tables(n, transitions)
    lts = Lts(n, transitions)
    assert lts.transitions == kept
    assert [list(row.items()) for row in lts._strong] == [list(row.items()) for row in strong]
    assert all(type(t) is frozenset for row in lts._strong for t in row.values())
    assert lts._closure == closure
    assert lts.visible_actions == visible


@pytest.mark.parametrize(
    "n, transitions",
    [
        (4, []),  # isolated states only
        (3, [(0, TAU, 0), (0, TAU, 1), (1, TAU, 0), (1, TAU, 0), (2, act("a"), 2)]),
        (3, [(2, act("b"), 0), (2, act("b"), 1), (2, act("b"), 0), (2, act("a"), 2)]),
    ],
)
def test_constructor_tables_match_reference_on_edge_cases(n, transitions):
    kept, strong, closure, visible = reference_tables(n, transitions)
    lts = Lts(n, transitions)
    assert lts.transitions == kept
    assert lts._strong == strong
    assert lts._closure == closure
    assert lts.visible_actions == visible


def test_out_of_range_transition_rejected():
    with pytest.raises(IndexError):
        Lts(2, [(0, act("a"), 2)])


def test_names_computed_on_demand_are_kept_as_given():
    asked = []

    def name(state):
        asked.append(state)
        return f"s{state}"

    names = StateNames(2, name)
    lts = Lts(3, [(0, act("a"), 1)], names)
    assert lts.state_names is names and asked == []
    assert [lts.name_of(s) for s in range(3)] == ["s0", "s1", "2"]
    assert asked == [0, 1]
    assert dict(names) == {0: "s0", 1: "s1"}
    assert pickle.loads(pickle.dumps(lts)).state_names == {0: "s0", 1: "s1"}
    with pytest.raises(IndexError):
        Lts(1, [], names)
    with pytest.raises(IndexError):
        Lts(1, [], {1: "x"})


def test_state_index_checked_on_queries():
    lts = Lts(1, [])
    with pytest.raises(IndexError):
        lts.strong_successors(1, act("a"))
    with pytest.raises(IndexError):
        lts.weak_successors(-1, TAU)


# -- strong steps ---------------------------------------------------------------


def test_strong_successors_on_instable_example(instable):
    lts, pab, _ = instable
    (after_op,) = lts.strong_successors(pab, OP)
    assert "aEats" in lts.name_of(after_op) and "bEats" in lts.name_of(after_op)


def test_strong_successors_of_deadlock_empty():
    lts = Lts(1, [])
    assert lts.strong_successors(0, act("a")) == frozenset()
    assert lts.strong_successors(0, TAU) == frozenset()


@given(random_lts())
def test_strong_successors_match_edge_scan(lts):
    for s in range(lts.state_count):
        for a in lts.visible_actions + (TAU,):
            scanned = {dst for src, lab, dst in lts.transitions if src == s and lab == a}
            assert lts.strong_successors(s, a) == scanned


# -- internal closure -----------------------------------------------------------


def test_closure_is_reflexive_without_tau():
    lts = Lts(2, [(0, act("a"), 1)])
    assert lts.internal_closure(frozenset({0})) == frozenset({0})


def test_closure_of_tau_prefix_state(phil):
    # A state like tau.aEats reaches itself and its continuation.
    lts, _, pp = phil
    q1 = lts.delay_successors(frozenset({pp}), OP)
    ta = next(s for s in q1 if lts.weak_successors(s, A_EATS))
    closure = lts.internal_closure(frozenset({ta}))
    assert len(closure) == 2 and ta in closure


@given(random_lts())
def test_closure_matches_bfs_oracle(lts):
    for s in range(lts.state_count):
        assert lts.internal_closure(frozenset({s})) == closure_oracle(lts, {s})


@given(random_lts())
def test_closure_idempotent_monotone_extensive(lts):
    full = frozenset(range(lts.state_count))
    sub = frozenset(range(0, lts.state_count, 2))
    for states in (sub, full):
        once = lts.internal_closure(states)
        assert states <= once
        assert lts.internal_closure(once) == once
    assert lts.internal_closure(sub) <= lts.internal_closure(full)


# -- delay and weak steps --------------------------------------------------------


def test_delay_successors_on_phil_example(phil):
    lts, _, pp = phil
    result = lts.delay_successors(frozenset({pp}), OP)
    assert len(result) == 2  # tau.aEats-like and tau.bEats-like
    enabled = {
        "aEats" if lts.weak_successors(s, A_EATS) else "bEats" for s in result
    }
    assert enabled == {"aEats", "bEats"}


def test_delay_successors_of_empty_set_empty(phil):
    lts, _, _ = phil
    assert lts.delay_successors(frozenset(), OP) == frozenset()


def test_delay_with_tau_is_a_usage_error(phil):
    lts, _, _ = phil
    with pytest.raises(ValueError):
        lts.delay_successors(frozenset({0}), TAU)


@given(random_lts(acyclic=True))
def test_delay_matches_path_enumeration_on_acyclic(lts):
    for s in range(lts.state_count):
        for a in lts.visible_actions:
            assert lts.delay_successors(frozenset({s}), a) == path_delay_oracle(lts, s, a)


def test_weak_tau_of_edgeless_state_is_reflexive():
    lts = Lts(1, [])
    assert lts.weak_successors(0, TAU) == frozenset({0})


def test_weak_successors_on_instable_example(instable):
    # Unlike the delay step, the weak op step may continue internally.
    lts, pab, _ = instable
    weak = lts.weak_successors(pab, OP)
    delay = lts.delay_successors(frozenset({pab}), OP)
    assert len(delay) == 1 and len(weak) == 2
    assert delay <= weak


@given(random_lts())
def test_delay_contained_in_weak(lts):
    for s in range(lts.state_count):
        for a in lts.visible_actions:
            assert lts.delay_successors(frozenset({s}), a) <= lts.weak_successors(s, a)


# -- word successors --------------------------------------------------------------


def test_word_successors_empty_word_is_identity(phil):
    lts, pc, pp = phil
    states = frozenset({pc, pp})
    assert lts.word_successors((), states) == states


def test_word_successors_on_phil_example(phil):
    lts, _, pp = phil
    assert lts.word_successors((OP,), frozenset({pp})) == lts.delay_successors(
        frozenset({pp}), OP
    )


def test_word_successors_empty_when_word_not_admitted(instable):
    lts, _, pb = instable
    assert lts.word_successors((OP, A_EATS), frozenset({pb})) == frozenset()


def test_word_with_tau_rejected(phil):
    lts, _, _ = phil
    with pytest.raises(ValueError):
        lts.word_successors((TAU,), frozenset({0}))


@given(random_lts(), st.integers(0, 2**32 - 1))
def test_word_successors_distribute_over_union(lts, seed):
    rng = random.Random(seed)
    states = list(range(lts.state_count))
    q1 = frozenset(rng.sample(states, k=rng.randint(0, len(states))))
    q2 = frozenset(rng.sample(states, k=rng.randint(0, len(states))))
    words = [(), *[(a,) for a in lts.visible_actions]]
    if len(lts.visible_actions) >= 2:
        words.append((lts.visible_actions[0], lts.visible_actions[1]))
    for w in words:
        assert lts.word_successors(w, q1 | q2) == (
            lts.word_successors(w, q1) | lts.word_successors(w, q2)
        )


def test_weak_word_successors_on_instable(instable):
    lts, pab, pb = instable
    dead = {s for s in range(lts.state_count) if lts.name_of(s) == "0"}
    assert lts.weak_word_successors(pab, (OP, B_EATS)) == frozenset(dead)
    assert lts.weak_word_successors(pb, (OP, B_EATS)) == frozenset(dead)


def test_weak_word_empty_word_is_closure(phil):
    lts, pc, _ = phil
    assert lts.weak_word_successors(pc, ()) == lts.internal_closure(frozenset({pc}))


def all_words(actions, up_to):
    frontier = [()]
    for _ in range(up_to):
        frontier = [w + (a,) for w in frontier for a in actions] + frontier
    return set(frontier)


@given(random_lts(max_states=4, acyclic=True))
@settings(max_examples=40)
def test_weak_word_round_trip_on_acyclic(lts):
    """Weak word steps coincide with the closure of the delay-word frontier,
    checked against literal weak-step composition for all short words."""
    for s in range(lts.state_count):
        for word in all_words(lts.visible_actions, min(lts.state_count, 3)):
            via_identity = lts.internal_closure(lts.word_successors(word, frozenset({s})))
            assert lts.weak_word_successors(s, word) == via_identity
            assert via_identity == enumerate_weak_word(lts, s, word)
            # the delay frontier sits inside the weak result
            assert lts.word_successors(word, frozenset({s})) <= via_identity


# -- stability ---------------------------------------------------------------------


def test_deadlock_is_stable():
    lts = Lts(1, [])
    assert lts.is_stable(0)


def test_tau_prefix_state_not_stable(phil):
    lts, _, pp = phil
    q1 = lts.delay_successors(frozenset({pp}), OP)
    assert all(not lts.is_stable(s) for s in q1)


def test_locked_root_is_stable(locked):
    lts, _, pl = locked
    assert lts.is_stable(pl)


@given(random_lts())
def test_tau_free_collapse(lts):
    """Dropping tau edges makes delay steps strong and closures singletons."""
    visible_only = [t for t in lts.transitions if t[1].is_visible]
    tf = Lts(lts.state_count, visible_only)
    for s in range(tf.state_count):
        assert tf.internal_closure(frozenset({s})) == frozenset({s})
        for a in tf.visible_actions:
            assert tf.delay_successors(frozenset({s}), a) == tf.strong_successors(s, a)


# -- quotient ------------------------------------------------------------------


def test_quotient_merges_classes_named_by_smallest_member():
    a, b = act("a"), act("b")
    # 1 and 2 are bisimilar, and so are 3 and 4; the internal self-loops on
    # class 1 go, the internal step from 0 to 1 stays
    lts = Lts(5, [(0, a, 1), (0, a, 2), (1, b, 3), (2, b, 4), (1, TAU, 1), (2, TAU, 2),
                  (0, TAU, 2)],
              {0: "x", 1: "y", 3: "u"})
    q = lts.quotient([0, 1, 1, 2, 2])
    assert q.state_count == 3
    assert set(q.transitions) == {(0, a, 1), (1, b, 2), (0, TAU, 1)}
    assert [q.name_of(c) for c in range(3)] == ["x", "y", "u"]
    assert q.visible_actions == (a, b)


@given(random_lts(max_states=7))
@settings(max_examples=100, deadline=None)
def test_quotient_by_strong_classes_is_the_merged_system(lts):
    """Each class takes its members' steps and closure; that is the system
    with every transition's ends replaced by their classes, less the
    internal self-loops."""
    classes = strong_classes(lts)
    q = lts.quotient(classes)
    merged = Lts(q.state_count, [
        (classes[s], a, classes[t]) for s, a, t in lts.transitions
        if a.is_visible or classes[s] != classes[t]
    ])
    assert set(q.transitions) == set(merged.transitions)
    assert q.visible_actions == merged.visible_actions
    for c in range(q.state_count):
        assert q.internal_closure((c,)) == merged.internal_closure((c,))
        for a in q.visible_actions + (TAU,):
            assert q.strong_successors(c, a) == merged.strong_successors(c, a)


def test_quotient_without_merges_is_the_system_itself():
    lts = Lts(3, [(0, act("a"), 1), (1, TAU, 2)])
    assert lts.quotient([0, 1, 2]) is lts


def test_quotient_without_merges_drops_internal_self_loops():
    lts = Lts(2, [(0, act("a"), 1), (1, TAU, 1), (0, TAU, 0), (0, act("a"), 0)])
    q = lts.quotient([0, 1])
    assert q is not lts
    assert set(q.transitions) == {(0, act("a"), 1), (0, act("a"), 0)}


@pytest.mark.parametrize("classes", [[0, 0], [1, 0, 1], [0, 2, 1], [0, 1, 2, 0]])
def test_quotient_rejects_misnumbered_classes(classes):
    lts = Lts(3, [(0, act("a"), 1)])
    with pytest.raises(ValueError):
        lts.quotient(classes)
