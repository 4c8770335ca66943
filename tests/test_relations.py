import array
import random
import sys
from contextlib import contextmanager
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from contrasim import relations
from contrasim.aut import parse_aut
from contrasim.csgame import (
    extract_contrasimulation,
    naive_single_step_preorder,
    solve_cs_game_locally,
)
from contrasim.game import Player
from contrasim.lts import Lts, TAU, act
from contrasim.relations import (
    check_coupling,
    contrasim_preorder,
    contrasimulation_violation,
    interleaved_compose,
    is_contrasimulation,
    is_weak_simulation,
    is_weak_simulation_words,
    solve_pair_game,
    strong_bisimilarity,
    strong_classes,
    weak_bisimilarity,
    weak_classes,
    weak_sim_preorder,
    weak_simulation_violation,
)

from conftest import (
    PHIL_AUT, fixture_text, make_random_lts, make_tau_free_lts, phil_shape, random_lts,
    two_chains_aut,
)

OP, A_EATS, B_EATS = act("op"), act("aEats"), act("bEats")


def identity(lts: Lts) -> set[tuple[int, int]]:
    return {(s, s) for s in range(lts.state_count)}


@pytest.fixture(scope="module")
def phil_drawing():
    """The merged philosopher diagram with both roots sharing states."""
    lts, _ = parse_aut(fixture_text("phil.aut"))
    return lts


# -- weak simulation -------------------------------------------------------------


def test_empty_relation_is_weak_simulation(phil_drawing):
    assert is_weak_simulation(phil_drawing, set())


def test_identity_is_weak_simulation(phil_drawing):
    assert is_weak_simulation(phil_drawing, identity(phil_drawing))


def test_phil_weak_simulation_orientation(phil_drawing):
    """On the shared diagram, the patient system's steps are a subset of the
    counter-guarded system's steps, but not the other way around."""
    pc, pp = PHIL_AUT["Pc"], PHIL_AUT["Pp"]
    assert is_weak_simulation(phil_drawing, identity(phil_drawing) | {(pp, pc)})
    violation = weak_simulation_violation(
        phil_drawing, identity(phil_drawing) | {(pc, pp)}
    )
    assert violation is not None
    assert (violation.p, violation.q) == (pc, pp)
    assert violation.action == OP


def test_word_condition_agrees_with_single_step(phil_drawing):
    rel = identity(phil_drawing) | {(PHIL_AUT["Pp"], PHIL_AUT["Pc"])}
    assert is_weak_simulation_words(phil_drawing, rel, phil_drawing.state_count)
    bad = identity(phil_drawing) | {(PHIL_AUT["Pc"], PHIL_AUT["Pp"])}
    assert not is_weak_simulation_words(phil_drawing, bad, phil_drawing.state_count)
    assert is_weak_simulation_words(phil_drawing, set(), 3)
    assert is_weak_simulation_words(phil_drawing, identity(phil_drawing), 3)


@given(random_lts(max_states=4))
@settings(max_examples=40, deadline=None)
def test_word_reformulation_matches_on_random_relations(lts):
    """The single-step and word-based weak simulation conditions agree."""
    rng = random.Random(lts.state_count * 7919 + len(lts.transitions))
    pairs = [(p, q) for p in range(lts.state_count) for q in range(lts.state_count)]
    rel = set(rng.sample(pairs, k=min(len(pairs), 6)))
    assert is_weak_simulation(lts, rel) == is_weak_simulation_words(
        lts, rel, lts.state_count
    )


# -- contrasimulation ---------------------------------------------------------------


def test_identity_is_contrasimulation(phil_drawing):
    assert is_contrasimulation(phil_drawing, identity(phil_drawing))


def test_cross_system_relation_is_contrasimulation(phil_drawing):
    """A four-pair relation between the two systems passes the check once
    reflexively closed."""
    n = PHIL_AUT
    r_cp = {
        (n["Pc"], n["Pp"]),
        (n["Pp"], n["Pc"]),
        (n["ta"], n["AB"]),
        (n["tb"], n["AB"]),
    }
    assert is_contrasimulation(phil_drawing, r_cp | identity(phil_drawing))
    # without reflexive pairs the swap answers have nowhere to land
    assert not is_contrasimulation(phil_drawing, r_cp)


def test_instable_pair_is_not_contrasimulation(instable):
    lts, pab, pb = instable
    violation = contrasimulation_violation(lts, {(pab, pb)})
    assert violation is not None
    assert (violation.p, violation.q) == (pab, pb)
    # the pair fails on a word reaching through the instable choice
    assert violation.word in ((), (OP,), (OP, A_EATS), (OP, B_EATS))


def _word_violated(lts: Lts, rel) -> bool:
    """The definition by words: some ``p =w=> p'`` of a pair ``(p, q)``
    has no ``q =w=> q'`` with ``(q', p')`` related.  Exact on acyclic
    systems, where no word is longer than the state count."""
    for p, q in rel:
        for word, _ in lts.feasible_words(p, lts.state_count):
            answers = lts.weak_word_successors(q, word)
            for p2 in lts.weak_word_successors(p, word):
                if not any((q2, p2) in rel for q2 in answers):
                    return True
    return False


@given(random_lts(max_states=6, acyclic=True), st.data())
@settings(max_examples=150, deadline=None)
def test_contrasimulation_check_matches_the_word_definition(lts, data):
    """One walk over the configurations of all pairs decides what the word
    definition decides, and a violation it reports is one: its word leads
    from its pair to its configuration, and its state has no answer."""
    states = st.integers(0, lts.state_count - 1)
    rel = data.draw(st.sets(st.tuples(states, states), min_size=1, max_size=8))
    if data.draw(st.booleans()):
        rel |= identity(lts)
    violation = contrasimulation_violation(lts, rel)
    assert (violation is not None) == _word_violated(lts, rel)
    if violation is not None:
        v = violation
        assert (v.p, v.q) in rel
        assert v.config_state in lts.word_successors(v.word, frozenset({v.p}))
        assert v.config_set == lts.word_successors(v.word, frozenset({v.q}))
        assert v.p_after in lts.internal_closure(frozenset({v.config_state}))
        answers = lts.internal_closure(v.config_set)
        assert not any((q2, v.p_after) in rel for q2 in answers)


def whole_walk_violation(lts: Lts, relation) -> relations.ContrasimulationViolation | None:
    """The reference of the pruned check: the first violating configuration
    of every configuration the sorted relation's pairs reach."""
    rel = frozenset(relation)
    for p1, q_set, (p, q), word in relations._configs(lts, sorted(rel)):
        answers = lts.internal_closure(q_set)
        for p2 in sorted(lts.internal_closure(frozenset({p1}))):
            if not any((q2, p2) in rel for q2 in answers):
                return relations.ContrasimulationViolation(p, q, word, p1, q_set, p2)
    return None


@given(random_lts(max_states=7), st.data())
@settings(max_examples=200, deadline=None)
def test_pruned_check_finds_the_whole_walks_first_violation(lts, data):
    """Skipping each configuration whose set contains one already walked
    for its state changes neither the verdict nor the first violation: its
    seed, word and violating state.  The relations are random, or the
    preorder with a few pairs taken out or put in."""
    states = st.integers(0, lts.state_count - 1)
    pairs = data.draw(st.sets(st.tuples(states, states), max_size=8))
    preorder = contrasim_preorder(lts)
    rel = data.draw(
        st.sampled_from([pairs, pairs | identity(lts), preorder - pairs, preorder | pairs])
    )
    expected, found = whole_walk_violation(lts, rel), contrasimulation_violation(lts, rel)
    assert (found is None) == (expected is None)
    if found is not None:
        assert (found.p, found.q, found.word, found.p_after) == (
            expected.p, expected.q, expected.word, expected.p_after
        )


def test_pruned_check_walks_few_of_an_exponential_relations_configurations():
    """The phil(k) relations reach more than 2^k configurations; skipping
    the sets that contain a walked one leaves 6k + 12 to check, where the
    whole walk took about a second at k = 12."""
    for k in (8, 12, 16):
        lts, pc, pp = phil_shape(k)
        game, solution, roots = solve_cs_game_locally(lts, [(pc, pp), (pp, pc)])
        relation = extract_contrasimulation(game, solution, roots)
        walked = list(relations._configs(lts, sorted(relation), minimal=True))
        assert len(walked) == 6 * k + 12
        assert contrasimulation_violation(lts, relation) is None


def test_checking_a_relation_computes_each_delay_step_once(monkeypatch):
    """The 2^k-configuration phil(8) relation: the check walks the
    configurations of all pairs once, so it computes each set's and each
    state's delay step per action once (4,085 calls; one walk per pair
    made 10,410)."""
    lts, pc, pp = phil_shape(8)
    game, solution, roots = solve_cs_game_locally(lts, [(pc, pp), (pp, pc)])
    relation = extract_contrasimulation(game, solution, roots)
    configs = {(p, frozenset({q})) for p, q in relation}
    todo = list(configs)
    while todo:
        p1, q_set = todo.pop()
        for a in lts.visible_actions:
            q_next = lts.delay_successors(q_set, a)
            for p2 in lts.delay_successors(frozenset({p1}), a):
                if (p2, q_next) not in configs:
                    configs.add((p2, q_next))
                    todo.append((p2, q_next))
    distinct = len({q_set for _, q_set in configs}) + len({p1 for p1, _ in configs})
    calls = []
    delay_successors = Lts.delay_successors
    monkeypatch.setattr(
        Lts, "delay_successors",
        lambda self, *args: calls.append(args) or delay_successors(self, *args),
    )
    assert is_contrasimulation(lts, relation)
    assert len(calls) <= len(lts.visible_actions) * distinct


def test_single_cross_pair_fails_coupling(phil_drawing):
    assert check_coupling(phil_drawing, identity(phil_drawing))
    assert not check_coupling(phil_drawing, {(PHIL_AUT["Pp"], PHIL_AUT["Pc"])})


# -- the preorder oracle --------------------------------------------------------------


def test_oracle_on_philosophers(phil_drawing):
    oracle = contrasim_preorder(phil_drawing)
    pc, pp = PHIL_AUT["Pc"], PHIL_AUT["Pp"]
    assert (pc, pp) in oracle and (pp, pc) in oracle


def test_oracle_contains_internal_reachability(phil_drawing):
    """Whenever p reaches p' internally, p' is below p in the preorder."""
    oracle = contrasim_preorder(phil_drawing)
    for p in range(phil_drawing.state_count):
        for p2 in phil_drawing.internal_closure(frozenset({p})):
            assert (p2, p) in oracle


@given(random_lts())
@settings(max_examples=30, deadline=None)
def test_oracle_is_reflexive_transitive_and_a_contrasimulation(lts):
    oracle = contrasim_preorder(lts)
    for s in range(lts.state_count):
        assert (s, s) in oracle
    for p, q in oracle:
        for q2, r in oracle:
            if q2 == q:
                assert (p, r) in oracle
    assert is_contrasimulation(lts, oracle)
    assert check_coupling(lts, oracle)


@given(random_lts())
@settings(max_examples=30, deadline=None)
def test_symmetric_contrasimulations_are_weak_simulations(lts):
    """Whenever a symmetric relation passes the contrasimulation check, it
    must also pass the weak simulation check."""
    oracle = contrasim_preorder(lts)
    symmetric = {(p, q) for (p, q) in oracle if (q, p) in oracle}
    candidates = [identity(lts), symmetric | identity(lts), symmetric]
    seen_nontrivial = False
    for rel in candidates:
        if rel == {(q, p) for p, q in rel} and is_contrasimulation(lts, rel):
            assert is_weak_simulation(lts, rel)
            seen_nontrivial = True
    assert seen_nontrivial  # at least the identity always qualifies


@given(random_lts())
@settings(max_examples=30, deadline=None)
def test_compose_of_contrasimulations_is_contrasimulation(lts):
    oracle = contrasim_preorder(lts)
    composed = interleaved_compose(oracle, identity(lts))
    assert is_contrasimulation(lts, composed)
    assert composed == oracle | frozenset(identity(lts))


def test_interleaved_compose_shape():
    r1 = {(0, 1)}
    r2 = {(1, 2)}
    assert interleaved_compose(r1, r2) == {(0, 2)}
    assert interleaved_compose(r1, set()) == frozenset()
    assert interleaved_compose(set(), r2) == frozenset()


def test_compose_of_two_oracle_relations(phil_drawing):
    oracle = contrasim_preorder(phil_drawing)
    assert is_contrasimulation(phil_drawing, interleaved_compose(oracle, oracle))


# -- bisimilarity oracles ----------------------------------------------------------------


def test_weak_bisim_distinguishes_philosophers(phil_drawing):
    wb = weak_bisimilarity(phil_drawing)
    assert (PHIL_AUT["Pc"], PHIL_AUT["Pp"]) not in wb
    for s in range(phil_drawing.state_count):
        assert (s, s) in wb


def test_weak_sim_preorder_on_philosophers(phil_drawing):
    ws = weak_sim_preorder(phil_drawing)
    assert (PHIL_AUT["Pp"], PHIL_AUT["Pc"]) in ws
    assert (PHIL_AUT["Pc"], PHIL_AUT["Pp"]) not in ws


def test_weak_sim_preorder_counts_past_a_byte(monkeypatch):
    """A tau-fan of 300 leaves: its root has 301 weak tau-answers, its
    internal closure, so the refinement's counters no longer fit a byte and
    are held as ``"I"`` ints.  The relation is still a weak simulation, and
    the pair game agrees with it pair by pair."""
    leaves = range(1, 301)
    sink, other = 301, 303  # other is a second fan, over half the leaves
    steps = [(0, "tau", i) for i in leaves] + [(other, "tau", i) for i in leaves[:150]]
    steps += [(i, "abc"[i % 3], sink if i % 3 < 2 else 302) for i in leaves]
    steps += [(302, "a", sink), (other, "c", 302), (304, "a", sink), (304, "b", sink)]
    lts, _ = parse_aut(f"des (0,{len(steps)},305)\n" + "".join(
        f'({s},"{a}",{t})\n' for s, a, t in steps
    ))
    typecodes = []
    original = array.array

    def recorded(typecode, *args):
        typecodes.append(typecode)
        return original(typecode, *args)

    monkeypatch.setattr(array, "array", recorded)
    ws = weak_sim_preorder(lts)
    assert typecodes == ["I"]
    assert is_weak_simulation(lts, ws)
    assert (0, other) in ws and (other, 0) in ws and (0, 304) not in ws
    rng = random.Random(29)
    roots = (0, other, 302, 304)
    pairs = [(p, q) for p in roots for q in rng.sample(range(305), 20)]
    pairs += [(q, p) for p, q in pairs]
    pairs += [(rng.randrange(305), rng.randrange(305)) for _ in range(40)]
    for pair in pairs:
        assert solve_pair_game(lts, [pair]) == ws.intersection([pair])


@given(random_lts(tau_free=True))
@settings(max_examples=30, deadline=None)
def test_tau_free_collapse_to_strong_bisimilarity(lts):
    """Without internal steps the contrasimulation preorder is symmetric and
    coincides with both bisimilarities."""
    oracle = contrasim_preorder(lts)
    assert {(q, p) for p, q in oracle} == oracle
    assert oracle == strong_bisimilarity(lts) == weak_bisimilarity(lts)


@given(random_lts())
@settings(max_examples=30, deadline=None)
def test_hierarchy_weak_bisim_implies_contrasim(lts):
    assert weak_bisimilarity(lts) <= contrasim_preorder(lts)


@given(random_lts(max_states=4))
@settings(max_examples=25, deadline=None)
def test_preorder_implies_bounded_weak_trace_inclusion(lts):
    """Below in the preorder means every weak word of the left process is a
    weak word of the right one (checked to bounded length)."""
    oracle = contrasim_preorder(lts)
    words = [()]
    for _ in range(lts.state_count):
        words = [w + (a,) for w in words for a in lts.visible_actions] + words
    for p, q in oracle:
        for w in words:
            if lts.weak_word_successors(p, w):
                assert lts.weak_word_successors(q, w), (p, q, w)


# -- the fixed-point engine against the pair-deletion loops it replaced ----------------


def reference_gfp_simulation(lts: Lts, match_weak: bool, symmetric: bool):
    """Delete every pair that fails the (bi)simulation condition, re-sweeping
    all remaining pairs until none fails."""
    n = lts.state_count
    alphabet = lts.visible_actions + (TAU,)
    strong = {(s, a): sorted(lts.strong_successors(s, a)) for s in range(n) for a in alphabet}
    if match_weak:
        answer = {(s, a): lts.weak_successors(s, a) for s in range(n) for a in alphabet}
    else:
        answer = strong

    def simulates(p: int, q: int, rel: set) -> bool:
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


def reference_naive_relation(lts: Lts):
    """The single-step swap condition by the same pair-deletion sweeps."""
    n = lts.state_count
    alphabet = lts.visible_actions + (TAU,)
    weak = {(s, a): lts.weak_successors(s, a) for s in range(n) for a in alphabet}
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
    return frozenset(rel)


def assert_engine_matches_reference(lts: Lts) -> None:
    weak_sim = reference_gfp_simulation(lts, True, False)
    naive = reference_naive_relation(lts)
    assert weak_sim_preorder(lts) == weak_sim
    assert weak_bisimilarity(lts) == reference_gfp_simulation(lts, True, True)
    assert strong_bisimilarity(lts) == reference_gfp_simulation(lts, False, True)
    # Each pair decided on the game built from it and its reverse alone, as
    # the command line decides an equivalence, and from the pair alone: the
    # pair game for weak similarity, the word game at bound 1 for the naive
    # fixed point.
    for p, q in product(range(lts.state_count), repeat=2):
        roots = [(p, q), (q, p)]
        assert solve_pair_game(lts, roots) == weak_sim.intersection(roots)
        _, solution, game_roots = solve_cs_game_locally(lts, roots, word_bound=1)
        won = [solution.winner[root] is Player.DEFENDER for root in game_roots]
        assert won == [pair in naive for pair in roots]
        assert naive_single_step_preorder(lts, p, q) == ((p, q) in naive)


@given(random_lts(max_states=7))
@settings(max_examples=100, deadline=None)
def test_fixed_points_match_reference_loops(lts):
    assert_engine_matches_reference(lts)


@pytest.mark.parametrize("tau_share", [0.3, 0.6])
def test_fixed_points_match_reference_on_cyclic_corpus(tau_share):
    """Dense, internal-heavy and cyclic systems, where answers run through
    long tau paths and deletions cascade."""
    rng = random.Random(6)
    for _ in range(60):
        lts = make_random_lts(
            rng,
            n_states=rng.randint(2, 9),
            n_actions=rng.randint(1, 3),
            density=(0.1, 0.6),
            tau_share=tau_share,
        )
        assert_engine_matches_reference(lts)


# -- strong classes --------------------------------------------------------------


@given(
    st.one_of(
        random_lts(max_states=7),
        # acyclic systems are classed in the one successors-first pass
        random_lts(max_states=9, acyclic=True),
    )
)
@settings(max_examples=150, deadline=None)
def test_strong_classes_match_reference(lts):
    classes = strong_classes(lts)
    states = range(lts.state_count)
    same = {(p, q) for p in states for q in states if classes[p] == classes[q]}
    assert same == reference_gfp_simulation(lts, False, True)
    first = {}
    for s, c in enumerate(classes):
        first.setdefault(c, s)
    assert list(first) == list(range(len(first)))  # numbered by smallest member


@contextmanager
def _limit_signatures(limit: int):
    """Fail once the refinement engine signs more than ``limit`` states:
    counts the calls of the ``signature`` function inside
    ``relations._classes``, through a profile hook."""
    (code,) = [
        c for c in relations._classes.__code__.co_consts
        if getattr(c, "co_name", None) == "signature"
    ]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1
            assert calls <= limit, f"more than {limit} signatures"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        yield
    finally:
        sys.setprofile(previous)


@pytest.mark.parametrize("looped", [False, True])
def test_strong_classes_of_a_long_chain_take_linear_work(looped):
    """20,003 states, far deeper than the recursion limit.  Without loops
    every state is signed once.  With them, the chains are set aside as
    states no cycle reaches, the two loops are refined (one signature each)
    and signed afresh as final classes (one more each), and the chains are
    then signed once each, successors first."""
    k = 10_000
    lts, _ = parse_aut(two_chains_aut(k, looped=looped))
    n = lts.state_count
    with _limit_signatures(n + 2 if looped else n):
        classes = strong_classes(lts)
    # the two chains differ at every depth: nothing merges but the final
    # state, which in the looped system is unreachable and bisimilar to no one
    assert max(classes) + 1 == n


def test_strong_classes_of_a_long_cycle_take_linear_work():
    """The two chains close into cycles (each end steps back to its start),
    so every state is refined.  Each round splits off the next two states,
    and signing only their predecessors keeps the total linear (signing
    every state per round would take 10,000 rounds)."""
    k = 10_000
    lines = two_chains_aut(k).splitlines()
    lines[-2:] = [f'({k},"b",0)', f'({2 * k + 1},"c",{k + 1})']
    lts, _ = parse_aut("\n".join(lines) + "\n")
    n = lts.state_count
    with _limit_signatures(2 * n):
        classes = strong_classes(lts)
    assert max(classes) + 1 == n


# -- weak classes ------------------------------------------------------------------


@given(
    st.one_of(
        random_lts(max_states=7),
        random_lts(max_states=8, acyclic=True),
    )
)
@settings(max_examples=150, deadline=None)
def test_weak_classes_match_reference(lts):
    classes = weak_classes(lts)
    states = range(lts.state_count)
    same = {(p, q) for p in states for q in states if classes[p] == classes[q]}
    assert same == reference_gfp_simulation(lts, True, True)
    first = {}
    for s, c in enumerate(classes):
        first.setdefault(c, s)
    assert list(first) == list(range(len(first)))  # numbered by smallest member


@pytest.mark.parametrize("tau_share", [0.3, 0.6, 0.9])
def test_weak_classes_match_reference_on_cyclic_corpus(tau_share):
    """Internal cycles and long internal paths, where weak steps differ most
    from strong ones."""
    rng = random.Random(11)
    for _ in range(400):
        lts = make_random_lts(
            rng,
            n_states=rng.randint(1, 10),
            n_actions=rng.randint(1, 3),
            density=(0.05, 0.5),
            tau_share=tau_share,
        )
        classes = weak_classes(lts)
        states = range(lts.state_count)
        same = {(p, q) for p in states for q in states if classes[p] == classes[q]}
        assert same == reference_gfp_simulation(lts, True, True)


def test_weak_classes_of_a_tau_free_system_are_its_strong_classes(monkeypatch):
    rng = random.Random(3)
    for _ in range(20):
        lts = make_tau_free_lts(rng, n_states=rng.randint(1, 7))
        strong = strong_classes(lts)
        with monkeypatch.context() as patched:
            # no second pass: the system is not even quotiented
            patched.setattr(Lts, "quotient", None)
            assert weak_classes(lts) == strong


def test_weak_classes_merge_what_strong_classes_keep_apart():
    a = act("a")
    # 0 steps internally into 1 and 2 into 3; 1 and 3 take a to 4
    lts = Lts(5, [(0, TAU, 1), (1, a, 4), (2, TAU, 3), (3, a, 4), (2, a, 4)])
    assert strong_classes(lts) == [0, 1, 2, 1, 3]
    assert weak_classes(lts) == [0, 0, 0, 0, 1]


def test_a_divergent_state_is_weakly_bisimilar_to_a_dead_one():
    """0 and 1 step internally into each other forever, and 1 also into 2,
    which takes no step: weak bisimilarity ignores the internal cycle, so
    the well-founded state is not classed apart from the cyclic ones."""
    lts = Lts(3, [(0, TAU, 1), (1, TAU, 0), (1, TAU, 2)])
    assert strong_classes(lts) == [0, 1, 2]
    assert weak_classes(lts) == [0, 0, 0]
    a = act("a")
    # the same below a visible step, with a state above that joins them
    lts = Lts(6, [(0, a, 1), (1, TAU, 2), (2, TAU, 1), (2, TAU, 3), (4, a, 3), (5, TAU, 0)])
    assert weak_classes(lts) == [0, 1, 1, 1, 0, 0]


def test_weak_refinement_signs_moved_states_again():
    """A state's implicit internal step stays with it when it moves to a new
    block, so a moved state with an internal step into its old block differs
    from one without: both must be signed again.  A system on which the
    refinement went wrong without that."""
    a = act("a")
    lts = Lts(8, [
        (0, TAU, 5), (2, TAU, 1), (2, TAU, 7), (3, TAU, 1), (3, TAU, 6), (4, TAU, 1),
        (4, TAU, 2), (4, TAU, 6), (5, TAU, 1), (6, TAU, 3), (6, TAU, 5), (6, TAU, 7),
        (7, a, 0), (7, TAU, 1),
    ])
    classes = weak_classes(lts)
    states = range(lts.state_count)
    same = {(p, q) for p in states for q in states if classes[p] == classes[q]}
    assert same == reference_gfp_simulation(lts, True, True)
