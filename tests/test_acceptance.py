"""End-to-end acceptance suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see the
lines on success).  Criteria 5-7 share a 200-system random corpus whose
per-pair game verdicts, certificates, and strategy checks are computed once
in a module fixture.
"""

import random
import sys
import time
from collections import deque
from dataclasses import dataclass, field

import pytest

from contrasim.csgame import (
    AttackerPos,
    SimPos,
    SwapPos,
    bounded_word_game_preorder,
    build_cs_game,
    decide_equivalence,
    decide_preorder,
    extract_contrasimulation,
    extract_distinguishing_formula,
    naive_single_step_preorder,
    strategy_from_fc,
)
from contrasim.game import Player, PositionalStrategy, solve, validate_play
from contrasim.hml import DelayNor, DelayObs, TRUTH, hml_satisfies
from contrasim.lts import Lts, TAU, act
from contrasim.relations import (
    check_coupling,
    contrasim_preorder,
    fc_pairs,
    interleaved_compose,
    is_contrasimulation,
    is_weak_simulation,
    strong_bisimilarity,
    weak_bisimilarity,
    weak_sim_preorder,
)

from conftest import (
    make_random_lts,
    make_tau_free_lts,
    transcript_play,
    transcript_states,
    weak_enabled,
)

OP, A_EATS, B_EATS = act("op"), act("aEats"), act("bEats")

CORPUS_SIZE = 200
CORPUS_SEED = 20260808


def report(criterion: int, description: str):
    """Run the wrapped assertions and print one pass/fail line."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {criterion} {verdict} - {description}", file=sys.stderr)
            return False

    return _Reporter()


# -- fuzz corpus and the shared evaluation pass ------------------------------------


@dataclass
class CorpusResults:
    systems: int = 0
    pairs: int = 0
    agreement_seconds: float = 0.0
    mismatches: list = field(default_factory=list)
    relation_failures: list = field(default_factory=list)
    formula_failures: list = field(default_factory=list)
    preorder_law_failures: list = field(default_factory=list)
    symmetry_weak_sim_failures: list = field(default_factory=list)
    coupling_failures: list = field(default_factory=list)
    fc_invariant_failures: list = field(default_factory=list)
    fc_gap_failures: list = field(default_factory=list)
    defender_won: int = 0
    attacker_won: int = 0


def _check_fc_reachable(lts, game, fc_strategy, fc_set, results, tag):
    """Walk the subgraph closed under attacker moves and the fc strategy."""
    reached = {game.graph.initial}
    todo = deque((game.graph.initial,))
    while todo:
        idx = todo.popleft()
        pos = game.positions[idx]
        if isinstance(pos, AttackerPos):
            if (pos.p, pos.q_set) not in fc_set:
                results.fc_invariant_failures.append((tag, pos))
            targets = game.graph.moves[idx]
        else:
            chosen = fc_strategy.move_from(idx)
            if chosen is None:
                results.fc_gap_failures.append((tag, pos))
                targets = ()
            else:
                targets = (chosen,)
        for t in targets:
            if t not in reached:
                reached.add(t)
                todo.append(t)


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    return [
        make_random_lts(rng, n_states=6, n_actions=2, density=(0.2, 0.5))
        for _ in range(CORPUS_SIZE)
    ]


@pytest.fixture(scope="module")
def corpus_results(corpus):
    results = CorpusResults(systems=len(corpus))
    for sys_idx, lts in enumerate(corpus):
        t0 = time.perf_counter()
        oracle = contrasim_preorder(lts)
        solved = {}
        for p in range(lts.state_count):
            for q in range(lts.state_count):
                game = build_cs_game(lts, p, q)
                solution = solve(game.graph)
                defender_wins = solution.winner[game.graph.initial] is Player.DEFENDER
                solved[(p, q)] = (game, solution, defender_wins)
                results.pairs += 1
                if defender_wins != ((p, q) in oracle):
                    results.mismatches.append((sys_idx, p, q))
        results.agreement_seconds += time.perf_counter() - t0

        # criterion 6: certificates for every instance
        for (p, q), (game, solution, defender_wins) in solved.items():
            if defender_wins:
                results.defender_won += 1
                relation = extract_contrasimulation(game, solution)
                if (p, q) not in relation or not is_contrasimulation(lts, relation):
                    results.relation_failures.append((sys_idx, p, q))
            else:
                results.attacker_won += 1
                phi = extract_distinguishing_formula(game, solution, game.graph.initial)
                root = game.positions[game.graph.initial]
                if not hml_satisfies(lts, p, phi) or any(
                    hml_satisfies(lts, member, phi) for member in root.q_set
                ):
                    results.formula_failures.append((sys_idx, p, q))

        # criterion 7: preorder and strategy laws on the same corpus
        if any((s, s) not in oracle for s in range(lts.state_count)):
            results.preorder_law_failures.append((sys_idx, "reflexivity"))
        by_left = {}
        for a, b in oracle:
            by_left.setdefault(a, set()).add(b)
        if any(
            (p, r) not in oracle
            for p, q in oracle
            for r in by_left.get(q, ())
        ):
            results.preorder_law_failures.append((sys_idx, "transitivity"))
        if any(
            (p2, p) not in oracle
            for p in range(lts.state_count)
            for p2 in lts.internal_closure(frozenset({p}))
        ):
            results.preorder_law_failures.append((sys_idx, "internal-step pairs"))
        if not is_contrasimulation(lts, interleaved_compose(oracle, oracle)):
            results.preorder_law_failures.append((sys_idx, "interleaved composition"))

        symmetric = {(p, q) for (p, q) in oracle if (q, p) in oracle}
        for rel in ({(s, s) for s in range(lts.state_count)}, symmetric):
            if rel == {(q, p) for p, q in rel} and is_contrasimulation(lts, rel):
                if not is_weak_simulation(lts, rel):
                    results.symmetry_weak_sim_failures.append((sys_idx, len(rel)))

        if not check_coupling(lts, oracle):
            results.coupling_failures.append(sys_idx)

        fc_set = fc_pairs(lts, oracle)
        for p, q in sorted(oracle):
            game, solution, _ = solved[(p, q)]
            fc_strategy = strategy_from_fc(game, fc_set)
            _check_fc_reachable(lts, game, fc_strategy, fc_set, results, (sys_idx, p, q))
    return results


# -- criteria -----------------------------------------------------------------------


def test_criterion_1_philosopher_verdicts(phil):
    with report(1, "philosopher system: contrasimilar, weakly one-sided, not weakly bisimilar"):
        lts, pc, pp = phil
        t0 = time.perf_counter()
        assert decide_equivalence(lts, pc, pp)
        ws = weak_sim_preorder(lts)
        assert (pp, pc) in ws
        assert (pc, pp) not in ws
        wb = weak_bisimilarity(lts)
        assert not ((pc, pp) in wb and (pp, pc) in wb)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_lockout_formula(locked):
    with report(2, "locked-out system: preorder fails with a separating formula"):
        lts, pc, pl = locked
        assert not decide_preorder(lts, pc, pl)
        game = build_cs_game(lts, pc, pl)
        solution = solve(game.graph)
        phi = extract_distinguishing_formula(game, solution, game.graph.initial)
        assert hml_satisfies(lts, pc, phi)
        assert not hml_satisfies(lts, pl, phi)
        specific = DelayNor((DelayObs(OP, DelayObs(A_EATS, TRUTH)),))
        assert hml_satisfies(lts, pc, specific)
        assert not hml_satisfies(lts, pl, specific)


def test_criterion_3_instable_choice(instable):
    with report(3, "instable choice: inequivalent, single-step blind, word length two"):
        lts, pab, pb = instable
        assert not decide_equivalence(lts, pab, pb)
        assert naive_single_step_preorder(lts, pab, pb)
        assert naive_single_step_preorder(lts, pb, pab)
        assert bounded_word_game_preorder(lts, pab, pb, 1)
        assert not bounded_word_game_preorder(lts, pab, pb, 2)


def test_criterion_4_example_play(phil):
    with report(4, "example play: eight positions legal, defender wins the start"):
        lts, pc, pp = phil
        game = build_cs_game(lts, pc, pp)
        solution = solve(game.graph)
        assert solution.winner[game.graph.initial] is Player.DEFENDER
        play = transcript_play(lts, pc, pp)
        assert len(play) == 8
        indices = [game.index[pos] for pos in play]
        assert validate_play(game.graph, indices, PositionalStrategy(Player.DEFENDER, {}))
        # every transcript position is defender-won, so the play stays
        # compatible with the winning strategy up to the documented swap pick
        assert all(solution.winner[i] is Player.DEFENDER for i in indices)
        for i, idx in enumerate(indices[:-1]):
            pos = game.positions[idx]
            if isinstance(pos, SimPos):
                assert solution.defender_strategy.move_from(idx) == indices[i + 1]
            elif isinstance(pos, SwapPos):
                chosen = game.positions[solution.defender_strategy.move_from(idx)]
                committed = game.positions[indices[i + 1]]
                assert weak_enabled(lts, chosen.p, A_EATS) == weak_enabled(
                    lts, committed.p, A_EATS
                )


def test_criterion_5_oracle_agreement(corpus_results):
    with report(5, "game verdicts match the fixed-point oracle on the corpus"):
        assert corpus_results.systems == CORPUS_SIZE
        assert corpus_results.pairs == CORPUS_SIZE * 36
        assert corpus_results.mismatches == []
        assert corpus_results.agreement_seconds < 60.0, (
            f"took {corpus_results.agreement_seconds:.1f}s"
        )


def test_criterion_6_certificate_soundness(corpus_results):
    with report(6, "certificates sound on every corpus instance"):
        assert corpus_results.defender_won + corpus_results.attacker_won == (
            corpus_results.pairs
        )
        assert corpus_results.relation_failures == []
        assert corpus_results.formula_failures == []


def test_criterion_7_relation_laws(corpus_results, corpus):
    with report(7, "preorder and strategy laws hold on the corpus and its variants"):
        assert corpus_results.preorder_law_failures == []
        assert corpus_results.symmetry_weak_sim_failures == []
        assert corpus_results.coupling_failures == []
        assert corpus_results.fc_invariant_failures == []
        assert corpus_results.fc_gap_failures == []

        # tau-free variant: the oracle degenerates to strong bisimilarity
        rng = random.Random(CORPUS_SEED + 1)
        for _ in range(40):
            lts = make_tau_free_lts(rng, n_states=5, n_actions=2)
            assert contrasim_preorder(lts) == strong_bisimilarity(lts)

        # acyclic variant: weak word steps equal closed delay-word frontiers
        rng = random.Random(CORPUS_SEED + 2)
        for _ in range(40):
            lts = make_random_lts(rng, n_states=5, acyclic=True)
            words = [()]
            for _ in range(lts.state_count):
                words = [w + (a,) for w in words for a in lts.visible_actions] + words
            for s in range(lts.state_count):
                for w in words:
                    frontier = lts.word_successors(w, frozenset({s}))
                    assert lts.weak_word_successors(s, w) == lts.internal_closure(
                        frontier
                    )
                    assert frontier <= lts.weak_word_successors(s, w)


def scale_system() -> Lts:
    """Ten states, three actions, visible and internal cycles."""
    a, b, c = act("a"), act("b"), act("c")
    edges = []
    for i in range(10):
        edges.append((i, a, (i + 1) % 10))
        edges.append((i, a, (i + 3) % 10))
        edges.append((i, b, (2 * i) % 10))
        if i % 2 == 0:
            edges.append((i, c, (i + 5) % 10))
        if i % 3 == 0:
            edges.append((i, TAU, (i + 4) % 10))
    return Lts(10, edges)


def test_criterion_8_scale_smoke(phil):
    with report(8, "ten-state cyclic system decided fast, inside the game bound"):
        lts = scale_system()
        # the a-edges alone close a cycle through every state
        reachable = {0}
        todo = [0]
        while todo:
            s = todo.pop()
            for t in lts.strong_successors(s, act("a")):
                if t not in reachable:
                    reachable.add(t)
                    todo.append(t)
        assert reachable == set(range(10))

        t0 = time.perf_counter()
        game = build_cs_game(lts, 0, 1)
        solution = solve(game.graph)
        verdict = solution.winner[game.graph.initial] is Player.DEFENDER
        elapsed = time.perf_counter() - t0
        bound = (len(lts.visible_actions) + 2) * lts.state_count * 2**lts.state_count
        assert game.graph.position_count <= bound
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        assert verdict in (True, False)
