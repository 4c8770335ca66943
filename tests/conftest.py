import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from contrasim.ccs import expand_ccs_roots, parse_ccs
from contrasim.csgame import AttackerPos, SimPos, SwapPos
from contrasim.lts import Action, Lts, TAU, act

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# State numbering of the hand-drawn .aut twins (deadlocks merged into 0).
PHIL_AUT = {
    "dead": 0, "Pc": 1, "Pp": 2, "AB": 3, "op_ta": 4, "op_tb": 5,
    "ta": 6, "tb": 7, "a": 8, "b": 9,
}
LOCKED_AUT = {**PHIL_AUT, "Pl": 2, "G": 10}
INSTABLE_AUT = {"dead": 0, "Pab": 1, "AB": 2, "bE": 3, "Pb": 4}


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


@pytest.fixture(scope="session")
def phil():
    """Combined expansion of the philosopher system: (lts, Pc, Pp)."""
    program = parse_ccs(fixture_text("phil.ccs"))
    lts, (pc, pp) = expand_ccs_roots(program, ["Pc", "Pp"])
    return lts, pc, pp


@pytest.fixture(scope="session")
def locked():
    """Combined expansion of the locked-out variant: (lts, Pc, Pl)."""
    program = parse_ccs(fixture_text("locked.ccs"))
    lts, (pc, pl) = expand_ccs_roots(program, ["Pc", "Pl"])
    return lts, pc, pl


@pytest.fixture(scope="session")
def instable():
    """Combined expansion of the instable-choice example: (lts, Pab, Pb)."""
    program = parse_ccs(fixture_text("instable.ccs"))
    lts, (pab, pb) = expand_ccs_roots(program, ["Pab", "Pb"])
    return lts, pab, pb


@pytest.fixture(scope="session")
def instable_single():
    """The four-state expansion of the instable process alone."""
    program = parse_ccs(fixture_text("instable.ccs"))
    lts, initials = expand_ccs_roots(program, ["Pab"])
    return lts, initials[0]


def make_random_lts(
    rng: random.Random,
    n_states: int = 6,
    n_actions: int = 2,
    density: tuple[float, float] = (0.2, 0.5),
    tau_share: float = 0.3,
    acyclic: bool = False,
) -> Lts:
    """A random LTS with at least ``tau_share`` of its edges internal.

    With ``acyclic`` every edge goes from a lower to a higher state index.
    """
    actions = [Action(chr(ord("a") + i)) for i in range(n_actions)]
    wanted = max(2, round(rng.uniform(*density) * n_states * n_states))
    min_tau = max(1, -(-wanted * round(tau_share * 100) // 100))  # ceil(tau_share * wanted)
    edges: set[tuple[int, Action, int]] = set()
    tau_edges = 0
    attempts = 0
    while len(edges) < wanted and attempts < 200 * wanted:
        attempts += 1
        src = rng.randrange(n_states)
        dst = rng.randrange(n_states)
        if acyclic:
            if src == dst:
                continue
            src, dst = min(src, dst), max(src, dst)
        label = TAU if tau_edges < min_tau else rng.choice(actions)
        edge = (src, label, dst)
        if edge not in edges:
            edges.add(edge)
            if label is TAU:
                tau_edges += 1
    ordered = sorted(edges, key=lambda t: (t[0], str(t[1]), t[2]))
    return Lts(n_states, ordered)


def make_tau_free_lts(rng: random.Random, n_states: int = 5, n_actions: int = 2) -> Lts:
    actions = [Action(chr(ord("a") + i)) for i in range(n_actions)]
    wanted = max(2, round(rng.uniform(0.2, 0.5) * n_states * n_states))
    edges = set()
    attempts = 0
    while len(edges) < wanted and attempts < 200 * wanted:
        attempts += 1
        edges.add((rng.randrange(n_states), rng.choice(actions), rng.randrange(n_states)))
    return Lts(n_states, sorted(edges, key=lambda t: (t[0], str(t[1]), t[2])))


@st.composite
def random_lts(draw, max_states=5, tau_free=False, acyclic=False):
    """A random system of 1 to ``max_states`` states: a seed, then a state
    count, then :func:`make_tau_free_lts` or :func:`make_random_lts`."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, max_states))
    rng = random.Random(seed)
    if tau_free:
        return make_tau_free_lts(rng, n_states=n)
    return make_random_lts(rng, n_states=n, acyclic=acyclic)


def two_chains_aut(n: int, ends: tuple[str, str] = ("b", "c"), looped: bool = False) -> str:
    """Two n-step a-chains as .aut text (2n + 3 states): state 0's ends in
    an ``ends[0]``-step and state n+1's in an ``ends[1]``-step, both into
    state 2n+2; looped, each end step loops on its chain's last state."""
    records = [f'({i},"a",{i + 1})' for i in range(n)]
    records += [f'({n + 1 + i},"a",{n + 2 + i})' for i in range(n)]
    last = (n, 2 * n + 1)
    targets = last if looped else (2 * n + 2, 2 * n + 2)
    records += [f'({s},"{end}",{t})' for s, end, t in zip(last, ends, targets)]
    return "\n".join([f"des (0,{len(records)},{2 * n + 3})", *records]) + "\n"


def phil_shape(k: int) -> tuple[Lts, int, int]:
    """The philosopher shape: ``Pp`` (state 1) steps internally to one of
    two ``op``-guarded guessing NFAs, ``Pc`` (state 0) can also take ``op``
    first and choose afterwards.  Each NFA loops on a and b, guesses "b,
    then k - 1 more letters" and ends in its own action.  Contrasimilar,
    with 9 + 2k states and a set game that grows as 2^k."""
    a, b, op = act("a"), act("b"), act("op")
    edges = []

    def guess(first: int, end, sink: int) -> int:
        edges.extend([(first, a, first), (first, b, first), (first, b, first + 1)])
        edges.extend((first + i, x, first + i + 1) for i in range(1, k) for x in (a, b))
        edges.append((first + k, end, sink))
        return first + k + 1

    tail1 = 7
    tail2 = guess(tail1, act("x"), 5)
    n = guess(tail2, act("y"), 6)
    edges += [
        (1, TAU, 2), (1, TAU, 3), (2, op, tail1), (3, op, tail2),
        (0, TAU, 2), (0, TAU, 3), (0, op, 4), (4, TAU, tail1), (4, TAU, tail2),
    ]
    return Lts(n, edges), 0, 1


# -- the example play on the philosopher expansion --------------------------------

OP, A_EATS, B_EATS = act("op"), act("aEats"), act("bEats")


def weak_enabled(lts: Lts, state: int, action) -> bool:
    return bool(lts.weak_successors(state, action))


def transcript_states(lts: Lts, pc: int, pp: int):
    """Identify the states of the example play on the philosopher expansion."""
    (ab,) = lts.strong_successors(pc, OP)
    q1 = lts.delay_successors(frozenset({pp}), OP)
    (ta_c,) = [
        s
        for s in lts.internal_closure(frozenset({ab}))
        if s != ab
        and weak_enabled(lts, s, A_EATS)
        and not weak_enabled(lts, s, B_EATS)
        and not lts.is_stable(s)
    ]
    (ta_p,) = [s for s in q1 if weak_enabled(lts, s, A_EATS)]
    (dead_p,) = lts.delay_successors(frozenset({ta_p}), A_EATS)
    q2 = lts.delay_successors(frozenset({ta_c}), A_EATS)
    return ab, q1, ta_c, ta_p, dead_p, q2


def transcript_play(lts: Lts, pc: int, pp: int):
    """The eight positions of the example play: challenge op, swap to the
    aEats side, observe aEats, and keep swapping between deadlocks."""
    ab, q1, ta_c, ta_p, dead_p, q2 = transcript_states(lts, pc, pp)
    return [
        AttackerPos(pc, frozenset({pp})),
        SimPos(OP, ab, frozenset({pp})),
        AttackerPos(ab, q1),
        SwapPos(ta_c, q1),
        AttackerPos(ta_p, frozenset({ta_c})),
        SimPos(A_EATS, dead_p, frozenset({ta_c})),
        AttackerPos(dead_p, q2),
        SwapPos(dead_p, q2),
    ]
