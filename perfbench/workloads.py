"""Seeded generators for the benchmark's three workloads.

Every generated query carries the verdict it must produce, known by
construction of the model; ``test_perfbench.py`` cross-checks these verdicts
against the fixed-point oracles of ``contrasim.relations`` at each family's
smallest sizes.

The seed picks action names, state numbering, transition order, copy order,
word bounds and query order.  The mix of model sizes in each workload is
fixed, so that the figures of runs with different seeds stay comparable.
"""

import random
from dataclasses import dataclass
from typing import Optional

# Never "i" or "tau": the .aut reader treats those labels as internal.
_LETTERS = "abcdefghjkmnpqrsuvwxyz"


@dataclass(frozen=True)
class Query:
    """One ``contrasim check`` call and the verdict it must return."""

    name: str
    model: str  # file name inside the workload's model directory
    lhs: str
    rhs: str
    expected: bool
    notion: str = "contrasim"
    direction: str = "preorder"
    word_bound: Optional[int] = None

    def argv(self, model_dir: str) -> list[str]:
        args = [
            "check", f"{model_dir}/{self.model}",
            "--lhs", self.lhs, "--rhs", self.rhs,
            "--notion", self.notion, "--direction", self.direction,
            "--emit-certificate",
        ]
        if self.word_bound is not None:
            args += ["--word-bound", str(self.word_bound)]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    models: dict[str, str]  # file name -> file text
    queries: tuple[Query, ...]


# -- .aut models ----------------------------------------------------------------


def _aut_text(rng: random.Random, n_states: int, edges, initial: int) -> tuple[str, list[int]]:
    """Render ``edges`` over states ``0..n_states-1`` with seeded state numbers
    and transition order; returns the text and the renumbering."""
    perm = list(range(n_states))
    rng.shuffle(perm)
    records = [f'({perm[s]},"{label}",{perm[d]})' for s, label, d in edges]
    rng.shuffle(records)
    header = f"des ({perm[initial]},{len(records)},{n_states})"
    return "\n".join([header] + records) + "\n", perm


def _guess_nfa(edges, first: int, k: int, a: str, b: str, end: Optional[str], sink: int) -> int:
    """Append the NFA that loops on ``a``/``b`` and guesses "``b``, then k-1
    more letters" at states ``first..first+k``; with ``end`` its last state
    continues by ``end`` to ``sink``.  Returns the next free state."""
    edges += [(first, a, first), (first, b, first), (first, b, first + 1)]
    for i in range(1, k):
        edges += [(first + i, a, first + i + 1), (first + i, b, first + i + 1)]
    if end is not None:
        edges.append((first + k, end, sink))
    return first + k + 1


def blow_model(rng: random.Random, k: int) -> tuple[str, int, int]:
    """``blow(k)``: a universal ``a``/``b`` state against the guessing NFA.

    The preorder fails in both directions: the attacker plays into the
    guessed suffix and swaps.  Returns (text, universal state, NFA start).
    """
    a, b = rng.sample(_LETTERS, 2)
    edges = [(0, a, 0), (0, b, 0)]
    _guess_nfa(edges, 1, k, a, b, None, 0)
    text, perm = _aut_text(rng, k + 2, edges, initial=0)
    return text, perm[0], perm[1]


def phil_model(rng: random.Random, k: int) -> tuple[str, int, int]:
    """The philosopher shape ``Pp = t.op.T1 + t.op.T2`` against
    ``Pc = Pp + op.(t.T1 + t.T2)``, whose tails are guessing NFAs that end
    in distinct actions.  Contrasimilar, but not weakly bisimilar.
    Returns (text, Pc, Pp)."""
    a, b, op, end1, end2 = rng.sample(_LETTERS, 5)
    pc, pp, after1, after2, mixed, sink1, sink2 = range(7)
    edges: list = []
    tail1 = 7
    tail2 = _guess_nfa(edges, tail1, k, a, b, end1, sink1)
    n_states = _guess_nfa(edges, tail2, k, a, b, end2, sink2)
    edges += [
        (pp, "tau", after1), (pp, "tau", after2),
        (after1, op, tail1), (after2, op, tail2),
        (pc, "tau", after1), (pc, "tau", after2), (pc, op, mixed),
        (mixed, "tau", tail1), (mixed, "tau", tail2),
    ]
    text, perm = _aut_text(rng, n_states, edges, initial=pc)
    return text, perm[pc], perm[pp]


def chain_aut_model(rng: random.Random, n: int, same_end: bool) -> tuple[str, int, int]:
    """Two chains of ``n`` equal steps ending in one action each (distinct
    ones unless ``same_end``), over a shared deadlock.  Returns (text, lhs, rhs)."""
    step, end1, end2 = rng.sample(_LETTERS, 3)
    if same_end:
        end2 = end1
    lhs, rhs, dead = 0, n + 1, 2 * n + 2
    edges = []
    for i in range(n):
        edges += [(lhs + i, step, lhs + i + 1), (rhs + i, step, rhs + i + 1)]
    edges += [(lhs + n, end1, dead), (rhs + n, end2, dead)]
    text, perm = _aut_text(rng, 2 * n + 3, edges, initial=lhs)
    return text, perm[lhs], perm[rhs]


# -- .ccs models ----------------------------------------------------------------


def chain_ccs_model(rng: random.Random, n: int, same_end: bool) -> str:
    """The CCS twin of :func:`chain_aut_model`, as prefix chains ``L`` and ``R``."""
    step, end1, end2 = rng.sample(_LETTERS, 3)
    if same_end:
        end2 = end1
    prefix = f"{step}." * n
    return f"L = {prefix}{end1}.0;\nR = {prefix}{end2}.0;\n"


# The variants of fixtures/phil.ccs and fixtures/locked.ccs, per copy tag.
PHIL_VARIANTS = {
    "Pc": "(pl{t}.sp{t}.aEats{t}.0 | pl{t}.sp{t}.bEats{t}.0 | 'pl{t}.0 | op{t}.'sp{t}.0)",
    "Pp": "(pl{t}.op{t}.sp{t}.aEats{t}.0 | pl{t}.op{t}.sp{t}.bEats{t}.0 | 'pl{t}.0 | 'sp{t}.0)",
    "Pl": "(pl{t}.sp{t}.aEats{t}.0 | pl{t}.sp{t}.bEats{t}.0 | op{t}.'pl{t}.0 | 'sp{t}.0)",
}

# Verdict of "x below y" for one copy, per notion.  Pc and Pp are the
# contrasimilar pair of the source paper, which no weak simulation relates
# from Pc to Pp; Pl can be told apart from both by the lockout formula.
# The naive single-step procedure and the bounded word game (bounds 1 to 4)
# agree with the game on these systems.
_CONTRASIM_ONE = {("Pc", "Pp"), ("Pp", "Pc")}
_WEAK_SIM_FAILS = {("Pc", "Pp"), ("Pl", "Pp")}


def single_copy_verdict(notion: str, x: str, y: str) -> bool:
    if x == y:
        return True
    if notion in ("weak-bisim", "strong-bisim"):
        return False
    if notion == "weak-sim":
        return (x, y) not in _WEAK_SIM_FAILS
    return (x, y) in _CONTRASIM_ONE


def phil_ccs_model(rng: random.Random, lhs: tuple[str, ...], rhs: tuple[str, ...]) -> str:
    """Definitions ``L`` and ``R``, each the parallel composition of one
    philosopher system per copy, with copy-specific action names."""
    tags = rng.sample([x + y for x in _LETTERS for y in _LETTERS], len(lhs))

    def system(variants) -> str:
        return " | ".join(
            PHIL_VARIANTS[v].format(t=t) + f" \\ {{pl{t}, sp{t}}}"
            for v, t in zip(variants, tags)
        )

    return f"L = {system(lhs)};\nR = {system(rhs)};\n"


def composed_verdict(notion: str, direction: str, lhs, rhs) -> bool:
    """Independent copies with disjoint names: a relation holds between the
    compositions iff it holds copy by copy."""
    forward = all(single_copy_verdict(notion, x, y) for x, y in zip(lhs, rhs))
    if direction == "preorder":
        return forward
    return forward and all(single_copy_verdict(notion, y, x) for x, y in zip(lhs, rhs))


NOTIONS = (
    "contrasim", "weak-sim", "weak-bisim", "strong-bisim",
    "naive-contrasim-1step", "bounded-word-game",
)


# -- workloads ------------------------------------------------------------------

# Sizes per family.  Subset-blowup: game build and solve dominate, growing
# as 2^k; the 16 blow(10) queries are the slowest and hold p90, the 12
# philosopher queries at k=4 hold the median, each inside one family of
# similar cost.  Deep-chain: the non-failing depths stay below where the recursive
# paths overflow, and the six CCS chains of depth 200 hold p90; the last
# group sits above the limits on purpose (those queries fail today and are
# charged the time limit).
BLOW_KS = (4, 5, 6, 7, 8) * 2 + (9,) * 3 + (10,) * 8
PHIL_KS = (2, 3, 4) * 6 + (5,) * 11
CHAIN_AUT_DEPTHS = tuple(range(100, 301, 10))
CHAIN_CCS_DEPTHS = (60, 80, 100, 120, 140, 200, 200, 200)
TWIN_AUT_DEPTHS = tuple(range(10, 101, 10))
TWIN_CCS_DEPTHS = tuple(range(10, 81, 10))
# Extraction overflows past ~1000 steps, the CCS front end past ~500, and
# the certificate check past ~450.
CHAIN_OVERFLOWS = (("aut", 1500), ("aut", 2200), ("aut", 3000), ("aut", 600), ("aut", 750),
                   ("aut", 900), ("ccs", 600), ("ccs", 1000))


def _both_directions(name: str, model: str, p, q, expected: bool) -> list[Query]:
    return [
        Query(f"{name}-fwd", model, str(p), str(q), expected),
        Query(f"{name}-bwd", model, str(q), str(p), expected),
    ]


def subset_blowup(seed: int) -> Workload:
    rng = random.Random(seed)
    models: dict[str, str] = {}
    queries: list[Query] = []
    for i, k in enumerate(BLOW_KS):
        file = f"blow-{i}-k{k}.aut"
        models[file], u, nfa = blow_model(rng, k)
        queries += _both_directions(file[:-4], file, u, nfa, expected=False)
    for i, k in enumerate(PHIL_KS):
        file = f"phil-{i}-k{k}.aut"
        models[file], pc, pp = phil_model(rng, k)
        queries += _both_directions(file[:-4], file, pc, pp, expected=True)
    rng.shuffle(queries)
    return Workload("subset-blowup", models, tuple(queries))


def deep_chain(seed: int) -> Workload:
    rng = random.Random(seed)
    models: dict[str, str] = {}
    queries: list[Query] = []

    def add(fmt: str, n: int, same_end: bool, tag: str, both: bool = True) -> None:
        file = f"{tag}-{len(models)}-n{n}.{fmt}"
        if fmt == "aut":
            models[file], lhs, rhs = chain_aut_model(rng, n, same_end)
        else:
            models[file] = chain_ccs_model(rng, n, same_end)
            lhs, rhs = "L", "R"
        pair = _both_directions(file.rsplit(".", 1)[0], file, lhs, rhs, expected=same_end)
        queries.extend(pair if both else [rng.choice(pair)])

    for n in CHAIN_AUT_DEPTHS:
        add("aut", n, False, "chain")
    for n in CHAIN_CCS_DEPTHS:
        add("ccs", n, False, "chain")
    for n in TWIN_AUT_DEPTHS:
        add("aut", n, True, "twin")
    for n in TWIN_CCS_DEPTHS:
        add("ccs", n, True, "twin")
    for fmt, n in CHAIN_OVERFLOWS:
        add(fmt, n, False, "deep", both=False)
    rng.shuffle(queries)
    return Workload("deep-chain", models, tuple(queries))


def ccs_notions(seed: int) -> Workload:
    rng = random.Random(seed)
    models: dict[str, str] = {}
    queries: list[Query] = []

    def add(lhs: tuple[str, ...], rhs: tuple[str, ...], direction: str,
            word_bound: Optional[int] = None) -> None:
        file = f"phil{len(lhs)}-{len(models)}-{'-'.join(lhs)}-vs-{'-'.join(rhs)}.ccs"
        models[file] = phil_ccs_model(rng, lhs, rhs)
        for notion in NOTIONS:
            bound = None
            if notion == "bounded-word-game":
                bound = word_bound if word_bound is not None else rng.randint(2, 4)
            expected = composed_verdict(notion, direction, lhs, rhs)
            queries.append(Query(
                f"{file[:-4]}-{notion}-{direction}", file, "L", "R", expected,
                notion=notion, direction=direction, word_bound=bound,
            ))

    variants = tuple(PHIL_VARIANTS)
    for x in variants:
        for y in variants:
            add((x,), (y,), "preorder")
    for i, x in enumerate(variants):
        for y in variants[i:]:
            add((x,), (y,), "equivalence")
    # Two copies, one of them Pl on both sides, Pc against Pp and Pp against
    # Pc in the other: the seed picks the copy that carries Pl.
    locked = rng.randrange(2)
    for x, y in (("Pc", "Pp"), ("Pp", "Pc")):
        lhs = (x, "Pl") if locked else ("Pl", x)
        rhs = (y, "Pl") if locked else ("Pl", y)
        add(lhs, rhs, "preorder", word_bound=3)
    rng.shuffle(queries)
    return Workload("ccs-notions", models, tuple(queries))


WORKLOADS = {
    "subset-blowup": subset_blowup,
    "deep-chain": deep_chain,
    "ccs-notions": ccs_notions,
}
