import copy
import gc
import pickle
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from contrasim import ccs
from contrasim.ccs import (
    Choice,
    CcsProgram,
    Ident,
    Nil,
    NIL,
    Parallel,
    Prefix,
    Restrict,
    base_name,
    complement,
    expand_ccs,
    expand_ccs_roots,
    parse_ccs,
)
from contrasim.errors import ParseError, StateBudgetError
from contrasim.lts import TAU, Lts, act
from contrasim.relations import weak_classes

from conftest import fixture_text


def defs(text: str):
    return parse_ccs(text).definitions


# -- parsing -----------------------------------------------------------------


def test_nil_definition():
    assert defs("X = 0;") == {"X": NIL}


def test_instable_example_structure():
    term = defs("Pab = op.(aEats.0 + tau.bEats.0);")["Pab"]
    assert term == Prefix(
        act("op"),
        Choice(Prefix(act("aEats"), NIL), Prefix(TAU, Prefix(act("bEats"), NIL))),
    )


def test_philosopher_example_structure():
    term = defs(
        "Pc = (pl.sp.aEats.0 | pl.sp.bEats.0 | 'pl.0 | op.'sp.0) \\ {pl, sp};"
    )["Pc"]
    assert isinstance(term, Restrict)
    assert term.names == frozenset({"pl", "sp"})
    # parallel composition associates left: ((A | B) | C) | D
    assert isinstance(term.body, Parallel)
    d = term.body.right
    assert d == Prefix(act("op"), Prefix(act("sp!"), NIL))


def test_co_action_parses_to_bang_name():
    term = defs("X = 'a.0;")["X"]
    assert term == Prefix(act("a!"), NIL)


def test_repeated_action_names_are_one_object():
    term = defs("X = a.'a.tau.a.'a.0;")["X"]
    actions = []
    while term is not NIL:
        actions.append(term.action)
        term = term.continuation
    assert actions == [act("a"), act("a!"), TAU, act("a"), act("a!")]
    assert actions[3] is actions[0] and actions[4] is actions[1]
    assert actions[2] is TAU


def test_choice_and_parallel_associate_left():
    term = defs("X = a.0 + b.0 + c.0;")["X"]
    assert term == Choice(Choice(Prefix(act("a"), NIL), Prefix(act("b"), NIL)),
                          Prefix(act("c"), NIL))


def test_restriction_binds_tighter_than_parallel():
    term = defs("X = a.0 | b.0 \\ {b};")["X"]
    assert term == Parallel(
        Prefix(act("a"), NIL), Restrict(Prefix(act("b"), NIL), frozenset({"b"}))
    )


def test_prefix_binds_tighter_than_restriction():
    term = defs("X = a.b.0 \\ {b};")["X"]
    assert term == Restrict(
        Prefix(act("a"), Prefix(act("b"), NIL)), frozenset({"b"})
    )


def test_identifier_reference():
    d = defs("X = a.Y; Y = 0;")
    assert d["X"] == Prefix(act("a"), Ident("Y"))


def test_comments_ignored():
    d = defs("# heading\nX = a.0; # trailing\n")
    assert set(d) == {"X"}


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("X = ;", "expected a process"),
        ("X = a.0", "expected ';'"),
        ("X = a..0;", "expected a process"),
        ("= a.0;", "definition name"),
        ("X = a.0; X = b.0;", "duplicate"),
        ("X = a.Y;", "unresolved identifier 'Y'"),
        ("tau = 0;", "reserved"),
        ("X = tau;", "tau"),
        ("X = a.0 @;", "unexpected character"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_ccs(text)
    assert fragment in str(err.value)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_ccs("X = a.0;\nY = b..0;\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("X = ;", "line 1, column 5: expected a process but found ';'"),
        ("X = a.0", "line 1, column 8: expected ';' but found 'end of input'"),
        ("= a.0;", "line 1, column 1: expected a definition name"),
        ("X = a.0;\nX = b.0;", "line 2, column 1: duplicate definition of 'X'"),
        ("X = a.Y;\n\n  Z = Y;", "line 1, column 7: unresolved identifier 'Y'"),
        ("tau = 0;", "line 1, column 1: 'tau' is reserved and cannot be defined"),
        ("X = tau;", "line 1, column 5: 'tau' must prefix a process, as in tau.P"),
        ("# c\n  X = a.(b.0 | c.0;", "line 2, column 19: expected ')' but found ';'"),
        ("X = 'tau.0;", "line 1, column 6: expected an action name"),
        ("X = a.0 \\ {b,};\n", "line 1, column 14: expected an action name"),
        ("X = a.0;\n\tY = 0 é;", "line 2, column 8: unexpected character 'é'"),
    ],
)
def test_parse_error_messages(text, message):
    """Lines and columns count characters from 1, after comments and tabs alike."""
    with pytest.raises(ParseError) as err:
        parse_ccs(text)
    assert str(err.value) == message


# -- expansion ----------------------------------------------------------------


def test_single_prefix_expansion():
    lts, initial = expand_ccs(parse_ccs("A = a.0;"), "A")
    assert lts.state_count == 2
    assert lts.transitions == ((initial, act("a"), 1),)


def test_instable_expansion_counts():
    program = parse_ccs(fixture_text("instable.ccs"))
    pab_lts, _ = expand_ccs(program, "Pab")
    assert pab_lts.state_count == 4 and len(pab_lts.transitions) == 4
    labels = sorted(str(a) for _, a, _ in pab_lts.transitions)
    assert labels == ["aEats", "bEats", "op", "tau"]
    pb_lts, _ = expand_ccs(program, "Pb")
    assert pb_lts.state_count == 3 and len(pb_lts.transitions) == 2


def test_phil_expansion_behavior(phil):
    lts, pc, pp = phil
    # Pc can emit op with interleaved internal steps and then aEats.
    assert lts.weak_word_successors(pc, (act("op"), act("aEats")))
    # Pp starts with an internal choice and cannot do op strongly.
    assert lts.strong_successors(pp, act("op")) == frozenset()
    assert len(lts.strong_successors(pp, TAU)) == 2


def test_restricted_actions_never_escape(phil):
    lts, _, _ = phil
    visible = {str(a) for a in lts.visible_actions}
    assert visible == {"op", "aEats", "bEats"}


def test_synchronization_produces_tau():
    lts, initial = expand_ccs(parse_ccs("X = (a.0 | 'a.0) \\ {a};"), "X")
    assert [lab for _, lab, _ in lts.transitions] == [TAU]


def test_unrestricted_co_action_stays_visible():
    lts, _ = expand_ccs(parse_ccs("X = 'a.0;"), "X")
    assert [str(lab) for _, lab, _ in lts.transitions] == ["a!"]


def test_expansion_deterministic():
    program = parse_ccs(fixture_text("phil.ccs"))
    first = expand_ccs_roots(program, ["Pc", "Pp"])
    second = expand_ccs_roots(program, ["Pc", "Pp"])
    assert first[1] == second[1]
    assert first[0].state_count == second[0].state_count
    assert first[0].transitions == second[0].transitions
    assert first[0].state_names == second[0].state_names


def test_budget_error_names_the_budget():
    # unguarded parallel growth: each step spawns another X
    program = parse_ccs("X = a.(X | X);")
    with pytest.raises(StateBudgetError) as err:
        expand_ccs(program, "X", max_states=50)
    assert "50" in str(err.value)
    assert err.value.budget == 50


def test_unguarded_choice_recursion_is_finite():
    # X = X + a.0 has exactly the derivations of a.0
    lts, initial = expand_ccs(parse_ccs("X = X + a.0;"), "X")
    assert lts.state_count == 2
    assert lts.transitions == ((initial, act("a"), 1),)


def test_guarded_recursion_expands_to_cycle():
    # the continuation of a.X is the root identifier itself: a self-loop
    lts, initial = expand_ccs(parse_ccs("X = a.X;"), "X")
    assert lts.state_count == 1
    assert lts.transitions == ((initial, act("a"), initial),)


def test_undefined_root_rejected():
    with pytest.raises(KeyError):
        expand_ccs(parse_ccs("X = 0;"), "Y")


def test_sos_rule_replay_interleaving():
    """Hand-derived transition sets for small parallel programs."""
    lts, x = expand_ccs(parse_ccs("Y = a.0 | b.0;"), "Y")
    by_name = {lts.name_of(s): s for s in range(lts.state_count)}
    expected = {
        (x, "a", by_name["0 | b.0"]),
        (x, "b", by_name["a.0 | 0"]),
        (by_name["0 | b.0"], "b", by_name["0 | 0"]),
        (by_name["a.0 | 0"], "a", by_name["0 | 0"]),
    }
    assert {(s, str(a), d) for s, a, d in lts.transitions} == expected


def test_sos_rule_replay_sync_under_restriction():
    lts, x = expand_ccs(parse_ccs("X = (a.0 | 'a.b.0) \\ {a};"), "X")
    by_name = {lts.name_of(s): s for s in range(lts.state_count)}
    expected = {
        (x, "tau", by_name["(0 | b.0) \\ {a}"]),
        (by_name["(0 | b.0) \\ {a}"], "b", by_name["(0 | 0) \\ {a}"]),
    }
    assert {(s, str(a), d) for s, a, d in lts.transitions} == expected
    assert lts.state_count == 3


# -- interning ------------------------------------------------------------------


def test_equal_terms_are_one_object():
    built = Choice(Prefix(act("a"), NIL), Restrict(Ident("X"), frozenset({"a"})))
    parsed = defs("X = a.0 + X \\ {a};")["X"]
    assert parsed is built
    assert Nil() is NIL
    assert Parallel(NIL, NIL) is not Choice(NIL, NIL)
    assert len({built, parsed, Prefix(act("a"), NIL)}) == 2


def test_terms_are_immutable():
    term = Prefix(act("a"), NIL)
    with pytest.raises(AttributeError):
        term.continuation = Ident("X")
    assert term.continuation is NIL


def test_copies_and_pickles_are_the_interned_term():
    term = Restrict(Parallel(Prefix(act("a"), NIL), Ident("X")), frozenset({"a"}))
    assert copy.deepcopy(term) is term
    assert pickle.loads(pickle.dumps(term)) is term


# -- deep terms, far past the recursion limit -------------------------------------

DEEP = 3000


def test_deep_choice_chain():
    program = parse_ccs("X = " + " + ".join(["a.0"] * DEEP) + ";")
    term = program.definitions["X"]
    assert str(term) == " + ".join(["a.0"] * DEEP)
    lts, x = expand_ccs(program, "X")
    assert lts.state_count == 2
    assert lts.transitions == ((x, act("a"), 1),)
    assert lts.name_of(1) == "0"


def test_deep_parallel_chain_interleaves_and_synchronizes():
    # ((a.0 | 'a.0) | 0) | ... | 0: every step rebuilds the whole spine
    program = parse_ccs("X = " + " | ".join(["a.0", "'a.0"] + ["0"] * (DEEP - 2)) + ";")
    lts, x = expand_ccs(program, "X")
    by_name = {lts.name_of(s): s for s in range(lts.state_count)}
    tail = " | 0" * (DEEP - 2)
    after_a, after_co = by_name["0 | 'a.0" + tail], by_name["a.0 | 0" + tail]
    done = by_name["0 | 0" + tail]
    assert lts.state_count == 4
    assert lts.transitions == (
        (x, act("a"), after_a),
        (x, act("a!"), after_co),
        (x, TAU, done),
        (after_a, act("a!"), done),
        (after_co, act("a"), done),
    )


def test_deep_parentheses():
    program = parse_ccs(
        "X = " + "(" * 1000 + "a.0" + ")" * 1000 + ";\n"
        "Y = " + "a.(" * 1000 + "0" + ")" * 1000 + ";\n"
    )
    assert program.definitions["X"] is Prefix(act("a"), NIL)
    chain = program.definitions["Y"]
    assert str(chain) == "a." * 1000 + "0"
    lts, y = expand_ccs(program, "Y")
    assert lts.state_count == 1001
    assert lts.name_of(1000) == "0"


def test_deep_prefix_chain_built_directly():
    chain = NIL
    for i in range(DEEP):
        chain = Prefix(act("ab"[i % 2]), chain)
    lts, x = expand_ccs(CcsProgram({"X": chain}), "X")
    assert lts.state_count == DEEP + 1
    assert [(s, str(a), d) for s, a, d in lts.transitions[:2]] == [
        (x, "b", 1), (1, "a", 2)
    ]
    assert lts.name_of(1) == "a.b." * ((DEEP - 1) // 2) + "a.0"
    assert lts.name_of(DEEP) == "0"


# -- memoised derivation and printing -------------------------------------------------

# One philosopher system per copy, as in the benchmark's ccs-notions models.
PHIL_COPY = {
    "Pc": "(pl{t}.sp{t}.aEats{t}.0 | pl{t}.sp{t}.bEats{t}.0 | 'pl{t}.0 | op{t}.'sp{t}.0)",
    "Pp": "(pl{t}.op{t}.sp{t}.aEats{t}.0 | pl{t}.op{t}.sp{t}.bEats{t}.0 | 'pl{t}.0 | 'sp{t}.0)",
    "Pl": "(pl{t}.sp{t}.aEats{t}.0 | pl{t}.sp{t}.bEats{t}.0 | op{t}.'pl{t}.0 | 'sp{t}.0)",
}


def phil_copies(*variants: str) -> str:
    return " | ".join(
        PHIL_COPY[v].format(t=t) + f" \\ {{pl{t}, sp{t}}}" for t, v in zip("xyz", variants)
    )


def test_expansion_derives_each_parallel_term_once(monkeypatch):
    program = parse_ccs(
        f"L = {phil_copies('Pc', 'Pl', 'Pl')};\nR = {phil_copies('Pp', 'Pl', 'Pl')};\n"
    )
    constructed = 0
    new = Parallel.__new__

    def counting_new(cls, left, right):
        nonlocal constructed
        constructed += 1
        return new(cls, left, right)

    monkeypatch.setattr(Parallel, "__new__", counting_new)
    lts, _ = expand_ccs_roots(program, ["L", "R"])
    assert (lts.state_count, len(lts.transitions)) == (1216, 3344)
    # Deriving every state from scratch constructs about nine per transition.
    assert constructed <= 2 * len(lts.transitions)


def subterms(terms) -> set:
    seen = set()
    stack = list(terms)
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        kind = type(t)
        if kind is Prefix:
            stack.append(t.continuation)
        elif kind is Restrict:
            stack.append(t.body)
        elif kind in (Parallel, Choice):
            stack += [t.left, t.right]
    return seen


@pytest.mark.parametrize(
    "text, roots",
    [
        (fixture_text("phil.ccs"), ["Pc", "Pp"]),
        (fixture_text("locked.ccs"), ["Pc", "Pl"]),
        (fixture_text("instable.ccs"), ["Pab", "Pb"]),
        (f"L = {phil_copies('Pc')};\nR = {phil_copies('Pp')};\n", ["L", "R"]),
        (f"L = {phil_copies('Pc', 'Pl')};\nR = {phil_copies('Pp', 'Pl')};\n", ["L", "R"]),
    ],
    ids=["phil", "locked", "instable", "one-copy", "two-copy"],
)
def test_expansion_constructs_only_states_and_their_subterms(monkeypatch, text, roots):
    """Every term built is a state or a subterm of a state or of a
    definition: an interleaving that a restriction blocks builds no term."""
    program = parse_ccs(text)
    constructed = []
    cons = ccs._cons

    def recording_cons(cls, key, fields):
        term = cons(cls, key, fields)
        constructed.append(term)
        return term

    monkeypatch.setattr(ccs, "_cons", recording_cons)
    lts, _ = expand_ccs_roots(program, roots)
    monkeypatch.undo()
    # Terms are interned, so the state names parse back to the state terms.
    named = parse_ccs(
        text + "".join(f"State{s} = {lts.name_of(s)};\n" for s in range(lts.state_count))
    ).definitions
    states = [named[f"State{s}"] for s in range(lts.state_count)]
    allowed = subterms(states + list(program.definitions.values()))
    assert [str(t) for t in constructed if t not in allowed] == []


def retained_text() -> int:
    gc.collect()
    terms = [ref() for ref in list(ccs._CONS.values())]
    return sum(len(t._text) for t in terms if t is not None and t._text is not None)


@pytest.mark.parametrize(
    "body",
    [
        " + ".join(["a.0"] * 2000),
        "b.(" + " + ".join(["a.0"] * 2000) + ")",  # the choice is a state
        " | ".join(["0"] * 1999 + ["a.0"]),
    ],
)
def test_expansion_keeps_text_on_few_subterms(body):
    before = retained_text()
    program = parse_ccs(f"X = {body};")
    lts, _ = expand_ccs(program, "X")
    names = sum(len(lts.name_of(s)) for s in range(lts.state_count))
    assert retained_text() - before <= 3 * names


def named_program(tag: str) -> str:
    """A program whose action names start with ``tag``: with a tag no other
    test uses, no state's term has been printed before the test expands it."""
    return (
        f"NamedL = ({tag}a.{tag}b.0 | {tag}c.'{tag}d.0 | {tag}d.{tag}e.0) \\ {{{tag}d}};\n"
        f"NamedR = {tag}a.({tag}b.0 | {tag}c.0) + {tag}g.tau.{tag}b.0;\n"
    )


def recorded_renders(monkeypatch) -> list:
    """The terms printed from now on, in order."""
    rendered = []
    render = ccs._render

    def recording(term):
        rendered.append(term)
        return render(term)

    monkeypatch.setattr(ccs, "_render", recording)
    return rendered


def test_root_names_print_no_other_state(monkeypatch):
    rendered = recorded_renders(monkeypatch)
    lts, roots = expand_ccs_roots(parse_ccs(named_program("root")), ["NamedL", "NamedR"])
    assert rendered == []
    assert [lts.name_of(r) for r in roots] == ["NamedL", "NamedR"]
    assert set(rendered) <= {Ident("NamedL"), Ident("NamedR")}


def test_first_other_name_prints_each_state_once(monkeypatch):
    rendered = recorded_renders(monkeypatch)
    text = named_program("once")
    lts, roots = expand_ccs_roots(parse_ccs(text), ["NamedL", "NamedR"])
    other = next(s for s in range(lts.state_count) if s not in roots)
    lts.name_of(other)
    printed = len(rendered)
    names = [lts.name_of(s) for s in range(lts.state_count)]
    assert len(rendered) == printed  # the first request printed them all
    # Terms are interned, so the names parse back to the state terms.
    parsed = defs(text + "".join(f"State{s} = {name};\n" for s, name in enumerate(names)))
    states = [parsed[f"State{s}"] for s in range(lts.state_count)]
    counts = Counter(rendered)
    assert set(counts.values()) == {1}
    assert all(counts[t] == 1 for t in states if t is not NIL)
    assert [str(t) for t in states] == names


def test_quotient_names_classes_by_their_smallest_members(monkeypatch):
    rendered = recorded_renders(monkeypatch)
    lts, _ = expand_ccs_roots(parse_ccs(named_program("quot")), ["NamedL", "NamedR"])
    classes = weak_classes(lts)
    quotient = lts.quotient(classes)
    assert quotient is not lts
    assert rendered == []  # naming the classes waits for a request
    smallest = {}
    for s, c in enumerate(classes):
        smallest.setdefault(c, s)
    assert [quotient.name_of(c) for c in range(quotient.state_count)] == [
        lts.name_of(smallest[c]) for c in range(quotient.state_count)
    ]


# -- equivalence with a plain recursive SOS expander ---------------------------------

_PREC = {Choice: 0, Parallel: 1, Restrict: 2, Prefix: 3, Nil: 4, Ident: 4}


def reference_render(term, context=0):
    prec = _PREC[type(term)]
    if isinstance(term, Nil):
        body = "0"
    elif isinstance(term, Ident):
        body = term.name
    elif isinstance(term, Prefix):
        a = term.action
        name = "tau" if a.is_tau else ("'" + a.name[:-1] if a.name.endswith("!") else a.name)
        body = f"{name}.{reference_render(term.continuation, prec)}"
    elif isinstance(term, Restrict):
        names = ", ".join(sorted(term.names))
        body = f"{reference_render(term.body, prec + 1)} \\ {{{names}}}"
    elif isinstance(term, Parallel):
        body = f"{reference_render(term.left, prec)} | {reference_render(term.right, prec + 1)}"
    else:
        body = f"{reference_render(term.left, prec)} + {reference_render(term.right, prec + 1)}"
    return f"({body})" if prec < context else body


def reference_steps(term, defs, unfolding):
    if isinstance(term, Nil):
        return []
    if isinstance(term, Prefix):
        return [(term.action, term.continuation)]
    if isinstance(term, Choice):
        return reference_steps(term.left, defs, unfolding) + reference_steps(
            term.right, defs, unfolding
        )
    if isinstance(term, Parallel):
        left_steps = reference_steps(term.left, defs, unfolding)
        right_steps = reference_steps(term.right, defs, unfolding)
        out = [(a, Parallel(l2, term.right)) for a, l2 in left_steps]
        out += [(a, Parallel(term.left, r2)) for a, r2 in right_steps]
        for a, l2 in left_steps:
            if a.is_visible:
                for b, r2 in right_steps:
                    if b == complement(a):
                        out.append((TAU, Parallel(l2, r2)))
        return out
    if isinstance(term, Restrict):
        return [
            (a, Restrict(k, term.names))
            for a, k in reference_steps(term.body, defs, unfolding)
            if a.is_tau or base_name(a) not in term.names
        ]
    if term.name in unfolding:
        return []
    return reference_steps(defs[term.name], defs, unfolding | {term.name})


def reference_expand(program, roots, max_states):
    index, queue, edges = {}, deque(), []

    def intern(term):
        if term not in index:
            if len(index) >= max_states:
                raise StateBudgetError(max_states)
            index[term] = len(index)
            queue.append(term)
        return index[term]

    initials = [intern(Ident(root)) for root in roots]
    while queue:
        term = queue.popleft()
        emitted = set()
        for action, target in reference_steps(term, program.definitions, frozenset()):
            if (action, target) not in emitted:
                emitted.add((action, target))
                edges.append((index[term], action, intern(target)))
    names = {idx: reference_render(term) for term, idx in index.items()}
    return Lts(len(index), edges, names), initials


DEF_NAMES = ("X", "Y", "Z")
ACTIONS = (act("a"), act("a!"), act("b"), act("b!"), TAU)


def ccs_terms():
    leaves = st.one_of(st.just(NIL), st.sampled_from(DEF_NAMES).map(Ident))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Prefix, st.sampled_from(ACTIONS), inner),
            st.builds(Choice, inner, inner),
            st.builds(Parallel, inner, inner),
            st.builds(Restrict, inner, st.frozensets(st.sampled_from("ab"), min_size=1)),
        ),
        max_leaves=8,
    )


ccs_programs = st.builds(
    lambda terms: CcsProgram(dict(zip(DEF_NAMES, terms))),
    st.tuples(*(ccs_terms() for _ in DEF_NAMES)),
)


@given(ccs_programs, st.lists(st.sampled_from(DEF_NAMES), min_size=1, max_size=2))
@settings(max_examples=300, deadline=None)
def test_expansion_matches_recursive_reference(program, roots):
    try:
        expected = reference_expand(program, roots, max_states=40)
    except StateBudgetError:
        with pytest.raises(StateBudgetError):
            expand_ccs_roots(program, roots, max_states=40)
        return
    lts, initials = expand_ccs_roots(program, roots, max_states=40)
    assert initials == expected[1]
    assert lts.state_count == expected[0].state_count
    assert lts.transitions == expected[0].transitions
    assert lts.state_names == expected[0].state_names


def test_memoised_steps_are_not_extended():
    # The state Y + b.0 derives and memoises Y's steps first; the state Y,
    # found next, must not see b among them.
    program = parse_ccs("X = a.(Y + b.0) + c.Y;\nY = d.0 | e.0;\n")
    expected, _ = reference_expand(program, ["X"], max_states=40)
    lts, _ = expand_ccs(program, "X")
    assert lts.transitions == expected.transitions
    assert lts.state_names == expected.state_names


@given(ccs_programs)
@settings(max_examples=200, deadline=None)
def test_rendered_program_parses_back(program):
    text = "".join(f"{name} = {term};\n" for name, term in program.definitions.items())
    assert all(
        parsed is program.definitions[name]
        for name, parsed in parse_ccs(text).definitions.items()
    )
    assert all(
        str(term) == reference_render(term) for term in program.definitions.values()
    )
