"""A minimal CCS term language and its expansion into finite LTSs.

The surface syntax::

    Def  ::= Name "=" Proc ";"
    Proc ::= "0" | Act "." Proc | Proc "+" Proc | Proc "|" Proc
           | Proc "\\" "{" Name ("," Name)* "}" | Name | "(" Proc ")"
    Act  ::= Name | "'" Name | "tau"

``'a`` is the co-action of ``a``; ``#`` starts a comment running to the end
of the line.  Prefix binds tighter than restriction, restriction tighter
than parallel, parallel tighter than choice; ``+`` and ``|`` associate left.

Terms are interned (hash-consed): every constructor, whether the parser,
the SOS rules or a caller invokes it, looks its kind and children up in one
cons table, so structurally equal terms are the same object.  Equality and
hashing are by identity and cost O(1) at any depth.

Expansion keeps one memo, for the one call, from each term derived outside
an identifier unfolding to its steps, so every distinct subterm derives its
steps once.  A definition whose identifiers all occur under a prefix,
such as one without identifiers, unfolds none when its steps are derived,
so it is derived outside its own unfolding and its subterms enter the
memo too.  A parallel step's target is kept as a description of its two
operands and built only when a restriction keeps the step or the step
becomes a state, so an interleaving that a restriction blocks builds no
term, and a successor state that changed one component of a parallel
composition builds only the nodes above that component.  Expansion is
linear in the distinct subterms and the transitions.

Each state is named by its full term, printed only when a name is asked
for.  A term keeps its text once printed, and printing copies that text
whole wherever the term occurs inside another.  The names of the roots,
identifiers, cost nothing to print.  The first request for any other name
prints the operands that parallel steps left unchanged and then every
state, last-found first, so a state's name copies its untouched components
and its successor in a prefix chain, and walks only what moved; that costs
the length of all the names.  A check that prints only its two processes
thus never prints the other states.  Parsing, step derivation and printing
are loops over explicit stacks, so terms of any depth are accepted.

Expansion states are reachable terms compared structurally (no structural
congruence, no merging of distinct deadlocked terms).  Parallel components
interleave, and an action synchronizes with its co-action into an internal
step; restriction blocks both polarities of the restricted names.  At the
LTS level a surviving co-action ``'a`` is rendered as the visible name
``a!``, since action names cannot contain the quote character.
"""

import re
import weakref
from functools import lru_cache, partial

from .errors import ParseError, StateBudgetError
from .lts import Action, Lts, StateNames, TAU
from .record import Record

DEFAULT_MAX_STATES = 10_000

_CO_SUFFIX = "!"


def co_name(name: str) -> str:
    """The LTS-level rendering of the co-action of a plain name."""
    return name + _CO_SUFFIX


def base_name(action: Action) -> str:
    """The plain name an action synchronizes/restricts under."""
    if action.is_tau:
        raise ValueError("the internal action has no base name")
    return action.name.removesuffix(_CO_SUFFIX)


@lru_cache(maxsize=4096)  # one Action per name, not one per synchronization check
def complement(action: Action) -> Action:
    if action.is_tau:
        raise ValueError("the internal action has no complement")
    if action.name.endswith(_CO_SUFFIX):
        return Action(action.name.removesuffix(_CO_SUFFIX))
    return Action(action.name + _CO_SUFFIX)


# -- terms -------------------------------------------------------------------

# The cons table: (kind, fields with children by identity) -> a weak
# reference to the one live term with them.  A child's id() is a sound key,
# since the term holding the entry keeps its children alive, and an entry
# goes when its term dies.
_CONS: dict[tuple, weakref.ref] = {}


def _uncons(key: tuple, ref: weakref.ref) -> None:
    if _CONS.get(key) is ref:
        del _CONS[key]


class CcsTerm:
    """Base class of the immutable, interned term variants below."""

    __slots__ = ("_text", "__weakref__")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} terms are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} terms are immutable")

    def __str__(self) -> str:
        return self._text if self._text is not None else _render(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, so through the table
        return type(self), tuple(getattr(self, slot) for slot in type(self).__slots__)


def _cons(cls, key: tuple, fields: tuple) -> CcsTerm:
    ref = _CONS.get(key)
    term = ref() if ref is not None else None
    if term is None:
        term = object.__new__(cls)
        for slot, value in zip(cls.__slots__, fields):
            object.__setattr__(term, slot, value)
        object.__setattr__(term, "_text", None)
        _CONS[key] = weakref.ref(term, partial(_uncons, key))
    return term


class Nil(CcsTerm):
    __slots__ = ()

    def __new__(cls):
        return _cons(cls, (cls,), ())


class Prefix(CcsTerm):
    __slots__ = ("action", "continuation")

    def __new__(cls, action: Action, continuation: CcsTerm):
        return _cons(cls, (cls, action, id(continuation)), (action, continuation))


class Choice(CcsTerm):
    __slots__ = ("left", "right")

    def __new__(cls, left: CcsTerm, right: CcsTerm):
        return _cons(cls, (cls, id(left), id(right)), (left, right))


class Parallel(CcsTerm):
    __slots__ = ("left", "right")

    def __new__(cls, left: CcsTerm, right: CcsTerm):
        return _cons(cls, (cls, id(left), id(right)), (left, right))


class Restrict(CcsTerm):
    __slots__ = ("body", "names")

    def __new__(cls, body: CcsTerm, names: frozenset[str]):
        names = frozenset(names)
        return _cons(cls, (cls, id(body), names), (body, names))


class Ident(CcsTerm):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        return _cons(cls, (cls, name), (name,))


NIL = Nil()

# Printing precedence: choice < parallel < restriction < prefix/atoms.
_PREC = {Choice: 0, Parallel: 1, Restrict: 2, Prefix: 3, Nil: 4, Ident: 4}


def _act_str(action: Action) -> str:
    if action.is_tau:
        return "tau"
    if action.name.endswith(_CO_SUFFIX):
        return "'" + action.name.removesuffix(_CO_SUFFIX)
    return action.name


def _render(term: CcsTerm) -> str:
    """The text of ``term``, memoised on ``term`` alone.

    A walk over an explicit stack of fragments and (subterm, context
    precedence) pairs, joined once at the end.  A subterm whose text is
    already memoised is copied in whole instead of walked.  Only the terms
    asked for keep their text: memoising every subterm of a term n deep
    would hold O(n^2) characters.
    """
    parts: list[str] = []
    stack: list = [(term, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
            continue
        t, context = item
        kind = type(t)
        if _PREC[kind] < context:
            stack += [")", (t, 0)]
            parts.append("(")
        elif t._text is not None:
            parts.append(t._text)
        elif kind is Nil:
            parts.append("0")
        elif kind is Ident:
            parts.append(t.name)
        elif kind is Prefix:
            stack.append((t.continuation, 3))
            parts.append(_act_str(t.action) + ".")
        elif kind is Restrict:
            stack += [f" \\ {{{', '.join(sorted(t.names))}}}", (t.body, 3)]
        elif kind is Parallel:
            stack += [(t.right, 2), " | ", (t.left, 1)]
        else:
            stack += [(t.right, 1), " + ", (t.left, 0)]
    text = "".join(parts)
    object.__setattr__(term, "_text", text)
    return text


class CcsProgram(Record):
    """A set of named process definitions with all identifiers resolved."""

    _fields = ("definitions",)

    def __init__(self, definitions: dict[str, CcsTerm]):
        self._set(definitions)


# -- parsing ---------------------------------------------------------------

# One match per token: the blanks and comments before it, then the token,
# an unexpected character, or the end of the input.
_TOKEN_RE = re.compile(
    r"(?:\s+|#[^\n]*)*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<zero>0)"
    r"|(?P<sym>[=.;+|\\{},()'])|(?P<eof>\Z)|(?P<bad>.))",
    re.DOTALL,
)

_RESERVED = {"tau"}

# A token is (kind, text, offset): its kind ("name", "zero", "sym" or
# "eof"), its text and where it starts in the source.  Only symbols have
# the texts of symbols, so comparing the text alone tells a symbol.
_Token = tuple[str, str, int]


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {text[start]!r}", *_line_column(text, start))
        tokens.append((kind, m.group(kind), start))
    return tokens  # the last match is the end of the input


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0  # never past the final "eof" token
        self.ident_refs: list[_Token] = []
        self.actions: dict[str, Action] = {"tau": TAU}  # one Action per name

    def action(self, name: str) -> Action:
        action = self.actions.get(name)
        if action is None:
            action = self.actions[name] = Action(name)
        return action

    def error(self, message: str, tok: _Token) -> ParseError:
        return ParseError(message, *_line_column(self.text, tok[2]))

    def fail(self, message: str) -> ParseError:
        return self.error(message, self.tokens[self.pos])

    def expect(self, text: str) -> None:
        tok = self.tokens[self.pos]
        if tok[1] != text:
            raise self.error(f"expected {text!r} but found {tok[1] or 'end of input'!r}", tok)
        self.pos += 1

    def at_sym(self, text: str) -> bool:
        return self.tokens[self.pos][1] == text

    # Program ::= Def*
    def parse_program(self) -> CcsProgram:
        definitions: dict[str, CcsTerm] = {}
        while self.tokens[self.pos][0] != "eof":
            name_tok = kind, name, _ = self.tokens[self.pos]
            if kind != "name":
                raise self.fail("expected a definition name")
            if name in _RESERVED:
                raise self.fail(f"{name!r} is reserved and cannot be defined")
            if name in definitions:
                raise self.error(f"duplicate definition of {name!r}", name_tok)
            self.pos += 1
            self.expect("=")
            term = self.parse_proc()
            self.expect(";")
            definitions[name] = term
        for ref in self.ident_refs:
            if ref[1] not in definitions:
                raise self.error(f"unresolved identifier {ref[1]!r}", ref)
        return CcsProgram(definitions)

    def parse_proc(self) -> CcsTerm:
        """One ``Proc``, left to right without recursion.

        Each open parenthesis pushes the enclosing level's state: its choice
        so far, its parallel chain so far and the prefixes waiting for the
        operand the parenthesis opens.
        """
        levels: list[tuple] = []
        choice = parallel = None
        while True:
            prefixes = self.parse_prefixes()
            if self.at_sym("("):
                self.pos += 1
                levels.append((choice, parallel, prefixes))
                choice = parallel = None
                continue
            term = self.parse_atom()
            # The operand is complete: fold it into its level, and close
            # every parenthesis that ends right after it.
            while True:
                for action in reversed(prefixes):
                    term = Prefix(action, term)
                term = self.parse_restrictions(term)
                parallel = term if parallel is None else Parallel(parallel, term)
                if self.at_sym("|"):
                    break
                choice = parallel if choice is None else Choice(choice, parallel)
                parallel = None
                if self.at_sym("+") or not levels:
                    break
                self.expect(")")
                term = choice
                choice, parallel, prefixes = levels.pop()
            if not (self.at_sym("|") or self.at_sym("+")):
                return choice
            self.pos += 1

    def parse_prefixes(self) -> list[Action]:
        """The actions of a run of prefixes ``a.``, ``'a.`` and ``tau.``."""
        prefixes = []
        tokens = self.tokens
        while True:
            kind, text, _ = tokens[self.pos]
            if kind == "name" and tokens[self.pos + 1][1] == ".":
                self.pos += 2
                prefixes.append(self.action(text))
            elif text == "'":
                self.pos += 1
                name = self.parse_plain_name()
                self.expect(".")
                prefixes.append(self.action(co_name(name)))
            elif text == "tau":
                raise self.fail("'tau' must prefix a process, as in tau.P")
            else:
                return prefixes

    def parse_restrictions(self, term: CcsTerm) -> CcsTerm:
        while self.at_sym("\\"):
            self.pos += 1
            self.expect("{")
            names = [self.parse_plain_name()]
            while self.at_sym(","):
                self.pos += 1
                names.append(self.parse_plain_name())
            self.expect("}")
            term = Restrict(term, frozenset(names))
        return term

    def parse_plain_name(self) -> str:
        kind, text, _ = self.tokens[self.pos]
        if kind != "name" or text in _RESERVED:
            raise self.fail("expected an action name")
        self.pos += 1
        return text

    def parse_atom(self) -> CcsTerm:
        """``0`` or an identifier; parentheses are handled by :meth:`parse_proc`."""
        tok = kind, text, _ = self.tokens[self.pos]
        if kind == "zero":
            self.pos += 1
            return NIL
        if kind == "name":
            self.pos += 1
            self.ident_refs.append(tok)
            return Ident(text)
        raise self.fail(f"expected a process but found {text or 'end of input'!r}")


def parse_ccs(text: str) -> CcsProgram:
    """Parse a program in the CCS surface syntax described in the module docstring."""
    return _Parser(text).parse_program()


# -- expansion ---------------------------------------------------------------


# A step's target is a term, or a parallel successor described lazily as
# [left, right, term]: its operands, each a target, and the term once built.
_Target = CcsTerm | list
_Steps = list[tuple[Action, _Target]]


def _term(target: _Target) -> CcsTerm:
    """The term of a step's target.  A description is built once, post-order
    over an explicit stack, and keeps its term, as do the descriptions
    inside it."""
    if type(target) is not list:
        return target
    stack = [target]
    while stack:
        node = stack[-1]
        if node[2] is not None:
            stack.pop()
            continue
        left, right = node[0], node[1]
        if type(left) is list:
            if left[2] is None:
                stack.append(left)
                continue
            left = left[2]
        if type(right) is list:
            if right[2] is None:
                stack.append(right)
                continue
            right = right[2]
        node[2] = Parallel(left, right)
        stack.pop()
    return target[2]


def _guarded(term: CcsTerm) -> bool:
    """True iff every identifier in ``term`` occurs under a prefix, so that
    deriving its steps unfolds none."""
    stack = [term]
    while stack:
        t = stack.pop()
        kind = type(t)
        if kind is Ident:
            return False
        if kind is Restrict:
            stack.append(t.body)
        elif kind is Choice or kind is Parallel:
            stack += (t.left, t.right)
    return True


def _steps(
    term: CcsTerm,
    defs: dict[str, CcsTerm],
    guarded: frozenset[str],
    memo: dict[CcsTerm, _Steps],
    unchanged: list[CcsTerm],
) -> _Steps:
    """Outgoing transitions of a term, in canonical derivation order.

    An identifier re-entered during its own unfolding contributes nothing:
    every derivable transition has a finite derivation, so this computes the
    least fixed point without looping on unguarded recursion.

    A post-order walk over an explicit stack: ``todo`` holds subterms to
    derive, each with the identifiers being unfolded around it, and the
    operators waiting for their operands' steps, which ``done`` holds.  A
    maximal tree of choices is one operator over all its alternatives, so
    an n-way choice concatenates its operands' steps once.

    ``memo`` maps terms to their steps under ``defs``, so it serves one
    program: :func:`expand_ccs_roots` keeps one per call, while the cons
    table outlives every call and an identifier's steps depend on the
    definitions.  It is used and filled for the terms derived outside
    identifier unfoldings, where the steps depend on the term alone, while
    inside one they depend on which identifiers are cut.  The definitions
    named in ``guarded`` have every identifier under a prefix, so deriving
    them unfolds nothing: they are derived outside their unfolding, and
    their subterms enter the memo too.  A term met again
    is looked up instead of derived.  The lists in ``memo`` are shared and
    never changed; only the descriptions in them fill in their terms.

    A parallel step's target is described lazily, by its operands (see
    :func:`_term`), and its term is built only when a restriction keeps the
    step or the step becomes a state, so an interleaving that a restriction
    blocks costs no term.  A description is built once however many steps
    and states share it, so a successor that changed one component rebuilds
    only the nodes above that component.  Restriction successors are built
    at once: a restricted successor is met again by every state that shares
    its restriction, which would otherwise build it again each time.

    Each operand that a parallel step leaves unchanged is appended to
    ``unchanged``, to be printed before the states when their names are
    first asked for: it then keeps its text, so the names of the successor
    states copy it instead of walking it again.  Only these operands, not
    every subterm, keep their text.
    """
    if type(term) is Prefix:  # most states of a prefix chain: no stacks to set up
        return [(term.action, term.continuation)]
    done: list[_Steps] = []
    # (number of operand results to combine, or 0 to derive; term; unfolding)
    todo: list[tuple[int, CcsTerm, frozenset[str]]] = [(0, term, frozenset())]
    while todo:
        arity, t, unfolding = todo.pop()
        kind = type(t)
        if arity:
            if kind is Parallel:
                right_steps = done.pop()
                left_steps = done.pop()
                left, right = t.left, t.right
                out = [(a, [l2, right, None]) for a, l2 in left_steps]
                out += [(a, [left, r2, None]) for a, r2 in right_steps]
                for a, l2 in left_steps:
                    if a.is_visible:
                        partner = complement(a)
                        for b, r2 in right_steps:
                            if b == partner:
                                out.append((TAU, [l2, r2, None]))
                if left_steps:
                    unchanged.append(right)
                if right_steps:
                    unchanged.append(left)
            elif kind is Restrict:
                out = [
                    (a, Restrict(_term(k), t.names))
                    for a, k in done.pop()
                    if a.is_tau or base_name(a) not in t.names
                ]
            elif kind is Choice:
                out = [step for steps in done[-arity:] for step in steps]
                del done[-arity:]
            else:  # Ident: its definition's steps
                out = done.pop()
            if not unfolding:
                memo[t] = out
            done.append(out)
            continue
        if not unfolding:
            steps = memo.get(t)
            if steps is not None:
                done.append(steps)
                continue
        if kind is Prefix:
            done.append([(t.action, t.continuation)])
        elif kind is Nil:
            done.append([])
        elif kind is Ident:
            if t.name in unfolding:
                done.append([])
            else:
                inner = frozenset() if t.name in guarded else unfolding | {t.name}
                todo += [(1, t, unfolding), (0, defs[t.name], inner)]
        elif kind is Restrict:
            todo += [(1, t, unfolding), (0, t.body, unfolding)]
        elif kind is Parallel:  # the left operand is derived first
            todo += [(2, t, unfolding), (0, t.right, unfolding), (0, t.left, unfolding)]
        else:  # Choice: its alternatives, left to right
            alternatives = []
            pending = [t]
            while pending:
                c = pending.pop()
                if type(c) is Choice:
                    pending += [c.right, c.left]
                else:
                    alternatives.append((0, c, unfolding))
            todo.append((len(alternatives), t, unfolding))
            todo += reversed(alternatives)
    return done[0]


def expand_ccs_roots(
    program: CcsProgram, roots: list[str], max_states: int = DEFAULT_MAX_STATES
) -> tuple[Lts, list[int]]:
    """Expand several definitions into one shared LTS, one initial state per root.

    Structurally identical reachable terms are shared between the roots, so
    the result is suitable for comparing two processes of one program.
    States are numbered in breadth-first order.  Their names, the terms,
    are printed when first asked for (see the module docstring).
    """
    for root in roots:
        if root not in program.definitions:
            raise KeyError(f"no definition named {root!r}")

    index: dict[CcsTerm, int] = {}
    states: list[CcsTerm] = []

    def intern(term: CcsTerm) -> int:
        idx = index.get(term)
        if idx is None:
            if len(states) >= max_states:
                raise StateBudgetError(max_states)
            idx = index[term] = len(states)
            states.append(term)
        return idx

    initials = [intern(Ident(root)) for root in roots]
    edges = []
    defs = program.definitions
    guarded = frozenset(name for name, body in defs.items() if _guarded(body))
    memo: dict[CcsTerm, _Steps] = {}
    unchanged: list[CcsTerm] = []
    src = 0
    while src < len(states):
        # a step derived twice is one transition, which Lts keeps once
        steps = _steps(states[src], defs, guarded, memo, unchanged)
        edges += [(src, a, intern(_term(k))) for a, k in steps]
        src += 1

    def name(idx: int) -> str:
        term = states[idx]
        if term._text is None and type(term) is not Ident:
            # Print the states last-found first, so that a state whose
            # successor is its own subterm (a prefix chain) copies that
            # successor's text.
            for t in unchanged:
                str(t)
            unchanged.clear()
            for t in reversed(states):
                str(t)
        return str(term)

    return Lts(len(states), edges, StateNames(len(states), name)), initials


def expand_ccs(
    program: CcsProgram, root: str, max_states: int = DEFAULT_MAX_STATES
) -> tuple[Lts, int]:
    """Expand one definition into its reachable LTS; returns the initial state."""
    lts, initials = expand_ccs_roots(program, [root], max_states)
    return lts, initials[0]
