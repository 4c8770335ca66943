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
hashing are by identity and cost O(1) at any depth.  Expansion derives each
reachable term's steps once, so it is linear in the reachable terms and
their steps, plus the length of the state names, which are the full terms.
A term keeps its text once printed, and printing copies that text whole
wherever the term occurs inside another, so the names of a prefix chain
cost one concatenation each.  Parsing, step derivation and printing are
loops over explicit stacks, so terms of any depth are accepted.

Expansion states are reachable terms compared structurally (no structural
congruence, no merging of distinct deadlocked terms).  Parallel components
interleave, and an action synchronizes with its co-action into an internal
step; restriction blocks both polarities of the restricted names.  At the
LTS level a surviving co-action ``'a`` is rendered as the visible name
``a!``, since action names cannot contain the quote character.
"""

import re
import weakref
from dataclasses import dataclass
from functools import lru_cache, partial

from .errors import ParseError, StateBudgetError
from .lts import Action, Lts, TAU

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


@dataclass(frozen=True)
class CcsProgram:
    """A set of named process definitions with all identifiers resolved."""

    definitions: dict[str, CcsTerm]


# -- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<comment>#[^\n]*)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<zero>0)|(?P<sym>[=.;+|\\{},()'])"
)

_RESERVED = {"tau"}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "name", "zero", "sym", "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.ident_refs: list[_Token] = []

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == text:
            return self.advance()
        raise ParseError(
            f"expected {text!r} but found {tok.text or 'end of input'!r}",
            tok.line,
            tok.column,
        )

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    # Program ::= Def*
    def parse_program(self) -> CcsProgram:
        definitions: dict[str, CcsTerm] = {}
        while self.peek().kind != "eof":
            name_tok = self.peek()
            if name_tok.kind != "name":
                raise self.fail("expected a definition name")
            if name_tok.text in _RESERVED:
                raise self.fail(f"{name_tok.text!r} is reserved and cannot be defined")
            if name_tok.text in definitions:
                raise ParseError(
                    f"duplicate definition of {name_tok.text!r}",
                    name_tok.line,
                    name_tok.column,
                )
            self.advance()
            self.expect("=")
            term = self.parse_proc()
            self.expect(";")
            definitions[name_tok.text] = term
        for ref in self.ident_refs:
            if ref.text not in definitions:
                raise ParseError(
                    f"unresolved identifier {ref.text!r}", ref.line, ref.column
                )
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
                self.advance()
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
            self.advance()

    def parse_prefixes(self) -> list[Action]:
        """The actions of a run of prefixes ``a.``, ``'a.`` and ``tau.``."""
        prefixes = []
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text == "'":
                self.advance()
                name = self.parse_plain_name()
                self.expect(".")
                prefixes.append(Action(co_name(name)))
            elif tok.kind == "name" and tok.text == "tau":
                if not (self.peek(1).kind == "sym" and self.peek(1).text == "."):
                    raise self.fail("'tau' must prefix a process, as in tau.P")
                self.advance()
                self.advance()
                prefixes.append(TAU)
            elif tok.kind == "name" and self.peek(1).kind == "sym" and self.peek(1).text == ".":
                self.advance()
                self.advance()
                prefixes.append(Action(tok.text))
            else:
                return prefixes

    def parse_restrictions(self, term: CcsTerm) -> CcsTerm:
        while self.at_sym("\\"):
            self.advance()
            self.expect("{")
            names = [self.parse_plain_name()]
            while self.at_sym(","):
                self.advance()
                names.append(self.parse_plain_name())
            self.expect("}")
            term = Restrict(term, frozenset(names))
        return term

    def parse_plain_name(self) -> str:
        tok = self.peek()
        if tok.kind != "name" or tok.text in _RESERVED:
            raise self.fail("expected an action name")
        self.advance()
        return tok.text

    def parse_atom(self) -> CcsTerm:
        """``0`` or an identifier; parentheses are handled by :meth:`parse_proc`."""
        tok = self.peek()
        if tok.kind == "zero":
            self.advance()
            return NIL
        if tok.kind == "name":
            self.advance()
            self.ident_refs.append(tok)
            return Ident(tok.text)
        raise self.fail(f"expected a process but found {tok.text or 'end of input'!r}")


def parse_ccs(text: str) -> CcsProgram:
    """Parse a program in the CCS surface syntax described in the module docstring."""
    return _Parser(_tokenize(text)).parse_program()


# -- expansion ---------------------------------------------------------------


def _steps(term: CcsTerm, defs: dict[str, CcsTerm]) -> list[tuple[Action, CcsTerm]]:
    """Outgoing transitions of a term, in canonical derivation order.

    An identifier re-entered during its own unfolding contributes nothing:
    every derivable transition has a finite derivation, so this computes the
    least fixed point without looping on unguarded recursion.

    A post-order walk over an explicit stack: ``todo`` holds subterms to
    derive, each with the identifiers being unfolded around it, and the
    operators waiting for their operands' steps, which ``done`` holds.
    """
    done: list[list[tuple[Action, CcsTerm]]] = []
    todo: list[tuple[bool, CcsTerm, frozenset[str]]] = [(False, term, frozenset())]
    while todo:
        combine, t, unfolding = todo.pop()
        kind = type(t)
        if combine:
            if kind is Restrict:
                done.append([
                    (a, Restrict(k, t.names))
                    for a, k in done.pop()
                    if a.is_tau or base_name(a) not in t.names
                ])
                continue
            right_steps = done.pop()
            left_steps = done[-1]
            if kind is Choice:
                left_steps.extend(right_steps)  # each list is built for this call
                continue
            out = [(a, Parallel(l2, t.right)) for a, l2 in left_steps]
            out += [(a, Parallel(t.left, r2)) for a, r2 in right_steps]
            for a, l2 in left_steps:
                if a.is_visible:
                    partner = complement(a)
                    for b, r2 in right_steps:
                        if b == partner:
                            out.append((TAU, Parallel(l2, r2)))
            done[-1] = out
        elif kind is Prefix:
            done.append([(t.action, t.continuation)])
        elif kind is Nil:
            done.append([])
        elif kind is Ident:
            if t.name in unfolding:
                done.append([])
            else:
                todo.append((False, defs[t.name], unfolding | {t.name}))
        elif kind is Restrict:
            todo += [(True, t, unfolding), (False, t.body, unfolding)]
        else:  # Choice and Parallel: the left operand is derived first
            todo += [(True, t, unfolding), (False, t.right, unfolding),
                     (False, t.left, unfolding)]
    return done[0]


def expand_ccs_roots(
    program: CcsProgram, roots: list[str], max_states: int = DEFAULT_MAX_STATES
) -> tuple[Lts, list[int]]:
    """Expand several definitions into one shared LTS, one initial state per root.

    Structurally identical reachable terms are shared between the roots, so
    the result is suitable for comparing two processes of one program.
    States are numbered in breadth-first order.
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
    src = 0
    while src < len(states):
        emitted = set()
        for step in _steps(states[src], program.definitions):
            if step not in emitted:
                emitted.add(step)
                edges.append((src, step[0], intern(step[1])))
        src += 1

    # Render the states last-found first, so that a state whose successor
    # is its own subterm (a prefix chain) copies that successor's text.
    for term in reversed(states):
        str(term)
    names = {idx: str(term) for idx, term in enumerate(states)}
    return Lts(len(states), edges, names), initials


def expand_ccs(
    program: CcsProgram, root: str, max_states: int = DEFAULT_MAX_STATES
) -> tuple[Lts, int]:
    """Expand one definition into its reachable LTS; returns the initial state."""
    lts, initials = expand_ccs_roots(program, [root], max_states)
    return lts, initials[0]
