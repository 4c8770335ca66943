"""Finite labeled transition systems and their derived step relations.

States are dense indices ``0 .. state_count-1``; display names live in an
optional side map, which may compute them on demand (:class:`StateNames`),
so a system whose names are long, such as CCS terms, names only the states
a report prints.  A transition carries an :class:`Action`, which is either
a visible action name or the internal action ``TAU``.  Sets of states are
plain ``frozenset[int]`` throughout.

The derived relations come in three flavours:

* internal steps: zero or more internal transitions,
* delay steps: internal steps followed by exactly one visible transition
  (no trailing internal behavior),
* weak steps: a delay step followed by further internal closure.

Words are tuples of visible actions; the word-successor function folds the
set-lifted delay step over the letters.
"""

import weakref
from collections import deque
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

StateSet = frozenset[int]
Word = tuple["Action", ...]

_BAD_NAME_CHARS = set(" \t\n\r\f\v'\"")


class Action:
    """A transition label: a visible action name, or internal (``name is None``).

    Actions are interned: ``Action(name)`` returns the one object for that
    name, so equality is identity and hashing is the interpreter's own.
    Copies and pickles rebuild through the constructor, so they are that
    object too.
    """

    __slots__ = ("name", "__weakref__")
    name: Optional[str]

    def __new__(cls, name: Optional[str]):
        action = _ACTIONS.get(name)
        if action is None:
            if name is not None:
                if not name:
                    raise ValueError("visible action name must be nonempty")
                if any(c in _BAD_NAME_CHARS for c in name):
                    raise ValueError(
                        f"visible action name {name!r} contains whitespace or a quote"
                    )
            action = object.__new__(cls)
            object.__setattr__(action, "name", name)
            _ACTIONS[name] = action
        return action

    def __setattr__(self, name, value):
        raise AttributeError("actions are immutable")

    def __delattr__(self, name):
        raise AttributeError("actions are immutable")

    def __reduce__(self):
        return Action, (self.name,)

    @property
    def is_tau(self) -> bool:
        return self.name is None

    @property
    def is_visible(self) -> bool:
        return self.name is not None

    def __str__(self) -> str:
        return self.name if self.name is not None else "tau"

    def __repr__(self) -> str:
        return f"Action(name={self.name!r})"


# One Action per name, held only as long as something else holds it.
_ACTIONS: "weakref.WeakValueDictionary[Optional[str], Action]" = weakref.WeakValueDictionary()
TAU = Action(None)


def act(name: str) -> Action:
    """Convenience constructor for a visible action."""
    return Action(name)


Transition = tuple[int, Action, int]


class StateNames(Mapping[int, str]):
    """The names of states ``0 .. count-1``, each computed by ``name(state)``
    when it is asked for.  ``name`` may cache, or compute several names at
    once; the mapping itself keeps nothing."""

    __slots__ = ("_count", "_name")

    def __init__(self, count: int, name: Callable[[int], str]):
        self._count = count
        self._name = name

    def __getitem__(self, state: int) -> str:
        if type(state) is not int or not 0 <= state < self._count:
            raise KeyError(state)
        return self._name(state)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._count))

    def __reduce__(self):
        # A copy or pickle holds the names themselves, not the function.
        return dict, (dict(self),)


class Lts:
    """An immutable labeled transition system over dense state indices.

    Duplicate transitions in the input are silently dropped (the transition
    relation has set semantics); ``transitions`` keeps the first of each, in
    input order.  Each transition is deduplicated in its source's own step
    sets, which become the strong steps, so a state without internal steps
    costs only its own transitions.  The internal closure of every state is
    precomputed at construction, since it is the hot operation of the set
    game's move generation: a state without internal steps is its own
    closure, and a breadth-first search over internal steps runs from each
    of the others.  All queries afterwards are pure.

    ``state_names`` is kept as given when it is a :class:`StateNames`, whose
    names are computed only when asked for; any other mapping is copied,
    and every name must belong to a state.
    """

    __slots__ = (
        "state_count",
        "transitions",
        "state_names",
        "visible_actions",
        "_strong",
        "_closure",
    )

    def __init__(
        self,
        state_count: int,
        transitions: Iterable[Transition],
        state_names: Optional[Mapping[int, str]] = None,
    ):
        if state_count < 0:
            raise ValueError("state_count must be nonnegative")
        self.state_count = state_count

        # A state's successor set by one action is frozen as it is found;
        # a second successor thaws it into a set, frozen again at the end.
        strong: list[dict[Action, frozenset[int]]] = [{} for _ in range(state_count)]
        thawed: list[tuple[dict, Action]] = []
        kept: list[Transition] = []
        for src, action, dst in transitions:
            if not (0 <= src < state_count and 0 <= dst < state_count):
                raise IndexError(
                    f"transition ({src}, {action}, {dst}) references a state "
                    f"outside 0..{state_count - 1}"
                )
            if not isinstance(action, Action):
                raise TypeError(f"transition label {action!r} is not an Action")
            row = strong[src]
            targets = row.get(action)
            if targets is None:
                row[action] = frozenset((dst,))
            elif dst in targets:
                continue
            elif type(targets) is frozenset:
                row[action] = {*targets, dst}
                thawed.append((row, action))
            else:
                targets.add(dst)
            kept.append((src, action, dst))
        for row, action in thawed:
            row[action] = frozenset(row[action])
        self.transitions: tuple[Transition, ...] = tuple(kept)

        if isinstance(state_names, StateNames):
            if len(state_names) > state_count:
                raise IndexError(f"state name for unknown state {state_count}")
            names = state_names
        else:
            names = dict(state_names) if state_names else {}
            for idx in names:
                if not (0 <= idx < state_count):
                    raise IndexError(f"state name for unknown state {idx}")
        self.state_names: Mapping[int, str] = names

        self._strong: tuple[dict[Action, frozenset[int]], ...] = tuple(strong)

        labels = set().union(*strong)
        labels.discard(TAU)
        self.visible_actions: tuple[Action, ...] = tuple(sorted(labels, key=lambda a: a.name))

        # The set-level closure later is just a union of these.
        closure: list[frozenset[int]] = []
        for start, row in enumerate(self._strong):
            if TAU not in row:
                closure.append(frozenset((start,)))
                continue
            reached = {start}
            queue = deque((start,))
            while queue:
                s = queue.popleft()
                for nxt in self._strong[s].get(TAU, ()):
                    if nxt not in reached:
                        reached.add(nxt)
                        queue.append(nxt)
            closure.append(frozenset(reached))
        self._closure: tuple[frozenset[int], ...] = tuple(closure)

    def quotient(self, classes: Sequence[int]) -> "Lts":
        """The system over a partition of the states, where ``classes[s]`` is
        state ``s``'s class, numbered as
        :func:`contrasim.relations.strong_classes` and
        :func:`contrasim.relations.weak_classes` number them.

        Classes are numbered ``0, 1, ...`` in the order of their smallest
        members, and each is named after its smallest member, through this
        system's names and only when the name is asked for.  A class takes
        every step of every member, mapped to classes, except internal steps
        to itself.  For a partition finer than weak bisimilarity, a class
        then reaches by each weak word step the classes its members reach
        (see :mod:`contrasim.relations`).  When no two states share a class
        and no state has an internal step to itself, the system itself is
        returned.
        """
        if len(classes) != self.state_count:
            raise ValueError("one class per state required")
        smallest: list[int] = []  # smallest[c]: the smallest member of class c
        for s, c in enumerate(classes):
            if c == len(smallest):
                smallest.append(s)
            elif not 0 <= c < len(smallest):
                raise ValueError("classes must be numbered by their smallest members")
        steps = [
            (classes[s], a, classes[t])
            for s, a, t in self.transitions
            if a is not TAU or classes[s] != classes[t]
        ]
        if len(smallest) == self.state_count and len(steps) == len(self.transitions):
            return self
        names = StateNames(len(smallest), lambda c: self.name_of(smallest[c]))
        return Lts(len(smallest), steps, names)

    # -- naming ----------------------------------------------------------

    def name_of(self, state: int) -> str:
        self._check_state(state)
        return self.state_names.get(state, str(state))

    def _check_state(self, state: int) -> None:
        if not (0 <= state < self.state_count):
            raise IndexError(f"state {state} outside 0..{self.state_count - 1}")

    # -- step relations ----------------------------------------------------

    def strong_successors(self, state: int, action: Action) -> StateSet:
        """States reachable from ``state`` by a single ``action`` transition."""
        self._check_state(state)
        return self._strong[state].get(action, frozenset())

    def internal_closure(self, states: StateSet | Iterable[int]) -> StateSet:
        """All states reachable from ``states`` by zero or more internal steps."""
        out: set[int] = set()
        for s in states:
            self._check_state(s)
            out |= self._closure[s]
        return frozenset(out)

    def delay_successors(self, states: StateSet | Iterable[int], action: Action) -> StateSet:
        """Set-lifted delay step: internal closure, then one strong ``action`` step.

        No trailing internal closure is applied.  ``action`` must be visible;
        the internal analogue of a delay step is :meth:`internal_closure`.
        """
        if action.is_tau:
            raise ValueError("delay step requires a visible action; use internal_closure")
        out: set[int] = set()
        for s in self.internal_closure(states):
            out |= self._strong[s].get(action, frozenset())
        return frozenset(out)

    def weak_successors(self, state: int, action: Action) -> StateSet:
        """Weak step: delay step plus trailing internal closure (closure alone for tau)."""
        self._check_state(state)
        if action.is_tau:
            return self._closure[state]
        return self.internal_closure(self.delay_successors(frozenset((state,)), action))

    def word_successors(self, word: Word, states: StateSet | Iterable[int]) -> StateSet:
        """Fold the set-lifted delay step over the letters of ``word``.

        The empty word returns ``states`` unchanged; the result is empty as
        soon as no state admits the next letter.
        """
        current = frozenset(states)
        for s in current:
            self._check_state(s)
        for letter in word:
            if letter.is_tau:
                raise ValueError("words contain visible actions only")
            current = self.delay_successors(current, letter)
        return current

    def weak_word_successors(self, state: int, word: Word) -> StateSet:
        """States reachable from ``state`` by a weak word step.

        Implemented as the internal closure of the delay-word successors; the
        equivalence of that with composing weak steps is a tested invariant.
        """
        self._check_state(state)
        return self.internal_closure(self.word_successors(word, frozenset((state,))))

    def feasible_words(self, start: int, max_len: int) -> Iterator[tuple[Word, StateSet]]:
        """Words of at most ``max_len`` letters (the empty one included) with a
        nonempty delay frontier from ``start``, each paired with that frontier.

        Depth-first, so the order is deterministic but not by length.
        """
        self._check_state(start)
        stack: list[tuple[Word, StateSet]] = [((), frozenset((start,)))]
        while stack:
            word, frontier = stack.pop()
            yield word, frontier
            if len(word) == max_len:
                continue
            for a in self.visible_actions:
                nxt = self.delay_successors(frontier, a)
                if nxt:
                    stack.append((word + (a,), nxt))

    def is_stable(self, state: int) -> bool:
        """True iff ``state`` has no outgoing internal transition."""
        self._check_state(state)
        return not self._strong[state].get(TAU)

    def __repr__(self) -> str:
        return f"Lts(states={self.state_count}, transitions={len(self.transitions)})"
