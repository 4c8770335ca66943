"""A Hennessy-Milner logic fragment interleaving internal behavior.

Formulas alternate points of possible internal behavior with observations
and negated disjunctions:

* ``Truth`` holds everywhere,
* ``DelayObs(a, body)`` holds where some delay-``a`` successor satisfies
  ``body`` (read: after internal steps, observe ``a``, then ``body``),
* ``DelayNor(branches)`` holds where some internal-closure successor refutes
  every branch (read: after internal steps, none of the branches).

An empty ``DelayNor`` negates the empty disjunction and therefore holds at
every state.  This fragment is exactly expressive enough to certify failed
contrasimulation checks.
"""

from .lts import Action, Lts
from .record import Record


class HmlFormula(Record):
    """A formula.  Extracted formulas nest thousands of levels deep, so
    equality and ``repr`` walk explicit stacks, and the two operators keep
    the hash of their field tuple, computed at construction from their
    operands' kept hashes."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, HmlFormula):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            x, y = stack.pop()
            if x is y:
                continue
            if x.__class__ is not y.__class__ or hash(x) != hash(y):
                return False
            if x.__class__ is DelayObs:
                if x.action != y.action:
                    return False
                stack.append((x.body, y.body))
            elif x.__class__ is DelayNor:
                if len(x.branches) != len(y.branches):
                    return False
                stack += zip(x.branches, y.branches)
            elif x._values(x) != y._values(y):
                return False
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list[HmlFormula | str] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
            elif isinstance(item, DelayObs):
                out.append(f"DelayObs(action={item.action!r}, body=")
                stack += (")", item.body)
            elif isinstance(item, DelayNor):
                out.append("DelayNor(branches=(")
                stack.append(",))" if len(item.branches) == 1 else "))")
                for i, branch in enumerate(reversed(item.branches)):
                    if i:
                        stack.append(", ")
                    stack.append(branch)
            else:
                out.append(Record.__repr__(item))
        return "".join(out)


class Truth(HmlFormula):
    __slots__ = ()
    _hash = hash(())  # of its empty field tuple


class DelayObs(HmlFormula):
    __slots__ = ("action", "body", "_hash")
    _fields = ("action", "body")

    def __init__(self, action: Action, body: HmlFormula):
        if action.is_tau:
            raise ValueError("observations are of visible actions")
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_hash", hash((action, body)))


class DelayNor(HmlFormula):
    __slots__ = ("branches", "_hash")
    _fields = ("branches",)

    def __init__(self, branches: tuple[HmlFormula, ...]):
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "_hash", hash((branches,)))


TRUTH = Truth()


def hml_satisfies(lts: Lts, state: int, formula: HmlFormula) -> bool:
    """Decide whether ``state`` satisfies ``formula``.

    Subformulas may be shared between branches; results are memoized per
    (state, subformula) pair.  Each pending pair is a generator on an
    explicit stack, so formula depth is not bounded by the recursion limit;
    the disjunctions still stop at their first deciding branch.
    """

    def evaluate(s: int, phi: HmlFormula):
        """Yield the (state, subformula) pairs ``phi`` at ``s`` depends on,
        receive each one's truth value, and return the result."""
        if isinstance(phi, Truth):
            return True
        if isinstance(phi, DelayObs):
            for s2 in lts.delay_successors((s,), phi.action):
                if (yield s2, phi.body):
                    return True
            return False
        if isinstance(phi, DelayNor):
            for s2 in lts.internal_closure((s,)):
                for branch in phi.branches:
                    if (yield s2, branch):
                        break
                else:
                    return True
            return False
        raise TypeError(f"unknown formula {phi!r}")

    lts._check_state(state)
    memo: dict[tuple[int, int], bool] = {}
    stack = [((state, id(formula)), evaluate(state, formula))]
    value = None
    while True:
        key, pending = stack[-1]
        try:
            s2, phi = pending.send(value)
        except StopIteration as done:
            value = memo[key] = done.value
            stack.pop()
            if not stack:
                return value
            continue
        value = memo.get((s2, id(phi)))
        if value is None:
            stack.append(((s2, id(phi)), evaluate(s2, phi)))


def format_formula(formula: HmlFormula) -> str:
    """Serialize a formula: ``T``, ``<e><a>...`` and ``<e>~(...|...)``.

    Works from an explicit stack of formulas and literal text, so formula
    depth is not bounded by the recursion limit.
    """
    out: list[str] = []
    stack: list[HmlFormula | str] = [formula]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Truth):
            out.append("T")
        elif isinstance(item, DelayObs):
            out.append(f"<e><{item.action}>")
            stack.append(item.body)
        elif isinstance(item, DelayNor):
            out.append("<e>~(")
            stack.append(")")
            for i, branch in enumerate(reversed(item.branches)):
                if i:
                    stack.append("|")
                stack.append(branch)
        else:
            raise TypeError(f"unknown formula {item!r}")
    return "".join(out)
