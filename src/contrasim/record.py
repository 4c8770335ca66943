"""The immutable-record base of the package's value classes.

A record names its fields in ``_fields`` and sets each one once, in its own
``__init__``, through ``_set`` or ``object.__setattr__``; afterwards
assigning to or deleting an attribute raises ``AttributeError``.  Two
records are equal, and hash alike, only when they are of the same class
with equal fields, so ``AttackerPos(1, Q)`` and ``SwapPos(1, Q)`` are two
dict keys where ``NamedTuple`` would merge them.  Copies and pickles
rebuild through the constructor, which takes the fields positionally in
``_fields`` order.

``dataclasses`` gives the same, but importing it and decorating each class
costs every CLI call more time than most queries take.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        """Set the fields from ``__init__``, in ``_fields`` order.  The
        classes built in hot loops set theirs directly instead."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._values()
