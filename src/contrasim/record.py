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
costs every CLI call more time than most queries take.  Each class gets one
``operator.attrgetter`` over its fields, so comparing and hashing read the
fields in C, as fast as the code ``dataclasses`` generates.
"""

from operator import attrgetter


def _getter(fields: tuple[str, ...]):
    """A function from a record to the tuple of its ``fields``."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        field = attrgetter(fields[0])
        return lambda record: (field(record),)
    return lambda record: ()


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = staticmethod(_getter(cls._fields))

    def _set(self, *values) -> None:
        """Set the fields from ``__init__``, in ``_fields`` order.  The
        classes built in hot loops set theirs directly instead."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._values(self)
