"""The base classes of the package's records.

A record declares its fields, in order, in ``_fields`` and sets them in a
hand-written ``__init__``.  Equality, hash and repr are those that
``@dataclass(frozen=True)`` gives: equal only to a record of the same class
with equal fields, the hash of the field tuple, and ``Name(field=value,
...)``.  Caches an ``__init__`` sets besides the fields take no part.  No
code is generated when a record class is defined, so importing the package
costs no more than compiling its modules.
"""

from __future__ import annotations

# How a frozen record's __init__ sets each field and cache: one call per
# attribute, as the __init__ of a frozen dataclass does.
set_attribute = object.__setattr__


class Record:
    """A frozen record: assignment and deletion of attributes are refused,
    so a record can serve as a dict key."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        # A tuple's elements compare equal by identity first, so a record
        # always equals itself, as with the dataclass's tuple comparison.
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {self.__class__.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {self.__class__.__name__}")


class MutableRecord(Record):
    """A record whose attributes may be assigned, and which is therefore
    unhashable, as a plain @dataclass is."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
