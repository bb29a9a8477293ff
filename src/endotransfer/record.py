"""The base classes of the package's records.

A record declares its fields, in order, as slots in ``_fields``, and
``Record.__init__`` binds them, positionally or by keyword, with the
``TypeError`` a dataclass's constructor raises for a missing, unexpected or
repeated argument.  A record whose ``__init__`` checks, reduces or caches
does that work and binds its fields through ``Record.__init__``.  Equality,
hash and repr are those that ``@dataclass(frozen=True)`` gives: equal only
to a record of the same class with equal fields, the hash of the field
tuple, and ``Name(field=value, ...)``.  Caches an ``__init__`` sets besides
the fields take no part.  No code is generated when a record class is
defined: ``__init_subclass__`` only looks up the setter of each field's
slot, so importing the package costs no more than compiling its modules.
"""

from __future__ import annotations

# How a frozen record's __init__ sets a cache besides its fields.
set_attribute = object.__setattr__


class Record:
    """A frozen record: assignment and deletion of attributes are refused,
    so a record can serve as a dict key."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    # The setter of each field's slot, in field order.
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = [getattr(cls, name, None) for name in cls._fields]
        # A record whose fields live in its __dict__ binds them itself.
        if all(hasattr(slot, "__set__") for slot in slots):
            cls._setters = tuple(slot.__set__ for slot in slots)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        # Indexing args costs less here than unpacking pairs from zip().
        i = 0
        for setter in setters:
            setter(self, args[i])
            i += 1

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call with these arguments, in field order,
        or the TypeError of a dataclass's __init__ called with them."""
        fields = cls._fields
        rest = fields[len(args):]
        if len(args) + len(kwargs) == len(fields):
            try:
                return args + tuple([kwargs[name] for name in rest])
            except KeyError:
                pass
        call = f"{cls.__qualname__}.__init__()"
        if len(args) > len(fields):
            raise TypeError(f"{call} takes {len(fields) + 1} positional arguments but {len(args) + 1} were given")
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
            if name not in rest:
                raise TypeError(f"{call} got multiple values for argument {name!r}")
        missing = ", ".join(repr(name) for name in rest if name not in kwargs)
        raise TypeError(f"{call} missing required arguments: {missing}")

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
