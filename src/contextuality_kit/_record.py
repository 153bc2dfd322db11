"""The base of the kit's value records.

A record names its fields in ``__slots__``, in constructor order.  The
base constructor, ``Record(*values, **named)``, fills them by position
or by name and, like a dataclass's, raises ``TypeError`` for a missing,
extra, repeated or unknown field.  Records that check their inputs or
take defaults (``AtomMeasure``, ``Scenario``, ``LpResult`` and 13 more)
keep their own ``__init__`` and end it with ``self._set(...)``, the
base constructor under a second name.  The base gives value semantics:
two records are equal when they are of one class and their field
tuples are equal, the hash is that of the field tuple, the repr reads
``Name(field=value, ...)``, assignment is refused, and copy and pickle
rebuild a record through its constructor.  Defining a record generates
no code, which keeps a short-lived ``check`` process cheap.
"""

_setattr = object.__setattr__


class Record:
    __slots__ = ()

    def __init__(self, *values, **named) -> None:
        slots = self.__slots__
        if named or len(values) != len(slots):
            name, rest = self.__class__.__qualname__, slots[len(values):]
            if len(values) > len(slots):
                raise TypeError(f"{name}() takes {len(slots)} fields, got {len(values)}")
            for field in named:
                if field not in rest:
                    kind = "repeated" if field in slots else "unknown"
                    raise TypeError(f"{name}() got the {kind} field {field!r}")
            for field in rest:
                if field not in named:
                    raise TypeError(f"{name}() is missing the field {field!r}")
            values += tuple(named[field] for field in rest)
        for field, value in zip(slots, values):
            _setattr(self, field, value)

    _set = __init__

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
