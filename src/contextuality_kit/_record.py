"""The base of the kit's value records.

A record names its fields in ``__slots__``, in constructor order, and
fills them in its own ``__init__`` with :meth:`Record._set`.  The base
gives it value semantics: two records are equal when they are of one
class and their field tuples are equal, the hash is that of the field
tuple, the repr reads ``Name(field=value, ...)``, assignment is
refused, and copy and pickle rebuild a record through its
constructor.  Defining a record generates no code, which keeps a
short-lived ``check`` process cheap.
"""

_setattr = object.__setattr__


class Record:
    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

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
