"""The read-only base of the package's records.

A subclass names its fields, in order, as both ``__slots__`` and
``_fields``.  It then behaves like a frozen dataclass: a constructor over
those fields, equality and hashing by the field tuple within one class, the
``Name(field=value, ...)`` repr and pickling by value.  Classes that define
their own equality take only the read-only ``__setattr__`` and
``__delattr__``.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() got an unknown field {field!r}")
            if field in values:
                raise TypeError(f"{name}() got a repeated field {field!r}")
            values[field] = value
        for field in fields:
            if field not in values:
                raise TypeError(f"{name}() is missing the field {field!r}")
            object.__setattr__(self, field, values[field])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({pairs})"

    def __reduce__(self):
        return type(self), self._values()
