"""Base of the package's immutable record types.

A record lists its fields in __slots__ and sets them in its own __init__
through set_field, since assignment raises AttributeError; it rejects a
field that breaks its rules with FieldError.  Equality and hash use the
fields named in _fields (all of __slots__ unless the class names fewer)
and hold only between records of the same class; repr shows the same
fields as Name(field=value, ...).  replace() returns a copy with some
fields changed, passing the constructor _fields, so the copy derives its
other slots again.

The records are plain classes rather than dataclasses: importing
dataclasses and generating its methods cost about as much as the rest of
the package's import, which every CLI command pays.
"""
from __future__ import annotations

from operator import attrgetter

set_field = object.__setattr__


class FieldError(ValueError):
    """A record constructor's rejection of one of its fields; str is
    "<field> <problem>".  field is None when the rule spans several fields,
    and str is then the problem alone."""

    def __init__(self, field: str | None, problem: str):
        self.field = field
        self.problem = problem
        super().__init__(f"{field} {problem}" if field else problem)


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the given fields changed, built and checked by the constructor."""
        fields = {name: getattr(self, name) for name in self._fields}
        fields.update(changes)
        return type(self)(**fields)

    # copy and pickle restore the slots directly, past __setattr__
    def __getstate__(self):
        return [getattr(self, name) for name in self.__slots__]

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            set_field(self, name, value)
