"""Base of the package's immutable record types.

A record lists its fields in __slots__ and sets them in its own __init__
through set_field, since assignment raises AttributeError; it rejects a
field that breaks its rules with FieldError, a number field's range and
finiteness through finite_number.  Equality and hash use the
fields named in _fields (all of __slots__ unless the class names fewer)
and hold only between records of the same class; repr shows the same
fields as Name(field=value, ...).  replace() returns a copy with some
fields changed, passing the constructor _fields, so the copy derives its
other slots again.  A record may instead subclass tuple as well, with
empty __slots__, its field names in _fields and properties that read
them; emulator.Span does, so that thousands can be made without running a
constructor.

The records are plain classes rather than dataclasses: importing
dataclasses and generating its methods cost about as much as the rest of
the package's import, which every CLI command pays.
"""
from __future__ import annotations

import math
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


def finite_number(field: str, value: float, positive: bool = False) -> float:
    """value, when it is finite and at least 0, or greater than 0 when
    positive is set; otherwise a FieldError of field that names the first
    rule it breaks, finiteness first (an int beyond the float range is not
    finite).  Every such rule of a rate, volume, load time, multiplier, gap
    or scale factor is stated here alone."""
    try:
        if not math.isfinite(value):
            raise FieldError(field, f"must be finite, got {value}")
    except OverflowError:  # an int beyond the float range
        raise FieldError(field, "must be finite, got an integer beyond the float range") from None
    if positive and value <= 0:
        raise FieldError(field, f"must be greater than 0, got {value}")
    if value < 0:
        raise FieldError(field, f"must be at least 0, got {value}")
    return value


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
