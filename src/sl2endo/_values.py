"""Repr, equality, hash and immutability of the package's value classes.

A value class names its fields, in order, in the class attribute _fields
and sets them in its own __init__.  The two bases below read _fields to
write the rest as the standard library's dataclasses would, byte for byte
in the repr, with plain methods: nothing is generated or compiled when a
class is defined.

* ``Value``: the repr Name(field=value!r, ...) and equality field by field
  with an instance of the same class.  Unhashable, like any mutable value.
* ``FrozenValue``: a Value that refuses assignment and deletion with
  AttributeError and hashes by its fields.  Its __init__ sets each field
  with ``store``; ``localfield.cached_fact`` writes the instance __dict__.

A subclass that defines its own __eq__ is unhashable (Python then sets its
__hash__ to None); one that compares by identity takes object's __eq__ and
__hash__.
"""

from __future__ import annotations

# Sets an attribute past a FrozenValue's refusal: for its own __init__ only.
store = object.__setattr__


class Value:
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None


class FrozenValue(Value):
    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
