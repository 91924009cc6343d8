"""The shared base of cfcalc's immutable value classes."""

from __future__ import annotations

from functools import wraps


class Frozen:
    """A value with the fields named in _fields, set once when it is made.

    __init__ takes the fields in _fields order, by position or by name,
    and takes any left out from _defaults; an unknown, doubled or missing
    field raises TypeError.  A subclass that checks or transforms its
    input defines its own __init__ and stores its fields through this one.
    Afterwards any assignment or deletion raises AttributeError.
    Instances of the same class are equal when their fields are, hash over
    their fields, and repr as ``Class(field=value, ...)``; comparing with
    another type returns NotImplemented.  A subclass that defines __eq__
    also defines __hash__, since Python drops an inherited __hash__
    otherwise.  The one sanctioned write after __init__ is cached's, which
    keeps a derived value in the instance dict.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}  # read only

    def __init__(self, *args, **kwargs) -> None:
        fields, cls = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{cls} takes {len(fields)} fields, but {len(args)} were given")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            try:
                value = kwargs.pop(name) if name in kwargs else self._defaults[name]
            except KeyError:
                raise TypeError(f"{cls} is missing field {name!r}") from None
            object.__setattr__(self, name, value)
        for name in kwargs:
            problem = "got field {!r} twice" if name in fields else "has no field {!r}"
            raise TypeError(f"{cls} " + problem.format(name))

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def cached(method):
    """A zero-argument method run once per instance: the first call keeps
    its result in the instance dict under "_" + its name, and every call
    returns that object.  Stack it under @property for a cached property.
    """
    key = "_" + method.__name__

    @wraps(method)
    def get(self):
        values = self.__dict__
        if key not in values:
            values[key] = method(self)
        return values[key]

    return get
