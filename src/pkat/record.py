"""Immutable records.  A record's fields are its ``__slots__``, in
constructor order; ``_defaults`` fills the ones left out, and equality,
hashing and ``repr`` read every field.  Unlike a dataclass, defining one
runs no generated code at import.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._key = property(attrgetter(*cls.__slots__)) if cls.__slots__ else ()
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls.__match_args__ = cls.__slots__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._setters):
            names = self.__slots__
            given = dict(zip(names, args))
            values = {**self._defaults, **given, **kwargs}
            if len(args) > len(names) or given.keys() & kwargs.keys() or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
            args = [values[name] for name in names]
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def replace(self, **changes):
        """A copy with the named fields changed."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        return type(self)(**{**fields, **changes})
