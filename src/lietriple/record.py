"""Immutable values: ``Frozen``, the base of every value type, and ``Record``.

``Frozen`` states immutability, equality and hashing once.  No attribute
can be set or deleted (a constructor fills its slots through
``object.__setattr__``), and values of one class are equal, and hash, by
their ``_key()``, which by default is the value's identity.

``Record`` is the ``Frozen`` class of named fields behind the result
types.  A subclass lists its fields as annotations, in order, after
those of the record it extends; a class-level value is that field's
default.  The annotations are read as names only, never evaluated.  A
record takes its fields by position or keyword, runs ``__post_init__``
once all are set and is immutable afterwards.  Records of the same class
are equal when their fields are, hash by their fields and print as
``Name(field=value, ...)``.
"""


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__qualname__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__qualname__} is immutable")

    def _key(self):
        """What equality and hashing read; by default the value's identity."""
        return id(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Record(Frozen):
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__annotations__
        cls._fields = cls.__match_args__ = tuple(dict.fromkeys((*cls._fields, *own)))
        cls._defaults = {**cls._defaults, **{name: cls.__dict__[name] for name in own if name in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__qualname__}() takes {len(fields)} fields but {len(args)} were given")
        given = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__qualname__}() got an unexpected field {name!r}")
            if name in given:
                raise TypeError(f"{cls.__qualname__}() got multiple values for field {name!r}")
            given[name] = value
        values = {**self._defaults, **given}
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing fields: {', '.join(map(repr, missing))}")
        self.__dict__.update((name, values[name]) for name in fields)
        self.__post_init__()

    def __post_init__(self):
        """Check or normalise the fields; runs once, after all are set."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
