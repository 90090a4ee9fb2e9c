"""Plain value classes over ``__slots__``.

A subclass lists its fields, in order, as ``__slots__`` and writes its
own ``__init__``.  ``Record`` makes two instances equal when they are of
the same class and their fields are equal, and prints an instance as
``Name(field=value, ...)``.  ``FrozenRecord`` also hashes the fields and
refuses assignment, so its instances can key dicts and caches; its
``__init__`` sets fields with ``object.__setattr__``.

The package uses these instead of the standard library's data classes,
whose module loads ``inspect``, and with it ``ast``, ``dis`` and
``tokenize``, into every command-line process.
"""


class Record:
    """Equality and repr over the fields named in ``__slots__``."""

    __slots__ = ()
    __hash__ = None

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable ``Record``: hashable, and its fields cannot be assigned."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which may assign
        return type(self), self._values()
