"""Plain immutable value classes: ``FrozenRecord``.

A ``FrozenRecord`` is the tuple of its fields: a subclass names them, in
order, as ``_fields``, builds in ``__new__`` with
``tuple.__new__(cls, (...))`` and reads each by name, through namedtuple's
item descriptor.  So the oracle's tens of thousands of points, cycles and
forms a pass are built and hashed in C: a ``ClosedPoint`` took 968 ns
through ``object.__setattr__`` and takes 410 ns, a hash 2.0 us and 90 ns,
while a field read takes 24 ns instead of a slot's 10-19 ns (best of
7 x 100 000 calls; Python 3.11.7, one core of a 2-vCPU x86 VM).
A record equals only its own class with equal fields, prints as
``Name(field=value, ...)``, is not ordered, hashes as the tuple of its
fields and refuses assignment.  The package never reads a record by
length, iteration or index.  Data classes would load ``inspect``, ``ast``,
``dis`` and ``tokenize`` into every CLI process.

The oracle's ``ClosedPoint``, ``ZeroCycle`` and ``FormClass`` are built in
bulk, by ``map(tuple.__new__, repeat(cls), zip(...))`` over columns of
their fields, which skips ``cls.__new__`` and so runs no Python frame per
record (``cycle_oracle._records``).  Their ``__new__`` therefore only packs
its arguments: a check added there would not run on the records the
enumerators return.  A class whose ``__new__`` validates, such as
``PrimePower``, is always built through it."""

from _collections import _tuplegetter


class _FrozenRecordType(type):
    """Gives each record class empty ``__slots__`` and its field descriptors."""

    def __new__(mcls, name, bases, namespace):
        namespace.setdefault("__slots__", ())
        for index, field in enumerate(namespace.get("_fields", ())):
            namespace[field] = _tuplegetter(index, f"Alias for field number {index}")
        return super().__new__(mcls, name, bases, namespace)


class FrozenRecord(tuple, metaclass=_FrozenRecordType):
    """An immutable record: the tuple of the fields named in ``_fields``."""

    _fields = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented  # not item by item

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's item-wise !=

    def __lt__(self, other):  # not even against a plain tuple
        raise TypeError(f"{type(self).__name__!r} records are not ordered")

    __le__ = __gt__ = __ge__ = __lt__

    def __repr__(self):
        fields = ", ".join([f"{name}={value!r}" for name, value in zip(self._fields, self)])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which validates
        return type(self), tuple(self)
