"""Exception types, the bases of result records and immutable values, and
the descriptor of their derived attributes, shared across the library.

A record declares its fields once, as the annotated names of its class
body, and ``Record.__init__`` builds it from their values, given by
position only; a trailing field may have a default, the class attribute
of its name.  A class keeps an ``__init__`` of its own only where its
constructor converts or validates.
"""


class NoiseLatticeError(Exception):
    """Base class for errors raised by this library."""


class CapacityError(NoiseLatticeError):
    """A construction would exceed the configured size guard."""


class DomainMismatchError(NoiseLatticeError):
    """Operands live on different probability spaces."""


class PreconditionError(NoiseLatticeError):
    """An operation's precondition is violated."""


class UnsupportedSequenceError(NoiseLatticeError):
    """A symbolic sequence descriptor is outside the supported family."""


class ConsistencyError(NoiseLatticeError):
    """Two independent computations of the same quantity disagree."""


class Record:
    """Base of the library's result records.

    A record's fields are the names annotated in its class body, in order.
    ``__init__`` takes their values positionally only and stores them in
    the instance ``__dict__``; a trailing field may have a default, the
    class attribute of its name, which is stored alike when left out.  Two
    records are equal when they are of one class with equal fields, and
    ``repr`` lists the fields by name, as for a dataclass.  A record is
    mutable and unhashable; a ``Frozen`` one is neither.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = tuple([own[name] for name in cls._fields if name in own])
        if any(name in own for name in cls._fields[: len(cls._fields) - len(cls._defaults)]):
            raise TypeError(f"{cls.__qualname__}: a field without a default follows a default")

    def __init__(self, *values):
        fields, defaults = self._fields, self._defaults
        if len(values) != len(fields):
            if not len(fields) - len(defaults) <= len(values) < len(fields):
                name = f"{self.__class__.__qualname__}({', '.join(fields)})"
                raise TypeError(f"{name}: {len(values)} values given")
            values += defaults[len(values) - len(fields) :]
        self.__dict__.update(zip(fields, values))

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    """Base of the library's immutable values: records hashed as their tuple of fields.

    ``__init__`` sets the fields once, through the instance ``__dict__``;
    assigning or deleting an attribute afterwards raises ``AttributeError``.
    """

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class derived:
    """A method read as an attribute, computed on first read and kept.

    The value goes into the instance ``__dict__`` under the method's name,
    past ``Frozen.__setattr__``, and shadows this non-data descriptor from
    then on, so later reads are plain attribute reads.  Unlike
    ``functools.cached_property`` it takes no lock: two threads reading
    at once may both compute the value, which is a pure function of
    fields that never change.  A kept value is not a field: it takes no
    part in equality, hashing or ``repr``, and a pickle carries it.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value
