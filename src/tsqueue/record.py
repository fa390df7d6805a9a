"""Immutable value records, the base of the package's model and result types.

A record is a plain object with ``__slots__`` and no ``__dict__``.  Once a
record class is built, no attribute name reaches its slots: each field
reads through a property with no setter, and any other slot is reachable
only through the descriptors in the class's ``_slots``, with which its
module's ``__init__`` sets the values.  So assigning or deleting any name
on a record raises AttributeError.  A record is not a tuple: it does not
unpack, index or equal one.  Building the types this way, instead of with
``dataclasses``, keeps ``inspect``, ``ast``, ``dis`` and ``tokenize`` out
of the CLI's start-up.
"""

from operator import attrgetter


class Record:
    """Base of a value record whose fields are ``_fields``, in order.

    A subclass lists its fields and then any private slots in
    ``__slots__``.  ``repr``, ``==``, ``hash`` and pickling read the
    compared fields, ``_compared`` (two or more; all fields unless the
    subclass names fewer): the repr is ``Name(field=value, ...)`` over
    them, two records are equal when they are of one class and those
    fields are equal, the hash is that of the tuple of those fields, and
    the constructor takes them, in order, to rebuild a record for
    ``pickle`` and ``copy`` (and a class pattern matches them by
    position).  ``_asdict()`` gives every field by name.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        # The class's own slot descriptors, by name, taken out of the class so
        # that no attribute name reaches them; each field reads through its
        # slot's getter.
        cls._slots = {name: cls.__dict__[name] for name in cls.__dict__.get("__slots__", ())}
        for name, slot in cls._slots.items():
            delattr(cls, name)
            if name in cls._fields:
                setattr(cls, name, property(slot.__get__, doc=f"Field {name}."))
        cls._compared = getattr(cls, "_compared", cls._fields)
        cls._key = attrgetter(*cls._compared)
        cls.__match_args__ = cls._compared

    def __repr__(self):
        values = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._compared, self._key(self)))
        return f"{self.__class__.__qualname__}({values})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        return self.__class__, self._key(self)

    def _asdict(self):
        """The fields by name, in field order."""
        return {name: getattr(self, name) for name in self._fields}
