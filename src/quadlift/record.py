"""The base of the package's result records."""


class Record:
    """Read-only fields named in ``__slots__``, given by position or keyword
    (a subclass with defaults passes them all, in order, to this class's
    ``__init__``).  Two records of one class with equal fields are equal; a
    record hashes, pickles and copies as the tuple of its fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        # the slots' own setters, as assignment through the record fails
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            if len(args) > len(names) or set(kwargs) != set(names[len(args):]):
                raise TypeError("%s() takes the fields %s"
                                % (type(self).__name__, names))
            args += tuple(kwargs[name] for name in names[len(args):])
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
