"""Base class of the package's immutable value types.

A value type names its fields, in constructor order, in ``__slots__``, and
the defaults of its trailing fields in a ``_defaults`` dict. When the class
is created, ``Value`` compiles its ``__init__`` from those two, the way
``collections.namedtuple`` builds its ``__new__``: the constructor takes
each field by position or keyword, sets it, and then calls
``self.__post_init__()`` if the class defines one. ``__post_init__`` holds
the type's checks, and may normalise a field with ``set_field``.

``Value`` supplies the rest of what a frozen dataclass would, without
building a class at import time: equality with an instance of the same
class whose fields are equal, a hash over the fields, the
``Type(field=value, ...)`` repr, an AttributeError on assigning or deleting
a field, ``_replace(**changes)`` for a variant (checked again by the
constructor), and a ``__reduce__`` that rebuilds the value through its
constructor, so that ``copy``, ``deepcopy`` and ``pickle`` work.

``finite`` is the one test of whether an input number is usable, and
``shown`` the one bounded printable form of an input in a message.
``SCHEMA_VERSION`` is the version of the config and report documents; it
lives in this leaf module so that reports need not import the config parser.
"""

import math

SCHEMA_VERSION = "1"
SHOWN_LIMIT = 200  # the most characters of an input that a message prints

set_field = object.__setattr__


def finite(value) -> bool:
    """True for a finite number; an int too large for a float, or a value that
    is not a number, is not."""
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):
        return False


def shown(value) -> str:
    """``repr(value)`` for a message, cut to ``SHOWN_LIMIT`` characters with
    a note of its full length; an integer beyond floating-point range is
    named, not printed, and a set's members are sorted, so that a message
    reads the same in every process."""
    if isinstance(value, int) and not finite(value):
        return "an integer beyond floating-point range"
    try:
        if isinstance(value, (set, frozenset)) and value:
            members = "{" + ", ".join(sorted([shown(member) for member in value])) + "}"
            text = members if type(value) is set else f"{type(value).__name__}({members})"
        else:
            text = repr(value)
    except ValueError:  # holds an integer past int's string-conversion limit
        return f"a {type(value).__name__} holding an integer too long to print"
    except RecursionError:
        return f"a {type(value).__name__} nested too deeply to print"
    if len(text) > SHOWN_LIMIT:
        cut = f"... (cut; {len(text)} characters in all)"
        return text[:SHOWN_LIMIT - len(cut)] + cut
    return text


def _compile_init(cls):
    """The ``__init__`` of ``cls``: one parameter per slot, in order."""
    fields = cls.__slots__
    defaults = cls._defaults
    if list(defaults) != list(fields[len(fields) - len(defaults):]):
        raise TypeError(f"{cls.__qualname__}._defaults must name its trailing fields in order")
    # Each slot's descriptor sets the field without going through the
    # class's __setattr__, which refuses.
    namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in fields}
    lines = [f"def __init__(self, {', '.join(fields)}):"]
    lines += [f"    _set_{name}(self, {name})" for name in fields]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    exec("\n".join(lines), namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults.values()) or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class Value:
    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__init__ = _compile_init(cls)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _replace(self, **changes):
        """A copy with the given fields changed, built and checked again by
        the constructor; an unknown field name is a TypeError."""
        args = [changes.pop(name) if name in changes else getattr(self, name)
                for name in self.__slots__]
        if changes:
            raise TypeError(f"{type(self).__qualname__}._replace() got unknown field(s): "
                            + ", ".join(map(repr, changes)))
        return type(self)(*args)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple()
