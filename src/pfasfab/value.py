"""Base class of the package's immutable value types.

A value type names its fields, in constructor order, in ``__slots__`` and
sets each one in its own ``__init__`` with ``set_field``. ``Value`` supplies
the rest of what a frozen dataclass would, without building a class at
import time: equality with an instance of the same class whose fields are
equal, a hash over the fields, the ``Type(field=value, ...)`` repr, an
AttributeError on assigning or deleting a field, and a ``__reduce__`` that
rebuilds the value through its constructor, so that ``copy``, ``deepcopy``
and ``pickle`` work.
"""

set_field = object.__setattr__


class Value:
    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

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
