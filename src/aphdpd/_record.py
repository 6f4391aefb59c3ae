"""`record`: the frozen value class decorator of the package.

It gives a class the methods of a frozen dataclass, built from closures
over the class's fields, its annotated names in order: no source text is
generated and compiled per method, as `dataclasses` does, so defining a
value class compiles nothing.

- `__init__` binds positional and keyword arguments to the fields, fills
  the rest from the class-level defaults, then calls `__post_init__`,
  which may replace a field by `object.__setattr__`;
- assigning or deleting any attribute raises `FrozenInstanceError`;
- `__eq__` and `__hash__` compare and hash the tuple of field values, and
  only an instance of the same class is equal;
- `__repr__` reads `QualName(field=value, ...)`.
"""

from __future__ import annotations


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a frozen value."""


def record(cls):
    """`cls` with the methods of a frozen value class (see above)."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    qualname = cls.__qualname__

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{qualname}() takes {len(names)} arguments, got {len(args)}")
        given = dict(zip(names, args))
        for name in kwargs:
            if name not in names or name in given:
                raise TypeError(f"{qualname}() got an unknown or repeated argument {name!r}")
        given.update(kwargs)
        missing = [name for name in names if name not in given and name not in defaults]
        if missing:
            raise TypeError(f"{qualname}() missing arguments: {', '.join(missing)}")
        fields = self.__dict__
        for name in names:
            fields[name] = given[name] if name in given else defaults[name]
        if post_init is not None:
            post_init(self)

    def values(self) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    for method in (__init__, __setattr__, __delattr__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{qualname}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
