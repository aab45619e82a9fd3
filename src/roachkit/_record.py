"""Record classes: immutable value types with generated methods.

``@record`` gives a class whose body annotates its fields an ``__init__``,
``__eq__``, ``__hash__``, ``__repr__`` and ``__match_args__`` that behave as
``dataclasses.dataclass(frozen=True)`` would make them, and assigning to or
deleting an attribute raises ``AttributeError``.

The methods are closures over the field names.  ``dataclasses`` instead
writes each method as source text and runs ``exec`` on it, which costs about
half a millisecond per frozen class at import, and importing it loads
``inspect``, ``ast``, ``dis`` and ``tokenize``; together that was about a
third of a CLI command's start-up.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()
_setattr = object.__setattr__


def _binder(qualname, names, defaults):
    """``bind(args, kwargs)``: the full list of field values of a call that
    does not pass every field positionally, with the defaults filled in."""

    def bind(args, kwargs):
        if len(args) > len(names):
            raise TypeError(
                f"{qualname}() takes {len(names)} positional arguments but {len(args)} were given"
            )
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{qualname}() missing required argument {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{qualname}() got {problem} argument {name!r}")
        return values

    return bind


def record(cls):
    """Class decorator: make ``cls`` a record over its annotated fields."""
    body = cls.__dict__
    names = tuple(body.get("__annotations__", ()))
    defaults = {}
    for name in names:
        value = body.get(name, _MISSING)
        if value is _MISSING:
            if defaults:
                raise TypeError(f"non-default field {name!r} follows a default field")
            continue
        defaults[name] = value

    bind = _binder(cls.__qualname__, names, defaults)
    arity = len(names)
    post_init = getattr(cls, "__post_init__", None)

    # Fields are set through ``object.__setattr__``, as the frozen
    # ``__setattr__`` forbids it, and never through ``self.__dict__``: that
    # would make the interpreter build the instance's dict, which makes every
    # later attribute read slower and the instance about half again as big.
    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if post_init is not None:
            self.__post_init__()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    # equal only to an instance of the very same class, and hashed as the
    # tuple of the fields' values
    if len(names) == 1:
        get = attrgetter(*names)
        key = lambda self: (get(self),)
    else:
        key = attrgetter(*names) if names else lambda self: ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__,
               "__hash__": __hash__, "__setattr__": __setattr__,
               "__delattr__": __delattr__}
    for name, method in methods.items():
        if name not in body:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    if "__match_args__" not in body:
        cls.__match_args__ = names
    return cls
