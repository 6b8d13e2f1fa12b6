"""Immutable value classes, without the standard library's data classes.

`frozen` turns a class that annotates its fields into an immutable value
that behaves as a frozen data class does, in everything the package relies
on:

- Fields: the names in the class's own annotations, in declaration order,
  kept as `__match_args__`.  No field has a default.
- `__init__` takes the fields positionally or by keyword, writes them
  straight into the instance `__dict__`, so that `functools.cached_property`
  still fills on a frozen instance, then calls `__post_init__` where the
  class defines one.
- `__eq__` compares the field tuples of two instances of the same class and
  returns NotImplemented for an instance of any other class.
- `__hash__` is the hash of the field tuple, the value a frozen data class
  gives, so set and dict orders, and with them the output bytes, are
  unchanged.
- `__repr__` is `Name(field=value, ...)` with each value's repr, in the
  data-class format: `Poly(num=(1, 2), den=3)`.
- `__setattr__` and `__delattr__` raise AttributeError.

Why: importing the data-class module loads `inspect`, `ast`, `dis` and
`tokenize`, and each decorated class then compiles about six functions.
Together that was about 10 ms of the 23 ms a fresh process spent in
`import palinfrac.cli` with a warm bytecode cache (Python 3.11, x86).  Here
`__init__`, `__eq__` and `__hash__` are compiled from one short source per
class, and the other methods are shared.
"""

from __future__ import annotations

_SOURCE = """\
def __init__(self, {fields}):
    instance_dict = self.__dict__
    {stores}
    {post_init}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine},) == ({theirs},)
    return NotImplemented
def __hash__(self):
    return hash(({mine},))
"""


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _setattr(self, name: str, value) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def frozen(cls: type) -> type:
    """Make `cls` an immutable value class over its annotated fields."""
    fields = tuple(cls.__annotations__)
    source = _SOURCE.format(
        fields=", ".join(fields),
        stores="; ".join(f"instance_dict[{name!r}] = {name}" for name in fields),
        post_init="self.__post_init__()" if hasattr(cls, "__post_init__") else "",
        mine=", ".join(f"self.{name}" for name in fields),
        theirs=", ".join(f"other.{name}" for name in fields),
    )
    namespace: dict = {}
    exec(compile(source, f"<frozen {cls.__qualname__}>", "exec"), {}, namespace)
    for name, method in namespace.items():
        setattr(cls, name, method)
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    cls.__match_args__ = fields
    return cls
