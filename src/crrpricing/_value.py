"""The base of the package's immutable value classes.

A value class lists its fields in ``__slots__``, once. The base reads them
off the slots of the class and its bases as ``__match_args__``, so positional
``match`` patterns bind them in order, and sets them from one value per
field, by position or by name; a class that checks its values does so in its
own ``__init__`` and then calls the base's. Every value class gets the repr,
equality, hash and pickling of a frozen dataclass: equal when the classes
are the same and the field tuples are equal, hashed as the field tuple,
rebuilt through ``__init__``. Assigning or deleting any attribute raises
``AttributeError``.

``echo`` is how every error message quotes its input, bounded in length.
``FoldedPath`` is the price list a price walk yields with its running folds.
"""
from __future__ import annotations

from typing import Callable

_SHOWN = 60  # characters of an input an error message shows


def echo(value: object, show: Callable[[str], str] = repr) -> str:
    """``show(value)`` for a string, the repr of any other value, as an error
    message quotes it: past 60 characters, the first 60, an ellipsis and the
    length, as ``'xxxx…' (100000 characters)``."""
    if not isinstance(value, str):
        value, show = repr(value), str
    if len(value) <= _SHOWN:
        return show(value)
    return f"{show(value[:_SHOWN] + '…')} ({len(value)} characters)"


class Value:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _setters: tuple = ()  # the fields' slot setters, which write past ``__setattr__``

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple(
            name for klass in reversed(cls.__mro__) for name in vars(klass).get("__slots__", ())
        )
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__match_args__)

    def __init__(self, *args: object, **kwargs: object) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):  # positional calls skip the name matching
            names = self.__match_args__
            values = {**dict(zip(names, args)), **kwargs}
            # exactly the fields, each given once: none missing, extra, repeated or unknown
            if values.keys() != set(names) or len(args) + len(kwargs) != len(names):
                raise TypeError(f"{type(self).__qualname__}() takes one value per field of {names}, "
                                f"got {len(args)} by position and {sorted(kwargs)} by name")
            args = [values[name] for name in names]
        for setter, value in zip(setters, args):
            setter(self, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self) -> tuple:
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__


class FoldedPath(list):
    """A list of prices that also holds folds of the whole list: ``total``,
    the sum from ``0`` left to right; ``high`` and ``low``, the values of the
    builtins ``max`` and ``min``. A fold the maker did not keep is ``None``."""

    __slots__ = ("total", "high", "low")

    def __init__(self, prices: object = ()) -> None:
        super().__init__(prices)
        self.total = self.high = self.low = None
