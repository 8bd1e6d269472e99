"""Declared knobs: the one place the environment is read.

A layer's ``config.py`` declares its settings as :class:`Knob` class
attributes of a :class:`Knobs` subclass and builds one process-wide
instance. The instance reads every variable once, when it is built, and
keeps the values as plain instance attributes, so a hot path pays one
attribute read. Tests and benchmarks change values for a ``with`` block
through :meth:`Knobs.overridden`. Lint rule REPRO001 allows
``os.environ`` reads in this module only, so no behaviour can depend on
when some other module happened to be imported.
"""

from __future__ import annotations

import os
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, ClassVar, Iterator

#: spellings (after strip and lower-casing) that turn a bool knob off.
_FALSY = frozenset({"0", "false", "no", "off", ""})


@dataclass(frozen=True)
class Knob:
    """One setting: its environment variable, default and meaning.

    The default's type picks the parser: a ``bool`` is on for any
    spelling outside :data:`_FALSY`; an ``int``, ``float`` or ``str``
    parses as that type.
    """

    env: str
    default: bool | int | float | str
    doc: str

    def read(self) -> Any:
        """The value the environment gives, or the default when unset."""
        raw = os.environ.get(self.env)
        if raw is None:
            return self.default
        kind = type(self.default)
        if kind is bool:
            return raw.strip().lower() not in _FALSY
        try:
            return kind(raw)
        except ValueError:
            raise ValueError(
                f"{self.env}={raw!r} is not a valid {kind.__name__}"
            ) from None


class Knobs:
    """Base of a layer's configuration singleton.

    Every :class:`Knob` class attribute becomes an instance attribute of
    the same name, holding the value :meth:`Knob.read` gives.
    """

    #: attribute name -> declaration, for every knob of the class.
    KNOBS: ClassVar[dict[str, Knob]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        declared = {name: v for name, v in vars(cls).items() if isinstance(v, Knob)}
        cls.KNOBS = {**cls.KNOBS, **declared}
        # A class attribute of a mutable type stops CPython from
        # specialising reads of the same-named instance attribute (about
        # 3x slower on hot paths), so the declarations live only in KNOBS.
        for name in declared:
            delattr(cls, name)

    def __init__(self) -> None:
        for name, knob in self.KNOBS.items():
            setattr(self, name, knob.read())
        _INSTANCES.add(self)

    @contextmanager
    def overridden(self, **values: Any) -> Iterator[Any]:
        """Set the named knobs for the ``with`` block, then restore them.

        An unknown name raises before anything changes; the previous
        values come back even when the block raises.
        """
        for name in values:
            if name not in self.KNOBS:
                raise ValueError(
                    f"unknown {type(self).__name__} knob {name!r}; "
                    f"known: {', '.join(self.KNOBS)}"
                )
        previous = {name: getattr(self, name) for name in values}
        try:
            for name, value in values.items():
                setattr(self, name, value)
            yield self
        finally:
            for name, value in previous.items():
                setattr(self, name, value)

    def disabled(self):
        """Turn the layer's ``enabled`` switch off for the ``with`` block."""
        return self.overridden(enabled=False)

    def snapshot(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self.KNOBS}

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={value!r}" for name, value in self.snapshot().items())
        return f"{type(self).__name__}({values})"


#: every live :class:`Knobs` instance: the layers' singletons, plus any
#: short-lived one a test builds.
_INSTANCES: "weakref.WeakSet[Knobs]" = weakref.WeakSet()


def changed_knobs() -> dict[str, Any]:
    """Each knob whose value differs from its declared default, by variable."""
    changed = {
        knob.env: value
        for knobs in list(_INSTANCES)
        for name, knob in knobs.KNOBS.items()
        if (value := getattr(knobs, name)) != knob.default
    }
    return dict(sorted(changed.items()))
