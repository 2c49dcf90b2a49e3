"""Exception types shared across the package, and `Frozen`, the base of
its immutable value classes."""


class Frozen:
    """Base of the immutable value classes: once built, assigning or
    deleting any attribute raises AttributeError naming it.

    One constructor serves every subclass: it binds the positional
    arguments, then the keywords, onto the class's fields, which are its
    `__slots__`, or its `_fields` where the class keeps an instance dict
    (for `cached_property`).  A field left out takes its value in
    `_defaults`; a missing, unknown, repeated or surplus argument raises
    TypeError naming the class and the field.  A subclass that derives or
    validates a field in its own `__init__` passes the values on to it."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields or cls.__slots__
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__} takes {len(fields)} fields ({', '.join(fields)}), "
                f"got {len(args)} positional arguments"
            )
        for name, value in zip(fields, args):
            if name in kwargs:
                raise TypeError(f"{cls.__name__} got field {name!r} twice")
            object.__setattr__(self, name, value)
        for name in fields[len(args) :]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in cls._defaults:
                value = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__name__} has no field {next(iter(kwargs))!r}")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class InvariantViolation(Exception):
    """A structural self-check failed (group table, order axioms, dual-route
    disagreement).  These indicate corrupted input data or a bug, never a
    user mistake; the CLI maps them to exit code 3."""


class PresetError(ValueError):
    """A group preset or custom configuration violates a required invariant.
    The message names the first violated invariant."""


class ClosureBoundExceeded(PresetError):
    """Generator closure exceeded the configured element bound; the
    configuration almost certainly does not describe a finite group of the
    expected size."""


class ReducedLiftUnavailable(ValueError):
    """No member of a coset is a plain product of generators with reduced
    projection, so the partial converse test for the control-set order has
    no admissible starting element."""


class ExprParseError(ValueError):
    """An element expression failed to parse.  `position` is the character
    offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
