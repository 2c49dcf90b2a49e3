"""Exception types shared across the package, and `Frozen`, the base of
its immutable value classes."""


class Frozen:
    """Base of the immutable value classes: once built, assigning or
    deleting any attribute raises AttributeError naming it.  Each subclass
    sets its own fields in `__init__`, past this guard, with `_set`."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        """Set the fields, from `__init__` only."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)

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
