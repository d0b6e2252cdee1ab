"""Exception types shared across the package."""


class PermwitError(Exception):
    """Base class for all errors raised by this package."""


class DegreeMismatch(PermwitError, ValueError):
    """Two permutations (or groups) of different degrees were combined."""


class CycleParseError(PermwitError, ValueError):
    """Cycle-notation text could not be parsed.

    `position` is the 0-based offset into the input where parsing failed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotASubgroup(PermwitError, ValueError):
    """An operation required a subgroup relation that does not hold."""


class NotNormal(PermwitError, ValueError):
    """An operation required a normal subgroup and got a non-normal one."""


class BudgetExceeded(PermwitError, RuntimeError):
    """A configured enumeration or search budget was exceeded."""


class HypothesisError(PermwitError, ValueError):
    """A mathematical precondition of the requested operation fails."""


class BlockStructureError(PermwitError, ValueError):
    """A permutation or group does not respect the required block structure."""


class IsomorphismUndecided(PermwitError, RuntimeError):
    """The isomorphism backtracking search ran out of node budget."""


class GroupFileError(PermwitError, ValueError):
    """A group file could not be parsed. `line` is 1-based, or None for a
    problem of the whole file."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
