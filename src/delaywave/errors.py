"""Exception types shared across the package."""


class GridMismatchError(ValueError):
    """Two grid-indexed objects do not live on the same grid."""


class ConditionError(ValueError):
    """A mathematical admissibility condition is violated."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or overflowed to inf/nan."""

    def __init__(self, message, context=None):
        super().__init__(message)
        self.context = context or {}


class ConfigError(ValueError):
    """A configuration document is malformed or out of range."""

    def __init__(self, message, line=None, column=None, key=None):
        self.message = message  # without the location
        self.line = line
        self.column = column
        self.key = key
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class ExpressionError(ConfigError):
    """An expression string cannot be parsed or evaluated."""
