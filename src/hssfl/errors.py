"""Exception types shared across the package."""


class HssflError(Exception):
    """Base class for all package errors."""


class ShapeError(HssflError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class ConfigError(HssflError, ValueError):
    """A configuration value violates its contract."""


class DegenerateInputError(HssflError, ValueError):
    """Input is mathematically degenerate for the requested operation."""


class UnsupportedCombinationError(HssflError, ValueError):
    """Inputs are individually valid but cannot be combined this way."""


class NumericalFailureError(HssflError, RuntimeError):
    """A computation produced NaN/Inf; carries the offending component name."""

    def __init__(self, component: str, detail: str = ""):
        self.component = component
        self.detail = detail
        msg = f"non-finite values in {component}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)

    def __reduce__(self):
        # args holds the formatted message; rebuild from the fields instead
        return type(self), (self.component, self.detail)

    def within(self, where: str) -> "NumericalFailureError":
        """The same failure with ``where`` put before its detail."""
        return NumericalFailureError(
            self.component, f"{where}, {self.detail}" if self.detail else where
        )


class ProtocolError(HssflError, RuntimeError):
    """The federation message protocol was violated."""


class ParseError(HssflError, ValueError):
    """A file could not be parsed; carries the line number where known."""

    def __init__(self, message: str, line: int | None = None):
        self.message = message
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")

    def __reduce__(self):
        return type(self), (self.message, self.line)


class InsufficientProbesError(HssflError, ValueError):
    """A trace does not contain enough probe records to estimate a constant."""
