"""Exception types shared across the package."""


class HullkitError(Exception):
    """Base class for package-specific errors."""


class DimensionError(HullkitError, ValueError):
    """Operands have inconsistent dimensions."""


class DegenerateError(HullkitError, ValueError):
    """Point set is affinely degenerate for the requested operation."""


class TooFewPoints(HullkitError, ValueError):
    """Not enough distinct points to build a full-dimensional hull."""


class EmptyInterior(HullkitError, ValueError):
    """Half-space region has no strictly interior point."""


class InfeasibleStart(HullkitError, ValueError):
    """Barrier start point is not strictly inside the feasible region."""


class ParseError(HullkitError, ValueError):
    """Malformed text input; carries 1-based line/column when known."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class SchemaError(HullkitError, ValueError):
    """Persisted file has an unsupported or inconsistent schema."""


class ConversionTimeout(HullkitError, RuntimeError):
    """Facet enumeration abandoned after exceeding its deadline."""

    def __init__(self, elapsed, candidates_examined):
        super().__init__(f"facet enumeration abandoned after {elapsed:.3f} s")
        self.elapsed = elapsed
        self.candidates_examined = candidates_examined
