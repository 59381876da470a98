"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and usage problems
exit 1, data problems exit 2, numeric failures exit 3.  Any other
exception, ``MemoryError`` included, exits 4 as an out-of-memory or
internal error.
"""


class ConfigError(ValueError):
    """Invalid configuration value, unknown key, or bad CLI usage."""


class ValidationError(ConfigError):
    """A generator or run specification failed validation."""


class ShapeError(ValueError):
    """An array argument has the wrong number of dimensions or sizes."""


class SequenceLengthError(ValueError):
    """A sequence is too short, or odd where pairing is required."""


class DomainError(ValueError):
    """An array argument contains NaN or infinite entries."""


class ParseError(ValueError):
    """A data file could not be parsed.

    Carries the offending path and 1-based line number when known.
    """

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
        if line is not None:
            loc += f"line {line}: "
        super().__init__(loc + message)
        self.path = path
        self.line = line


class InsufficientDataError(ValueError):
    """A scene or tracklet is too short for the requested windowing."""


class NumericError(RuntimeError):
    """A numeric invariant failed (conditioning, gradcheck)."""


class TrainingError(RuntimeError):
    """Training produced non-finite parameters or gradients."""
