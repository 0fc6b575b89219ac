"""Exception types shared across the package."""


class ItlError(Exception):
    """Base class for all errors raised by this library."""


class ParseError(ItlError):
    """Formula text could not be parsed."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class LanguageError(ParseError):
    """A connective was used outside the language that allows it."""


class DocumentError(ItlError):
    """A JSON document does not match the expected schema."""


class InvalidPointError(ItlError):
    """A point or moment reference does not resolve in the given structure."""


class BoundExceededError(ItlError):
    """An exhaustive enumeration would exceed the configured bound."""


class InvalidBoundError(ItlError):
    """An enumeration bound is not a nonnegative integer."""
