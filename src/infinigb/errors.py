"""Exception types shared across the library."""


# The most characters of an input that a message repeats.
ECHO_LIMIT = 60


def echo(text, show=str):
    """show(text) for a message, or show of its first ECHO_LIMIT characters
    and the length of the whole when it is longer."""
    if len(text) <= ECHO_LIMIT:
        return show(text)
    return f"{show(text[:ECHO_LIMIT])}... ({len(text)} characters)"


class InfinigbError(Exception):
    """Base class for all library errors."""


class ParseError(InfinigbError):
    """Malformed monomial or polynomial text; carries the offending offset."""

    def __init__(self, message, text, position):
        super().__init__(f"{message} at position {position} in {echo(text, repr)}")
        self.text = text
        self.position = position


class RingContextMismatch(InfinigbError):
    """Operands belong to different ring contexts."""


class ZeroPolynomialError(InfinigbError):
    """The zero polynomial has no leading data and cannot be a divisor."""


class WindowError(InfinigbError):
    """A generator or operation does not fit the truncation window."""


class OrderKindError(InfinigbError):
    """The operation requires a different kind of monomial order."""


class HomogeneityError(InfinigbError):
    """The operation requires homogeneous input."""


class CertificationError(InfinigbError):
    """A certified Groebner basis or regular sequence is required."""


class InputError(InfinigbError, ValueError):
    """A value given to the library or the command line is invalid.

    A `ValueError` too, so callers that catch that keep working; the
    command line treats only library errors as bad input, so an internal
    `ValueError` is not mistaken for one.
    """
