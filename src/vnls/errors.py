"""Shared exception types."""


class ParseError(ValueError):
    """Malformed operator, problem, or config text.

    Messages carry the 1-based line number of the offending line when one
    exists.
    """


class CapabilityError(RuntimeError):
    """A request exceeded a size limit: the exact oracle's configured one,
    or problems.B_LIMIT on a dense right-hand side."""
