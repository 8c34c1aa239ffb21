"""Exception types shared across the package."""


class RhizalabError(Exception):
    pass


class DimensionMismatch(RhizalabError):
    pass


class MissingProduct(RhizalabError):
    pass


class Singular(RhizalabError):
    """Square matrix has no inverse (determinant zero)."""


class ParseError(RhizalabError):
    """Malformed input text; carries a character position when one is known."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UnboundParameter(RhizalabError):
    def __init__(self, name: str, where: str):
        self.name, self.where = name, where
        super().__init__(f"{where}: parameter {name!r} has no rational binding")


class UnknownEntry(RhizalabError):
    pass


class PreconditionFailed(RhizalabError):
    """A strict-mode construction was handed input violating its premise."""


class NotAnOOperator(PreconditionFailed):
    pass


class NotARotaBaxterOperator(PreconditionFailed):
    pass


class NotACocycle(PreconditionFailed):
    pass


class NotAntiAssociative(PreconditionFailed):
    pass


class InternalError(RuntimeError):
    """A bound the program proves did not hold: a fault in rhizalab, not in its input."""
