"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when input data or configuration violates a documented contract.

    CLI entry points map this to exit code 1; genuine I/O failures
    (missing files, unreadable paths) surface as OSError and map to 2.
    """


class FieldError(ValidationError):
    """A refused value of one constructor argument, named by `field`, so a
    caller that took the value from a setting of another name can name that."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field
