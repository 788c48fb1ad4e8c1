"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """A fixed cap (dense size, lightcone support, mask count) would be exceeded."""
