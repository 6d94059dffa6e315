"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class DatasetError(ValueError):
    """An input file does not match its declared schema."""
