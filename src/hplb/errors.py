"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class BandDomainError(ValueError):
    """The analytic band threshold is undefined for this effective size.

    Raised when the iterated logarithm needs m_eff >= 8; callers fall back
    to the simulated band.
    """


class DatasetError(ValueError):
    """An input file does not match its declared schema."""
