"""Exception types shared across the package."""


class NMixTimeError(Exception):
    """Base class for errors raised by this package."""


class DataFormatError(NMixTimeError):
    """Raised when an input file (CSV/JSON) cannot be parsed into model objects."""


class LikelihoodDomainError(NMixTimeError, ValueError):
    """Raised when data lie outside the support of the requested density."""


class SeriesConvergenceError(NMixTimeError):
    """A series evaluation cannot meet its tail tolerance within its term bound.

    Carries the partial log-sum and the number of terms accumulated so the
    caller can decide whether the partial value is usable.
    """

    def __init__(self, message: str, partial_log_sum: float, n_terms: int):
        self.partial_log_sum = partial_log_sum
        self.n_terms = n_terms
        super().__init__(f"{message} (partial log-sum {partial_log_sum!r} after {n_terms} terms)")


class OracleConvergenceError(NMixTimeError):
    """The truncated latent-abundance sum did not meet its tail bound.

    The partial log-likelihood value is attached for diagnostics.
    """

    def __init__(self, message: str, partial_value: float, n_terms: int):
        self.partial_value = partial_value
        self.n_terms = n_terms
        super().__init__(f"{message} (partial value {partial_value!r} after {n_terms} terms)")
