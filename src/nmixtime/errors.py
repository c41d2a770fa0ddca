"""Exception types shared across the package."""


class NMixTimeError(Exception):
    """Base class for errors raised by this package."""


class DataFormatError(NMixTimeError):
    """Raised when an input file (CSV/JSON) cannot be parsed into model objects."""


class DesignSizeError(NMixTimeError, ValueError):
    """Raised for a survey design with more cells than the machine could hold."""


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


class EndOfWindowWarning(UserWarning):
    """Detection times exactly at the end of their search window: legal but
    unusual. Carries the number of such cells and the first one, 0-based."""

    def __init__(self, cells: int, site: int, occasion: int):
        self.cells, self.site, self.occasion = cells, site, occasion
        super().__init__(
            f"detection time equals search time in {cells} cell(s) (first: site {site} occasion {occasion})"
        )
