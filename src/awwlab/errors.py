"""Exception hierarchy shared across the package."""


class AwwlabError(Exception):
    """Base class for all numerical-laboratory errors."""


class GapViolation(AwwlabError):
    """Eigenvalue gap of the atomic Hamiltonian fell below the configured minimum."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class FrameSmoothnessError(AwwlabError):
    """Eigenframe quantities failed a smoothness/consistency check."""


class DiscretizationError(AwwlabError):
    """The bath cannot be described to tolerance: the field mode grid missed
    the correlation function (``achieved`` holds its error), or a consumer
    needs what the bath lacks. A bath without a closed-form correlation (any
    bath_from_csv table) is refused by every reader of gamma, and one without
    an exponential sum by every half-line transform; each refusal names what
    is missing."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class IntegratorError(AwwlabError):
    """Time integration violated a conserved-quantity or drift tolerance."""


class StiffnessError(AwwlabError):
    """Step size underflow; parameters outside the resolvable range."""


class ResolutionError(AwwlabError):
    """A stored history grid is too coarse for the requested reconstruction."""


class MatchingError(AwwlabError):
    """Perturbed eigenvalues could not be unambiguously matched to levels."""


class ContourError(AwwlabError):
    """A resolvent contour node came too close to an eigenvalue."""


class WellCouplednessError(AwwlabError):
    """An atomic frequency sits outside the bath spectral support."""


class CouplingValidationError(AwwlabError):
    """The coupling-smallness condition failed and no override was given."""


class ConfigError(AwwlabError):
    """Invalid or missing configuration key."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
