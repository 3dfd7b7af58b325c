"""Exception hierarchy shared across the package."""


class AwwlabError(Exception):
    """Base class for all numerical-laboratory errors."""


class QuadratureError(AwwlabError):
    """An oscillatory or improper integral did not converge to tolerance.

    Carries the achieved error estimate in ``achieved``.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class GapViolation(AwwlabError):
    """Eigenvalue gap of the atomic Hamiltonian fell below the configured minimum."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class FrameSmoothnessError(AwwlabError):
    """Eigenframe quantities failed a smoothness/consistency check."""


class DiscretizationError(AwwlabError):
    """The field mode grid could not reproduce the correlation function to
    tolerance, or a solver needs the bath's exponential sum and it has none."""

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
