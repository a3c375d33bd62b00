"""Exception hierarchy shared by all canonsys modules."""


class CanonsysError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CanonsysError):
    """Malformed or inconsistent problem configuration (CLI exit code 2)."""


class DomainError(CanonsysError):
    """Evaluation point outside the interval a function is defined on."""


class EvaluationError(CanonsysError):
    """A Hamiltonian entry evaluated to a non-finite number."""


class UnsupportedSpecError(CanonsysError):
    """Operation requires a Hamiltonian shape this routine does not handle."""


class IndeterminateError(CanonsysError):
    """Sampling could not decide a structural question (e.g. H vanishes a.e.)."""


class IntegrationError(CanonsysError):
    """Quadrature or ODE integration failed; carries context in args."""


class SingularityProximityError(IntegrationError):
    """Non-finite values or panel-width underflow near a singular endpoint."""

    def __init__(self, message, t_reached):
        super().__init__(message)
        self.t_reached = t_reached


class LimitError(CanonsysError):
    """Extrapolated limit did not converge; carries the sample sequence."""

    def __init__(self, message, samples=None, err_est=None):
        super().__init__(message)
        self.samples = samples
        self.err_est = err_est


class ConditioningError(CanonsysError):
    """A linear system in the pipeline is too ill-conditioned to trust."""

    def __init__(self, message, matrix=None):
        super().__init__(message)
        self.matrix = matrix


class PoleError(CanonsysError):
    """Closed-form expression evaluated at one of its poles."""
