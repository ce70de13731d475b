"""Exception hierarchy shared across the package."""


class MlgError(Exception):
    """Base class for all package-specific errors."""


class GraphError(MlgError):
    """Structural violation while building or querying a multi-layer graph."""


class NoRealization(GraphError):
    """An upper-layer edge has no realization path in any lower layer."""

    def __init__(self, edge, message=None):
        self.edge = edge
        super().__init__(message or f"no realization path for edge {edge}")


class MissingRealization(MlgError):
    """A flow-carrying edge was projected without a realization path."""


class ProductivityMismatch(MlgError):
    """Sum of server productivities does not match the service productivity."""

    def __init__(self, total_servers, service, message=None):
        self.total_servers = total_servers
        self.service = service
        super().__init__(
            message
            or f"server productivity total {total_servers} != service productivity {service}"
        )


class EmptyServerSet(MlgError):
    """Positive demand with no servers to carry it."""


class ProblemFormatError(MlgError):
    """Problem file failed schema validation."""


class MalformedProgram(MlgError):
    """Linear program contains NaN or infinite coefficients."""


class UncoveredCommodity(MlgError):
    """A commodity has no candidate path in the link-path formulation."""


class DecompositionError(MlgError):
    """Solved arc flows did not decompose into complete routes."""


class InfeasibleError(MlgError):
    """The optimization problem admits no feasible solution.

    ``certificate`` lists the constraint names participating in the
    phase-1 infeasibility certificate.
    """

    def __init__(self, certificate=None, message=None):
        self.certificate = list(certificate or [])
        msg = message or "problem is infeasible"
        if self.certificate:
            msg += f" (certificate rows: {', '.join(self.certificate)})"
        super().__init__(msg)


class LimitsExceeded(MlgError):
    """Instance is too large for the brute-force oracle."""
