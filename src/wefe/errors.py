"""Exception types shared across the toolkit."""


class WefeError(Exception):
    """Base class for all toolkit errors."""


class DomainError(WefeError):
    """Evaluation left the domain of an expression (division by zero,
    log/sqrt of a non-positive value).  Carries the path of the offending
    node inside the expression tree, after the component indices when an
    array of expressions was evaluated."""

    def __init__(self, message, path=()):
        super().__init__(message)
        self.path = tuple(path)

    def __str__(self):
        base = super().__str__()
        if self.path:
            return f"{base} (node path {'/'.join(map(str, self.path))})"
        return base


class SingularMetric(WefeError):
    """Metric determinant vanishes (or nearly so) at a sample point."""


class SignatureMismatch(WefeError):
    """Metric eigenvalue signs disagree with the declared signature."""


class DimensionError(WefeError):
    """Operation not defined in this dimension."""


class VanishingGradient(WefeError):
    """The density gradient is numerically zero where a direction is needed."""


class NotLightlike(WefeError):
    """Optical scalars requested for a vector that is not null."""


class NotGeodesic(WefeError):
    """Optical scalars requested for a non-geodesic congruence."""


class IllConditioned(WefeError):
    """Jordan classification refused: eigenvalue clusters too close to
    separate at the working tolerance."""


class ParameterOutOfRange(WefeError):
    """Catalog parameter override violates the family's admissible range."""

    def __init__(self, message, constraint=None):
        super().__init__(message)
        self.constraint = constraint


class InadmissibleConstants(ParameterOutOfRange):
    """Closed-form constants with which the branch does not solve the ODE
    system.  These are bad input; an excluded (flat) configuration, which
    does solve it, is an evaluation failure."""


class GeneratorMismatch(WefeError):
    """A generated polynomial disagrees with its reference form."""

    def __init__(self, message, mismatches=()):
        super().__init__(message)
        self.mismatches = list(mismatches)


class ResourceLimit(WefeError):
    """A configured work budget was exhausted before completion."""


class DegenerateState(WefeError):
    """ODE state outside the admissible region (h or phi not positive)."""


class StepFailure(WefeError):
    """Adaptive step size underflowed without meeting the error target."""


class ManifestError(WefeError):
    """A manifest file could not be parsed."""
