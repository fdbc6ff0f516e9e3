"""Exception types shared across the library."""


class DualtetError(Exception):
    """Base class for all library-specific errors."""


class LambdaMismatch(DualtetError):
    """Operands carry different curvature tags."""


class ZeroDivisor(DualtetError):
    """Inversion of a non-unit was requested."""


class PoleAt(DualtetError):
    """A trigonometric denominator vanishes at the given argument."""


class DomainError(DualtetError):
    """Argument outside the domain of the requested operation."""


class NormalizationFailure(DualtetError):
    """No representative with the required determinant/trace exists."""


class BaseMismatch(DualtetError):
    """Tangent vectors are based at different points."""


class NotComparable(DualtetError):
    """No real arc length solves the distance equation for this pair."""


class DegenerateNormal(DualtetError):
    """A zero normal vector does not determine a plane."""


class NoIntersection(DualtetError):
    """The requested intersection is empty."""


class NotLightlike(DualtetError):
    """A lightlike plane or vector was required."""


class NoCommonPoint(DualtetError):
    """Pairwise intersections exist but no common point does."""


class NotSpacelikeConnected(DualtetError):
    """Boundary points are not pairwise joined by spacelike geodesics."""


class Degenerate(DualtetError):
    """A cross-ratio or configuration is degenerate."""


class WrongCausalClass(DualtetError):
    """Object has the wrong causal type for this operation."""


class Inadmissible(DualtetError):
    """Stabilizer parameters violate the admissibility condition."""


class NotATetrahedron(DualtetError):
    """The vertex set does not bound a valid tetrahedron."""


class ChartInversionFailure(DualtetError):
    """Membership chart could not be inverted numerically."""


class ToleranceNotReached(DualtetError):
    """Adaptive integration stopped before reaching the tolerance."""

    def __init__(self, value: float, err_est: float, message: str = "", *,
                 panels: int | None = None):
        self.value = value
        self.err_est = err_est
        self.panels = panels
        held = "" if panels is None else f" with {panels} panels"
        super().__init__(message or f"tolerance not reached{held} "
                                    f"(value={value!r}, err_est={err_est!r})")


class ConvergenceWarning(UserWarning):
    """Series evaluated outside its guaranteed convergence domain."""
