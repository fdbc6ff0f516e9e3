"""Lightlike tetrahedra of the constant-curvature Lorentzian 3-spaces, their
ideal duals, and both families' volumes.

The curvature tag lam in {-1, 0, +1} selects anti-de Sitter, Minkowski or
de Sitter space for the spacetime family ("X") and anti-de Sitter,
half-pipe or hyperbolic space for the dual family ("Y").  Everything is
built on 2x2 matrices over the 2d real algebra with l^2 = -lam.
"""

__version__ = "0.1.0"

from .errors import (
    ChartInversionFailure,
    ConvergenceWarning,
    Degenerate,
    DegenerateNormal,
    DomainError,
    DualtetError,
    Inadmissible,
    LambdaMismatch,
    NoCommonPoint,
    NoIntersection,
    NormalizationFailure,
    NotATetrahedron,
    NotComparable,
    NotLightlike,
    NotSpacelikeConnected,
    PoleAt,
    ToleranceNotReached,
    ZeroDivisor,
)
from .gcnum import (
    GC,
    analytic_continue,
    exp_ell,
    gacot,
    gatan,
    gc,
    gc_angle,
    gcos,
    gcot,
    gsin,
    gtan,
    polar,
)
from .matmodel import (
    Isometry,
    Mat2,
    Point,
    Tangent,
    SPACE_X,
    SPACE_Y,
    act,
    causal_type,
    embed,
    exp_point,
    involution,
    mat_exp_traceless,
    normalize_tangent,
    point_sqrt,
    quadric_value,
    tangent_metric,
    unembed,
)
from .geometry import (
    BoundaryPoint,
    Geodesic,
    Plane,
    arc_length,
    boundary_from_matrix,
    boundary_normalize,
    common_point_three_planes,
    cross_ratio,
    dualize,
    geodesic_from_tangent,
    geodesic_through,
    intersect_lightlike_planes,
    is_spacelike_connected,
    plane_from_normal,
    plane_through_points,
    spacelike_geodesic_to_plane_pair,
    stabilizer_angle,
    stabilizer_element,
    standard_light_normals,
)
from .tetrahedra import (
    EdgeData,
    Tetrahedron,
    contains,
    dualize_tet,
    edge_data,
    edge_symmetry,
    edge_symmetry_mapping,
    from_descriptor,
    ideal_from_angles,
    lightlike_from_angles,
    null_projection,
    opposite_edge_distance,
    recover_parameters,
    sample,
    standard_vertices,
    to_descriptor,
)
from .volumes import (
    VolumeReport,
    bernoulli,
    clausen,
    ideal_volume,
    lightlike_volume,
    lightlike_volume_series,
    volume_quadrature,
    volume_report,
)
