"""Lightlike tetrahedra of the constant-curvature Lorentzian 3-spaces, their
ideal duals, and both families' volumes.

The curvature tag lam in {-1, 0, +1} selects anti-de Sitter, Minkowski or
de Sitter space for the spacetime family ("X") and anti-de Sitter,
half-pipe or hyperbolic space for the dual family ("Y").  Everything is
built on 2x2 matrices over the 2d real algebra with l^2 = -lam.
"""

__version__ = "0.1.0"

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

# Every public name, by the submodule that defines it.  `import dualtet`
# loads no submodule and no numpy: a submodule's names are bound here when
# it has been imported, by whatever code imports it first, and asking for
# a name whose submodule is not loaded yet imports it (PEP 562).
_EXPORTS = {
    "errors": (
        "ChartInversionFailure", "ConvergenceWarning", "Degenerate", "DegenerateNormal",
        "DomainError", "DualtetError", "Inadmissible", "LambdaMismatch", "NoCommonPoint",
        "NoIntersection", "NormalizationFailure", "NotATetrahedron", "NotComparable",
        "NotLightlike", "NotSpacelikeConnected", "PoleAt", "ToleranceNotReached",
        "ZeroDivisor",
    ),
    "gcnum": (
        "GC", "analytic_continue", "exp_ell", "gacot", "gatan", "gc", "gc_angle", "gcos",
        "gcot", "gsin", "gtan", "polar",
    ),
    "matmodel": (
        "Isometry", "Mat2", "Point", "Tangent", "SPACE_X", "SPACE_Y", "act", "causal_type",
        "embed", "exp_point", "involution", "mat_exp_traceless", "normalize_tangent",
        "point_sqrt", "quadric_value", "tangent_metric", "unembed",
    ),
    "geometry": (
        "BoundaryPoint", "Geodesic", "Plane", "arc_length", "boundary_from_matrix",
        "boundary_normalize", "common_point_three_planes", "cross_ratio", "dualize",
        "geodesic_from_tangent", "geodesic_through", "intersect_lightlike_planes",
        "is_spacelike_connected", "plane_from_normal", "plane_through_points",
        "spacelike_geodesic_to_plane_pair", "stabilizer_angle", "stabilizer_element",
        "standard_light_normals",
    ),
    "tetrahedra": (
        "EdgeData", "Tetrahedron", "contains", "dualize_tet", "edge_data", "edge_symmetry",
        "edge_symmetry_mapping", "from_descriptor", "ideal_from_angles",
        "lightlike_from_angles", "null_projection", "opposite_edge_distance",
        "recover_parameters", "sample", "standard_vertices", "to_descriptor",
    ),
    "volumes": (
        "VolumeReport", "bernoulli", "clausen", "ideal_volume", "lightlike_volume",
        "lightlike_volume_series", "volume_quadrature", "volume_report",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


class _Package(_ModuleType):
    def __setattr__(self, attr, value):
        # The import system sets each submodule on its package once the
        # submodule has run; binding its names then, as an eager import
        # would, keeps later lookups plain dictionary hits.
        super().__setattr__(attr, value)
        for name in _EXPORTS.get(attr, ()):
            super().__setattr__(name, getattr(value, name))


_sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
