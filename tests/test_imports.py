"""The import surface: what `dualtet` exports, and which modules a process
loads before its first line of work."""

import importlib
import subprocess
import sys

import pytest

import dualtet
from dualtet import cli

# The public names, by home module, as the package exported them when its
# names became lazy.
PUBLIC = {
    "errors": {
        "ChartInversionFailure", "ConvergenceWarning", "Degenerate", "DegenerateNormal",
        "DomainError", "DualtetError", "Inadmissible", "LambdaMismatch", "NoCommonPoint",
        "NoIntersection", "NormalizationFailure", "NotATetrahedron", "NotComparable",
        "NotLightlike", "NotSpacelikeConnected", "PoleAt", "ToleranceNotReached",
        "ZeroDivisor",
    },
    "gcnum": {
        "GC", "analytic_continue", "exp_ell", "gacot", "gatan", "gc", "gc_angle", "gcos",
        "gcot", "gsin", "gtan", "polar",
    },
    "matmodel": {
        "Isometry", "Mat2", "Point", "Tangent", "SPACE_X", "SPACE_Y", "act", "causal_type",
        "embed", "exp_point", "involution", "mat_exp_traceless", "normalize_tangent",
        "point_sqrt", "quadric_value", "tangent_metric", "unembed",
    },
    "geometry": {
        "BoundaryPoint", "Geodesic", "Plane", "arc_length", "boundary_from_matrix",
        "boundary_normalize", "common_point_three_planes", "cross_ratio", "dualize",
        "geodesic_from_tangent", "geodesic_through", "intersect_lightlike_planes",
        "is_spacelike_connected", "plane_from_normal", "plane_through_points",
        "spacelike_geodesic_to_plane_pair", "stabilizer_angle", "stabilizer_element",
        "standard_light_normals",
    },
    "tetrahedra": {
        "EdgeData", "Tetrahedron", "contains", "dualize_tet", "edge_data", "edge_symmetry",
        "edge_symmetry_mapping", "from_descriptor", "ideal_from_angles",
        "lightlike_from_angles", "null_projection", "opposite_edge_distance",
        "recover_parameters", "sample", "standard_vertices", "to_descriptor",
    },
    "volumes": {
        "VolumeReport", "bernoulli", "clausen", "ideal_volume", "lightlike_volume",
        "lightlike_volume_series", "volume_quadrature", "volume_report",
    },
}
GEOMETRY_STACK = {"dualtet.geometry", "dualtet.matmodel", "dualtet.tetrahedra", "dualtet.verify"}


def test_public_names_resolve_to_their_home_modules():
    """Each name is its home module's object, bound in the package once
    that module is loaded, so that a lookup costs one dictionary hit."""
    assert len(dualtet.__all__) == len(set(dualtet.__all__))
    assert set(dualtet.__all__) == set().union(*PUBLIC.values())
    assert set(dualtet.__all__) <= set(dir(dualtet))
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"dualtet.{module}")
        for name in names:
            assert vars(dualtet)[name] is getattr(home, name), name


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'validate_angles'"):
        dualtet.validate_angles  # noqa: B018 - a domain check, not exported
    assert not hasattr(dualtet, "nope")
    namespace = {}
    exec("from dualtet import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(dualtet.__all__)


def child(*argv: str) -> tuple[str, set[str]]:
    """Stdout of a fresh interpreter run with `argv`, and the modules it
    imported, read off `-X importtime`, which logs each import to stderr."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True, check=True)
    return proc.stdout, {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                         if line.startswith("import time:")}


def test_version_loads_no_numpy_and_no_other_module():
    """`-m` runs `dualtet.cli` as `__main__`, so the package and its
    errors are the only `dualtet` modules imported."""
    out, got = child("-m", "dualtet.cli", "--version")
    assert out == f"dualtet {dualtet.__version__}\n"
    assert "numpy" not in got
    assert {m for m in got if m.startswith("dualtet")} == {"dualtet", "dualtet.errors"}


def test_volume_path_loads_no_geometry():
    _out, got = child("-c", "import dualtet.volumes")
    assert "dualtet.volumes" in got and not GEOMETRY_STACK & got


def test_verify_help_names_the_suites_without_loading_them():
    assert cli.SUITE_NAMES == tuple(importlib.import_module("dualtet.verify").SUITES)
    out, got = child("-m", "dualtet.cli", "verify", "--help")
    assert "numpy" not in got and "dualtet.verify" not in got
    assert ",".join(cli.SUITE_NAMES) in " ".join(out.split())
