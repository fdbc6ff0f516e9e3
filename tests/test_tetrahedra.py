import itertools
import math
import random

import numpy as np
import pytest

from dualtet import (
    BoundaryPoint,
    ChartInversionFailure,
    Degenerate,
    DomainError,
    DualtetError,
    GC,
    Isometry,
    Mat2,
    NoIntersection,
    NotATetrahedron,
    Plane,
    Point,
    Tangent,
    Tetrahedron,
    act,
    arc_length,
    contains,
    cross_ratio,
    dualize,
    dualize_tet,
    edge_data,
    edge_symmetry,
    edge_symmetry_mapping,
    exp_ell,
    from_descriptor,
    gacot,
    gc,
    gsin,
    gtan,
    ideal_from_angles,
    lightlike_from_angles,
    mat_exp_traceless,
    null_projection,
    opposite_edge_distance,
    plane_from_normal,
    polar,
    recover_parameters,
    sample,
    standard_vertices,
    to_descriptor,
)
from dualtet.errors import NormalizationFailure, NotSpacelikeConnected, ZeroDivisor
from dualtet.geometry import (
    _cross_ratio_from,
    _dual_kernel,
    boundary_from_matrix,
    boundary_normalize,
    common_point_three_planes,
    model_from_coords,
    plane_through_points,
)
from dualtet.gcnum import gc_angle
from dualtet.matmodel import _herm, embed, quadric_value
from dualtet.tetrahedra import (
    _canonical_triple_from_shape,
    _triple_kernels,
    _ideal_chart_inside,
    _light_chart_inside,
    _match_sets,
    _perm_isometries,
    pose_from_rows,
)
from conftest import LAMBDAS, random_isometry, random_point
from test_tools import _tool

V4_PERMS = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


# -- constructors -------------------------------------------------------------------


def test_lightlike_standard_vertex_display():
    for lam in LAMBDAS:
        a, b = 0.8, 0.55
        g = -(a + b)
        t = lightlike_from_angles(lam, a, b)
        zero = gc(0, 0, lam)
        x1 = Mat2(exp_ell(lam, a), gc(0, -2 * gsin(lam, a), lam), zero, exp_ell(lam, -a))
        x2 = Mat2(exp_ell(lam, b), zero, gc(0, 2 * gsin(lam, b), lam), exp_ell(lam, -b))
        x3 = Mat2(exp_ell(lam, -g), zero, zero, exp_ell(lam, g))
        assert t.vertex(1).isclose(Point("X", x1), 1e-12)
        assert t.vertex(2).isclose(Point("X", x2), 1e-12)
        assert t.vertex(3).isclose(Point("X", x3), 1e-12)
        assert t.vertex(4).isclose(Point.origin("X", lam))


def test_flat_third_vertex_is_dual_number_exponential():
    t = lightlike_from_angles(0, 1.0, 1.0)
    want = Mat2(gc(1, 2, 0), gc(0, 0, 0), gc(0, 0, 0), gc(1, -2, 0))
    assert t.vertex(3).isclose(Point("X", want), 1e-14)


def _log_uniform_cells(rng, lam, n, hi):
    """n parameter pairs log-uniform in [0.02, hi], redrawn at lam = 1
    until alpha + beta < pi."""
    out = []
    while len(out) < n:
        alpha, beta = np.exp(rng.uniform(math.log(0.02), math.log(hi), 2)).tolist()
        if lam != 1 or alpha + beta < math.pi:
            out.append((alpha, beta))
    return out


def _faces_through_plane_from_normal(t):
    """The faces built from `Tangent` normals at vertices 4 and 1 through
    `plane_from_normal`, then moved by the pose: the reference for the dual
    vectors `Tetrahedron.faces` writes down."""
    frame, lam = t.frame(), t.lam
    out = []
    for i, j in ((4, 1), (4, 2), (4, 3), (1, 4)):
        a = frame.a_iso(i)
        n = frame.n_dir(i, j)
        n = Tangent("X", n * (1.0 / math.sqrt(n.frob_sq())), a)
        out.append(plane_from_normal(act(a, Point.origin("X", lam)), n).moved(t.pose))
    return out


def test_all_faces_are_lightlike(rng):
    for lam in LAMBDAS:
        t = lightlike_from_angles(lam, 0.7, 0.45, random_isometry(rng, lam))
        for f in t.faces():
            assert f.is_lightlike()


def test_faces_contain_their_vertices(rng):
    for lam in LAMBDAS:
        t = lightlike_from_angles(lam, 0.6, 0.8, random_isometry(rng, lam))
        faces = t.faces()
        for j, face in enumerate(faces, start=1):
            for i in (1, 2, 3, 4):
                assert face.contains(t.vertex(i), 1e-8) == (i != j)
    # Over log-uniform cells the faces are those of the route through
    # `plane_from_normal`, and each contains its three vertices.
    for lam in LAMBDAS:
        for alpha, beta in _log_uniform_cells(rng, lam, 20, 6.0):
            t = lightlike_from_angles(lam, alpha, beta, random_isometry(rng, lam))
            faces = t.faces()
            for j, (face, want) in enumerate(zip(faces, _faces_through_plane_from_normal(t)), 1):
                assert face.projectively_equal(want), (lam, alpha, beta, j)
                for i in {1, 2, 3, 4} - {j}:
                    assert face.contains(t.vertex(i), 1e-8), (lam, alpha, beta, i, j)


def test_ideal_standard_vertices():
    for lam in LAMBDAS:
        a, b = 0.8, 0.55
        t = ideal_from_angles(lam, a, b)
        assert t.vertex(1).isclose(BoundaryPoint.infinity(lam))
        assert t.vertex(2).isclose(BoundaryPoint.zero(lam))
        assert t.vertex(3).isclose(BoundaryPoint.one(lam))
        z = -exp_ell(lam, t.gamma) * (gsin(lam, b) / gsin(lam, a))
        assert t.vertex(4).isclose(BoundaryPoint.from_value(z))
        m = t.vertex(1).matrix()
        assert m.isclose(Mat2(gc(1, 0, lam), gc(0, 0, lam), gc(0, 0, lam), gc(0, 0, lam)))


def test_domain_errors():
    with pytest.raises(DomainError):
        lightlike_from_angles(0, -0.1, 0.5)
    with pytest.raises(DomainError):
        lightlike_from_angles(1, 2.0, 2.0)
    with pytest.raises(DomainError):
        ideal_from_angles(1, 2.0, 2.0)
    with pytest.raises(DomainError):
        lightlike_from_angles(1, 1.5, math.pi - 1.5)  # boundary case rejected


# -- edge data ---------------------------------------------------------------------


def test_edge_values_and_shape_parameters():
    for lam in LAMBDAS:
        a, b = 0.9, 0.4
        g = -(a + b)
        t = lightlike_from_angles(lam, a, b)
        table = {e.edge: e for e in edge_data(t)}
        assert table[(1, 2)].value == pytest.approx(a + b)
        assert table[(3, 4)].value == pytest.approx(a + b)
        assert table[(3, 1)].value == pytest.approx(b)
        assert table[(2, 4)].value == pytest.approx(b)
        assert table[(2, 3)].value == pytest.approx(a)
        assert table[(1, 4)].value == pytest.approx(a)
        z12 = -exp_ell(lam, g) * (gsin(lam, b) / gsin(lam, a))
        assert table[(1, 2)].z.isclose(z12, 1e-12)
        assert table[(3, 4)].z.isclose(z12, 1e-12)
        z31 = -exp_ell(lam, b) * (gsin(lam, a) / gsin(lam, g))
        assert table[(3, 1)].z.isclose(z31, 1e-12)
        z23 = -exp_ell(lam, a) * (gsin(lam, g) / gsin(lam, b))
        assert table[(2, 3)].z.isclose(z23, 1e-12)


def test_adjacent_shape_parameter_relations(rng):
    one = {lam: gc(1, 0, lam) for lam in LAMBDAS}
    for lam in LAMBDAS:
        a, b = rng.uniform(0.2, 1.2, 2)
        t = lightlike_from_angles(lam, a, b)
        table = {e.edge: e.z for e in edge_data(t)}
        z, zp, zpp = table[(1, 2)], table[(3, 1)], table[(2, 3)]
        assert zp.isclose((one[lam] - z).inv(), 1e-10)
        assert zpp.isclose((z - one[lam]) * z.inv(), 1e-10)
        prod = z * zp * zpp
        assert prod.isclose(-one[lam], 1e-10)


def test_symmetric_tetrahedron_has_unit_modulus_and_zero_angle():
    for lam in LAMBDAS:
        t = lightlike_from_angles(lam, 0.8, 0.8)
        e12 = edge_data(t)[0]
        assert e12.mod_z == pytest.approx(1.0)
        assert e12.phi == pytest.approx(0.0, abs=1e-12)


def test_edge_data_far_into_anti_de_sitter_is_exact():
    # split-complex |z|^2 = re^2 - im^2 cancels here; the sine ratio does not
    a = b = 10.0
    table = {e.edge: e for e in edge_data(ideal_from_angles(-1, a, b))}
    ratios = {(1, 2): math.sinh(b) / math.sinh(a),
              (3, 1): math.sinh(a) / math.sinh(-(a + b)),
              (2, 3): math.sinh(-(a + b)) / math.sinh(b)}
    for edge, ratio in ratios.items():
        e = table[edge]
        assert math.isfinite(e.mod_z) and math.isfinite(e.phi)
        assert e.mod_z == pytest.approx(abs(ratio), rel=1e-12)
        assert e.sigma == (1 if ratio > 0 else -1)


def test_regular_circular_ideal_shape_parameter():
    t = ideal_from_angles(1, math.pi / 3, math.pi / 3)
    e12 = edge_data(t)[0]
    assert e12.mod_z == pytest.approx(1.0, abs=1e-12)
    want = exp_ell(1, math.pi / 3)
    assert e12.z.isclose(want, 1e-12)


def test_lorentz_angle_from_null_projections(rng):
    # The internal planes at an edge meet the claimed angle: rebuild them from
    # the null projections and compare unit-normal inner products.
    from dualtet import plane_through_points, tangent_metric

    for lam in LAMBDAS:
        a, b = 0.7, 0.5
        t = lightlike_from_angles(lam, a, b)
        table = {e.edge: e for e in edge_data(t)}
        for edge, opp in (((1, 2), (3, 4)), ((2, 3), (1, 4))):
            i, j = edge
            pi_i = null_projection(t, i, opp)
            pi_j = null_projection(t, j, opp)
            pl1 = plane_through_points(t.vertex(i), t.vertex(j), pi_i)
            pl2 = plane_through_points(t.vertex(i), t.vertex(j), pi_j)
            base = t.vertex(i)
            n1 = pl1.normal_at_point(base)
            n2 = pl2.normal_at_point(base)
            n1, n2 = n1.normalized(), n2.normalized()
            cosh_phi = abs(tangent_metric(n1, n2))
            assert cosh_phi == pytest.approx(math.cosh(table[edge].phi), abs=1e-8)


# -- opposite-edge distances ---------------------------------------------------------


def test_flat_midpoint_distance_squared():
    t = lightlike_from_angles(0, 1.0, 1.0)
    sig, d = opposite_edge_distance(t, 3, 0.0, 0.0)
    assert sig == -1
    assert d * d == pytest.approx(1.0)


def test_longest_pair_is_timelike_all_curvatures():
    for lam in LAMBDAS:
        t = lightlike_from_angles(lam, 0.6, 0.9)
        sig, _ = opposite_edge_distance(t, 3, 0.0, 0.0)
        assert sig == -1
        for i in (1, 2):
            sig, _ = opposite_edge_distance(t, i, 0.05, -0.04)
            assert sig == 1


def test_opposite_edge_distance_matches_arc_length_oracle(rng):
    for lam in LAMBDAS:
        a, b = 0.8, 0.5
        al = {1: a, 2: b, 3: -(a + b)}
        t = lightlike_from_angles(lam, a, b)
        for i in (1, 2, 3):
            j, k = sorted({1, 2, 3} - {i})
            for _ in range(6):
                half = 0.45 * abs(al[i])
                s, u = rng.uniform(-half, half, 2)
                sig, d = opposite_edge_distance(t, i, s, u)
                p = t.edge_geodesic(4, i).eval(al[i] / 2 + s)
                q = t.edge_geodesic(j, k).eval(al[i] / 2 + u)
                sig2, d2 = arc_length(p, q)
                assert sig2 == sig, (lam, i, s, u)
                assert d2 == pytest.approx(d, abs=1e-9)


def test_offsets_out_of_range():
    t = lightlike_from_angles(0, 1.0, 0.5)
    with pytest.raises(DomainError):
        opposite_edge_distance(t, 1, 0.6, 0.0)


# -- null projections ----------------------------------------------------------------


def _on_geodesic(g, p, lam):
    sig, d = arc_length(g.eval(0.0), p)
    hits = [g.eval(s) for s in (d, -d)]
    if lam == 1:
        hits += [g.eval(math.pi - d), g.eval(d - math.pi)]
    return any(h.isclose(p, 1e-7) for h in hits)


def test_null_projection_values_and_membership(rng):
    from dualtet import Geodesic

    for lam in LAMBDAS:
        a, b = 0.7, 0.4
        al = {1: a, 2: b, 3: -(a + b), 4: 0.0}
        t = lightlike_from_angles(lam, a, b)
        frame = t.frame()
        for i, edge in ((1, (4, 2)), (2, (4, 3)), (3, (4, 1)), (4, (1, 2)),
                        (4, (2, 3)), (1, (2, 3)), (2, (1, 3)), (3, (1, 2))):
            p = null_projection(t, i, edge)
            k, l = sorted(edge)
            if l == 4:
                k, l = 4, k
            g = t.edge_geodesic(k if k != 4 else 4, l)
            assert _on_geodesic(g, p, lam), (lam, i, edge)
            # p also lies on the lightlike geodesic through x_i inside the
            # face opposite the remaining vertex j
            j = ({1, 2, 3, 4} - {i, *edge}).pop()
            n_dir = frame.n_dir(i, j)
            n_geo = Geodesic("X", t.pose @ frame.a_iso(i), n_dir, 0)
            q = act(t.pose.inv(), p)
            m = act(frame.a_iso(i).inv(), q).rep
            s_part = m.traceless()
            cross = s_part @ n_dir.adj()
            assert abs(cross.traceless().frob_sq()) <= 1e-14 * max(1.0, s_part.frob_sq())


def test_null_projection_rejects_vertex_on_edge():
    t = lightlike_from_angles(0, 1.0, 0.5)
    with pytest.raises(NoIntersection):
        null_projection(t, 1, (1, 2))


# -- edge symmetries ------------------------------------------------------------------


def test_lightlike_edge_symmetry_moves_endpoints(rng):
    for lam in LAMBDAS:
        t = lightlike_from_angles(lam, 0.75, 0.5, random_isometry(rng, lam))
        for (i, j) in itertools.permutations((1, 2, 3, 4), 2):
            iso = edge_symmetry(t, (i, j))
            assert act(iso, t.vertex(i)).isclose(t.vertex(j), 1e-8), (lam, i, j)


def test_lightlike_edge_symmetry_fixes_edge_setwise(rng):
    for lam in LAMBDAS:
        t = lightlike_from_angles(lam, 0.75, 0.5)
        iso = edge_symmetry(t, (1, 2))
        g = t.edge_geodesic(1, 2)
        for s in (-0.4, 0.3):
            assert _on_geodesic(g, act(iso, g.eval(s)), lam)


def _ideal_edge_symmetry_by_trial(t, i, j):
    """The ideal edge symmetry and (k, l) found by trying both orders of the
    opposite vertices until the cross-ratio matches the edge's shape
    parameter: the reference for the order the labels fix."""
    z_target = next(e.z for e in edge_data(t) if set(e.edge) == {i, j})
    k, l = sorted({1, 2, 3, 4} - {i, j})
    for kk, ll in ((k, l), (l, k)):
        b = boundary_normalize(t.vertex(i), t.vertex(j), t.vertex(kk))
        z = _cross_ratio_from(b, t.vertex(ll))
        if z.isclose(z_target, 1e-7):
            b = b.inv()
            core = Mat2(z, gc(0, 0, t.lam), gc(0, 0, t.lam), gc(1, 0, t.lam))
            return b @ Isometry(core) @ b.inv(), kk, ll
    raise NotATetrahedron("edge shape parameter does not match any vertex labeling")


def test_ideal_edge_symmetry(rng):
    for lam in LAMBDAS:
        t = ideal_from_angles(lam, 0.75, 0.5, random_isometry(rng, lam))
        for (i, j) in itertools.permutations((1, 2, 3, 4), 2):
            iso = edge_symmetry(t, (i, j))
            k, l = edge_symmetry_mapping(t, (i, j))
            assert act(iso, t.vertex(i)).isclose(t.vertex(i), 1e-8)
            assert act(iso, t.vertex(j)).isclose(t.vertex(j), 1e-8)
            assert act(iso, t.vertex(k)).isclose(t.vertex(l), 1e-8), (lam, i, j)
    # The labels fix the order of the opposite vertices: wherever trying both
    # orders finds the symmetry, it is the same isometry, bit for bit.
    compared = total = 0
    for lam in LAMBDAS:
        for alpha, beta in _log_uniform_cells(rng, lam, 8, 6.0):
            t = ideal_from_angles(lam, alpha, beta, random_isometry(rng, lam))
            for (i, j) in itertools.permutations((1, 2, 3, 4), 2):
                total += 1
                try:
                    want, k, l = _ideal_edge_symmetry_by_trial(t, i, j)
                except DualtetError:
                    continue
                compared += 1
                assert edge_symmetry(t, (i, j)).rep.flat == want.rep.flat, (lam, alpha, beta, i, j)
                assert edge_symmetry_mapping(t, (i, j)) == (k, l), (lam, alpha, beta, i, j)
    assert compared >= 0.9 * total
    # At lam = -1 and alpha + beta = 7 the vertices carry the shape
    # parameter in their null components: the labels give the order, and
    # the symmetry holds.
    t = ideal_from_angles(-1, 1.0, 6.0)
    assert edge_symmetry_mapping(t, (3, 2)) == (4, 1)
    iso = edge_symmetry(t, (3, 2))
    for k, l in ((3, 3), (2, 2), (4, 1)):
        assert act(iso, t.vertex(k)).isclose(t.vertex(l), 1e-8), (k, l)


# -- duality -----------------------------------------------------------------------


def test_dual_of_standard_lightlike_is_standard_ideal():
    for lam in LAMBDAS:
        t = lightlike_from_angles(lam, 0.65, 0.35)
        d = dualize_tet(t)
        assert d.kind == "ideal"
        assert d.alpha == pytest.approx(0.65, abs=1e-10)
        assert d.beta == pytest.approx(0.35, abs=1e-10)
        std = standard_vertices("ideal", lam, d.alpha, d.beta)
        for v, w in zip(d.vertices, std):
            assert v.isclose(w, 1e-8)


def test_duality_is_involutive_with_pose(rng):
    for lam in LAMBDAS:
        for kind in ("lightlike", "ideal"):
            t = Tetrahedron(kind, lam, 0.85, 0.4, random_isometry(rng, lam))
            dd = dualize_tet(dualize_tet(t))
            assert dd.kind == kind
            assert dd.alpha == pytest.approx(t.alpha, abs=1e-8)
            assert dd.beta == pytest.approx(t.beta, abs=1e-8)
            for v, w in zip(t.vertices, dd.vertices):
                assert v.isclose(w, 1e-6)


def _swap_conjugate(pose):
    """S A S for A the pose and S = [[0, 1], [1, 0]], from the entries."""
    r = pose.rep
    return Isometry(Mat2(r.d, r.c, r.b, r.a))


def test_dual_pose_is_swap_conjugate_of_pose():
    """Duality carries the action of A on one family to that of S A S on the
    other, S = [[0, 1], [1, 0]], so the dual tetrahedron's pose is S A S."""
    rng = np.random.default_rng(61)
    for lam in LAMBDAS:
        for kind in ("lightlike", "ideal"):
            for _ in range(6):
                a, b = rng.uniform(0.15, 1.2, 2)
                pose = random_isometry(rng, lam)
                d = dualize_tet(Tetrahedron(kind, lam, a, b, pose))
                assert d.pose.projectively_equal(_swap_conjugate(pose), 1e-8)


def test_dual_of_ideal_is_incident_with_its_vertices():
    """Each vertex i of the dual of an ideal tetrahedron lies on the planes
    dual to the three ideal vertices j != i: the pairing vanishes relative
    to the norms of the two vectors.  The bound is the worst such residual
    of the kernel route, which built this dual from those vertices, over
    9,000 cells drawn as here: 3.7e-11, at lam = 0."""
    rng = np.random.default_rng(1717)
    for lam in LAMBDAS:
        for _ in range(40):
            while True:
                alpha, beta = np.exp(rng.uniform(math.log(0.02), math.log(6.0), 2))
                if lam != 1 or alpha + beta < math.pi:
                    break
            t = ideal_from_angles(lam, float(alpha), float(beta), random_isometry(rng, lam))
            d = dualize_tet(t)
            planes = [dualize(w) for w in t.vertices]
            for i, v in enumerate(d.vertices):
                for j, plane in enumerate(planes):
                    if j != i:
                        assert plane.contains(v, 4e-11), (lam, alpha, beta, i, j)


def test_edge_lengths_equal_dual_dihedral_angles(rng):
    for lam in LAMBDAS:
        for a in (0.3, 0.7, 1.1):
            for b in (0.25, 0.6):
                t = lightlike_from_angles(lam, a, b)
                d = dualize_tet(t)
                got = {e.edge: e.value for e in edge_data(d)}
                want = {e.edge: e.value for e in edge_data(t)}
                assert got == pytest.approx(want)


# -- recovery ----------------------------------------------------------------------


def test_recover_standard(rng):
    for lam in LAMBDAS:
        for kind in ("lightlike", "ideal"):
            t = Tetrahedron(kind, lam, 0.9, 0.3)
            pose, a, b = recover_parameters(t.vertices, kind, lam)
            assert (a, b) == (pytest.approx(0.9, abs=1e-10), pytest.approx(0.3, abs=1e-10))
            assert pose.projectively_equal(Isometry.identity(lam))


def test_recover_under_pose_and_permutation(rng):
    random.seed(11)
    for lam in LAMBDAS:
        for kind in ("lightlike", "ideal"):
            for _ in range(8):
                a, b = rng.uniform(0.2, 1.2, 2)
                if lam == 1 and a + b >= math.pi - 0.2:
                    continue
                iso = random_isometry(rng, lam)
                t = Tetrahedron(kind, lam, a, b, iso)
                pose, ra, rb = recover_parameters(t.vertices, kind, lam)
                assert ra == pytest.approx(a, abs=1e-9)
                assert rb == pytest.approx(b, abs=1e-9)
                assert pose.projectively_equal(iso, 1e-7)
                if lam == 1:
                    perm = random.choice(V4_PERMS)
                else:
                    perm = list(range(4))
                    random.shuffle(perm)
                verts = [t.vertices[i] for i in perm]
                _pose2, ra2, rb2 = recover_parameters(verts, kind, lam)
                assert sorted((ra2, rb2)) == pytest.approx(sorted((a, b)), abs=1e-9)


def test_recover_rejects_garbage(rng):
    pts = [random_point(rng, "X", 0) for _ in range(4)]
    with pytest.raises(NotATetrahedron):
        recover_parameters(pts, "lightlike", 0)


def test_recover_rejects_degenerate_boundary():
    lam = -1
    bad = [BoundaryPoint.infinity(lam), BoundaryPoint.zero(lam), BoundaryPoint.one(lam),
           BoundaryPoint.from_value(GC(1.0, 1.0, lam))]
    with pytest.raises(NotATetrahedron):
        recover_parameters(bad, "ideal", lam)


def test_random_boundary_tuples_recover_or_raise_not_a_tetrahedron():
    """Random boundary 4-tuples either recover or raise NotATetrahedron.  At
    lam = -1 some triples have no normalizing isometry (|det|^2 < 0), and
    that NormalizationFailure surfaces as NotATetrahedron too."""
    rng = np.random.default_rng(11)
    unnormalizable = 0
    for lam in LAMBDAS:
        for _ in range(300):
            verts = [BoundaryPoint.from_value(GC(*rng.normal(size=2), lam)) for _ in range(4)]
            try:
                recover_parameters(verts, "ideal", lam)
            except NotATetrahedron as exc:
                assert lam == -1, verts
                unnormalizable += isinstance(exc.__cause__, NormalizationFailure)
    assert unnormalizable > 0


# -- membership ---------------------------------------------------------------------


def _cone_coefficients(t: Tetrahedron, p: Point) -> np.ndarray:
    """Coordinates of a point in the basis of lifted standard vertices
    (independent membership oracle: all components share one sign)."""
    std = standard_vertices("lightlike", t.lam, t.alpha, t.beta)
    lift = np.array([v.vector() for v in std]).T
    q = act(t.pose.inv(), p)
    return np.linalg.solve(lift, q.vector())


def test_vertices_and_samples_are_contained(rng):
    for lam in LAMBDAS:
        for kind in ("lightlike", "ideal"):
            t = Tetrahedron(kind, lam, 0.8, 0.6, random_isometry(rng, lam))
            if kind == "lightlike":
                for v in t.vertices:
                    assert contains(t, v)
            for p in sample(t, 25, seed=3):
                assert contains(t, p), (lam, kind)


def test_contains_agrees_with_convex_cone_oracle(rng):
    for lam in LAMBDAS:
        t = lightlike_from_angles(lam, 0.8, 0.6, random_isometry(rng, lam))
        agree = 0
        for _ in range(60):
            p = random_point(rng, "X", lam)
            coeff = _cone_coefficients(t, p)
            cone = bool(np.all(coeff > -1e-9) or np.all(coeff < 1e-9))
            got = contains(t, p)
            if lam == 1 and cone != got:
                # the cone test sees the projective double cover; skip the
                # antipodal sheet disagreement
                continue
            assert got == cone, (lam, coeff)
            agree += 1
        assert agree > 40


def test_points_inside_by_cone_are_contained(rng):
    for lam in LAMBDAS:
        t = lightlike_from_angles(lam, 0.8, 0.6)
        std = standard_vertices("lightlike", lam, 0.8, 0.6)
        lift = np.array([v.vector() for v in std]).T
        for _ in range(40):
            w = rng.dirichlet(np.ones(4))
            p = Point.from_vector(lift @ w, "X", lam)
            assert contains(t, p, 1e-8), (lam, w)


def test_point_slightly_beyond_chart_radius_not_contained():
    from dualtet.tetrahedra import _light_chart_point, _light_chart_r

    for lam in LAMBDAS:
        t = lightlike_from_angles(lam, 0.8, 0.6)
        a, b = 0.25, 0.3
        rmax = _light_chart_r(t, a, b)
        inside = _light_chart_point(t, 0.999 * rmax, a, b)
        outside = _light_chart_point(t, min(1.02 * rmax, rmax + 0.05), a, b)
        assert contains(t, inside)
        assert not contains(t, outside)


# -- serialization -------------------------------------------------------------------


def test_descriptor_round_trip(rng):
    import json

    for lam in LAMBDAS:
        for kind in ("lightlike", "ideal"):
            t = Tetrahedron(kind, lam, 0.77, 0.31, random_isometry(rng, lam))
            blob = json.dumps(to_descriptor(t), sort_keys=True)
            t2 = from_descriptor(json.loads(blob))
            blob2 = json.dumps(to_descriptor(t2), sort_keys=True)
            assert blob == blob2
            for v, w in zip(t.vertices, t2.vertices):
                assert v.isclose(w, 1e-12)


def test_ideal_chart_breakdown_is_reported():
    from dualtet import ChartInversionFailure

    p = Point("Y", Mat2(gc(1, 0, -1), gc(0, 1, -1), gc(0, -1, -1), gc(0, 0, -1)))
    t = ideal_from_angles(-1, 0.7, 0.5)
    with pytest.raises(ChartInversionFailure):
        contains(t, p)


def test_ideal_cross_ratio_equals_first_edge_shape(rng):
    for lam in LAMBDAS:
        t = ideal_from_angles(lam, *rng.uniform(0.2, 1.2, 2))
        z = cross_ratio(*t.vertices)
        assert z.isclose(edge_data(t)[0].z, 1e-11)


def test_lightlike_edge_symmetry_preserves_adjacent_null_planes():
    for lam in LAMBDAS:
        t = lightlike_from_angles(lam, 0.75, 0.5)
        faces = t.faces()
        for (i, j) in ((1, 2), (3, 4), (2, 3), (1, 4), (3, 1), (2, 4)):
            iso = edge_symmetry(t, (i, j))
            for m in sorted({1, 2, 3, 4} - {i, j}):
                face = faces[m - 1]
                assert face.moved(iso).projectively_equal(face, 1e-7), (lam, i, j, m)


def test_ideal_shearing_distance_matches_projection_arc_length():
    from dualtet import boundary_normalize

    for lam in LAMBDAS:
        for a, b in ((0.75, 0.5), (0.3, 1.1)):
            t = ideal_from_angles(lam, a, b)
            phi = {e.edge: e.phi for e in edge_data(t)}
            y = {i: t.vertex(i) for i in (1, 2, 3, 4)}
            # feet of the perpendiculars from the opposite vertices onto e12
            b12 = boundary_normalize(y[1], y[2], y[3]).inv()
            b21 = boundary_normalize(y[2], y[1], y[4]).inv()
            p3 = act(b12, Point.origin("Y", lam))
            p4 = act(b21, Point.origin("Y", lam))
            sig, d = arc_length(p3, p4)
            assert sig == 1
            assert d == pytest.approx(phi[(1, 2)], abs=1e-10)


def test_sample_is_deterministic_per_seed(rng):
    for kind in ("lightlike", "ideal"):
        t = Tetrahedron(kind, -1, 0.8, 0.6)
        one = sample(t, 10, seed=7)
        two = sample(t, 10, seed=7)
        assert all(p.isclose(q, 1e-15) for p, q in zip(one, two))
        other = sample(t, 10, seed=8)
        assert not all(p.isclose(q, 1e-9) for p, q in zip(one, other))


# -- sampling and membership against the per-point chart route -----------------------


def _ref_light_chart_r(t, a, b):
    lam = t.lam
    norm = max(math.sqrt(max(1.0 - 4.0 * a * b, 0.0)), 1e-15)
    num = (a / gtan(lam, t.alpha) + b / gtan(lam, t.beta)
           + (a + b - 1.0) / gtan(lam, t.gamma))
    try:
        return gacot(lam, num / norm)
    except DomainError as exc:
        raise ChartInversionFailure(f"chart radius undefined at ({a}, {b}): {exc}") from exc


def _ref_light_chart_point(t, r, a, b):
    norm = math.sqrt(max(1.0 - 4.0 * a * b, 1e-300))
    xhat = model_from_coords("X", (1.0, -2.0 * a, 2.0 * b), t.lam) * (1.0 / norm)
    return act(t.pose, Point("X", mat_exp_traceless(xhat * r)))


def _ref_ideal_chart_limits(t, theta):
    lam = t.lam
    return (gsin(lam, t.beta) / gsin(lam, t.alpha)) * (gsin(lam, t.gamma)
                                                       / gsin(lam, theta - t.beta))


def _ref_ideal_chart_tmin(t, r, theta):
    lam = t.lam
    val = gsin(lam, theta - t.gamma) / gsin(lam, t.alpha) * r - r * r
    return math.sqrt(max(val, 0.0))


def _ref_ideal_chart_point(t, theta, r, tval):
    z = exp_ell(t.lam, theta - t.beta) * r - exp_ell(t.lam, t.gamma) * (
        gsin(t.lam, t.beta) / gsin(t.lam, t.alpha))
    mat = Mat2(
        GC((tval * tval + z.mod_sq()) / tval, 0, t.lam),
        z * (1.0 / tval),
        z.conj() * (1.0 / tval),
        GC(1.0 / tval, 0, t.lam),
    )
    return act(t.pose, Point("Y", mat))


def _ref_chart_coords(t, n, seed):
    """Chart coordinates of the points of `sample(t, n, seed)`, one draw
    call per coordinate: (r, a, b) of the lightlike chart, (theta, r, tval)
    of the ideal one."""
    rng = np.random.default_rng(seed)
    out = []
    if t.kind == "lightlike":
        while len(out) < n:
            a, b = rng.random(2)
            if a + b > 1.0:
                a, b = 1.0 - a, 1.0 - b
            out.append((rng.random() * _ref_light_chart_r(t, a, b), a, b))
        return out
    while len(out) < n:
        theta = -t.alpha * rng.random()
        r = rng.random() * _ref_ideal_chart_limits(t, theta)
        u = rng.random()
        out.append((theta, r, (_ref_ideal_chart_tmin(t, r, theta) + 1e-9) / max(u, 1e-9)))
    return out


def _ref_sample(t, n, seed):
    """`sample` as it was written before the chart constants were cached and
    the pose's action carried determinants: one chain of `Mat2`s and
    `Point`s per point, each recomputing its determinant."""
    chart = _ref_light_chart_point if t.kind == "lightlike" else _ref_ideal_chart_point
    return [chart(t, *coords) for coords in _ref_chart_coords(t, n, seed)]


def _ref_contains(t, p, tol=1e-9):
    """`contains` as it was written before the chart constants were cached
    and the pose's action carried determinants."""
    lam = t.lam
    if t.kind == "lightlike":
        if p.space != "X" or p.lam != lam:
            raise DomainError("point lives in the wrong space")
        m = act(t.pose.inv(), p).rep
        scale = math.sqrt(m.frob_sq())
        s_part = m.traceless()
        if math.sqrt(s_part.frob_sq()) <= tol * scale:
            return True
        if s_part.flat[1] < 0:
            m, s_part = -m, -s_part
        c = 0.5 * (m.flat[0] + m.flat[6])
        m1, m2, m3 = s_part.flat[1], s_part.flat[3], s_part.flat[5]
        if m1 <= tol * scale:
            return False
        a, b = -m2 / (2.0 * m1), m3 / (2.0 * m1)
        if a < -tol or b < -tol or a + b > 1.0 + tol:
            return False
        s_val = m1 * math.sqrt(max(1.0 - 4.0 * a * b, 0.0))
        if lam == 1:
            r = math.atan2(s_val, c)
        else:
            if c < 0:
                return False
            r = math.asinh(s_val) if lam == -1 else s_val
        if r < -tol:
            return False
        rmax = _ref_light_chart_r(t, min(max(a, 0.0), 1.0), min(max(b, 0.0), 1.0))
        return r <= rmax + tol * (1.0 + abs(rmax))
    if p.space != "Y" or p.lam != lam:
        raise DomainError("point lives in the wrong space")
    q = act(t.pose.inv(), p)
    m = q.rep if q.rep.flat[6] > 0 else -q.rep
    _a_re, _a_im, b_re, b_im, _c_re, _c_im, d_re, d_im = m.flat
    if abs(d_re) <= 1e-12 * math.sqrt(m.frob_sq()) or abs(d_im) > 1e-9 * math.sqrt(m.frob_sq()):
        raise ChartInversionFailure("horospherical chart breaks down at this point")
    tval = 1.0 / d_re
    z = GC(b_re * tval, b_im * tval, lam)
    w = z + exp_ell(lam, t.gamma) * (gsin(lam, t.beta) / gsin(lam, t.alpha))
    wnorm = math.hypot(w.re, w.im)
    if wnorm <= tol:
        return tval >= -tol
    if lam == 1:
        r = wnorm
        theta = math.remainder(math.atan2(w.im, w.re) + t.beta, 2.0 * math.pi)
    else:
        try:
            r, phi = polar(w)
        except Exception:
            return False
        if r < 0:
            return False
        theta = phi + t.beta
    if not (-t.alpha - tol <= theta <= tol):
        return False
    rmax = _ref_ideal_chart_limits(t, theta)
    if r > rmax + tol * max(1.0, rmax):
        return False
    return tval >= _ref_ideal_chart_tmin(t, r, theta) - tol


def _hex_or_error(fn, *args):
    """The result with every number as float.hex, or the error class raised."""
    try:
        out = fn(*args)
    except DualtetError as exc:
        return type(exc)
    if isinstance(out, list):
        return [[p.space] + [float.hex(float(x)) for x in p.rep.flat] for p in out]
    return bool(out)


def _chart_probes(t, rng):
    """Chart points just inside and just outside the tetrahedron, built by
    the reference chart; a draw on which the chart breaks down is skipped."""
    points = []
    for _ in range(6):
        try:
            if t.kind == "lightlike":
                a, b = rng.uniform(0.0, 0.5, 2)
                rmax = _ref_light_chart_r(t, a, b)
                points += [_ref_light_chart_point(t, f * rmax, a, b) for f in (0.5, 0.999, 1.02)]
            else:
                theta = -t.alpha * rng.uniform(0.05, 0.95)
                rmax = _ref_ideal_chart_limits(t, theta)
                tmin = _ref_ideal_chart_tmin(t, 0.5 * rmax, theta)
                points += [_ref_ideal_chart_point(t, th, r, tv) for th, r, tv in (
                    (theta, 0.5 * rmax, 2.0 * tmin + 0.1), (theta, 1.05 * rmax, 1.0),
                    (theta, 0.5 * rmax, 0.5 * tmin), (0.1, 0.5 * rmax, 1.0),
                    (-t.alpha - 0.1, 0.5 * rmax, 1.0), (theta, 0.0, 1.0))]
        except DualtetError:
            continue
    return points


def _exact_contains(mpref, t, p, tol=1e-9):
    """The chart inverted on the 50-digit pull-back of p, rounded to doubles."""
    if p.space != t.space:
        return DomainError
    ref = mpref.pull_back(t.pose.rep.flat, t.lam, t.space, p.rep.flat)
    inside = _light_chart_inside if t.kind == "lightlike" else _ideal_chart_inside
    return _hex_or_error(inside, t, _herm(tuple(float(x) for x in ref), t.space), tol)


def test_sample_and_contains_match_per_point_reference():
    """Every sample point lies within 1e-11 of the 50-digit chart point at
    its chart coordinates, relative to its size (the route that recomputed
    determinants lost up to 1e-4 here), and raises where that route raised.
    `contains` answers as that route does, except on probes where the
    decision on the exact pull-back sides with it: one distinct probe on
    this draw (at lam = -1, alpha + beta = 2.98, the ideal chart point of
    r = 0 and t = 1, which the route before called inside)."""
    mpref = _tool("mpref")
    rng = np.random.default_rng(4242)
    seen = {True: 0, False: 0, "raises": 0}
    sided_with_exact = set()
    for lam in LAMBDAS:
        for kind in ("lightlike", "ideal"):
            space, other = ("X", "Y") if kind == "lightlike" else ("Y", "X")
            for _ in range(6):
                while True:
                    alpha, beta = np.exp(rng.uniform(math.log(0.02), math.log(6.0), 2))
                    if lam != 1 or alpha + beta < math.pi:
                        break
                t = Tetrahedron(kind, lam, float(alpha), float(beta), random_isometry(rng, lam))
                cell = (lam, kind, float(alpha), float(beta))
                seed = int(rng.integers(2**31 - 1))
                want = _hex_or_error(_ref_sample, t, 20, seed)
                if isinstance(want, type):
                    assert _hex_or_error(sample, t, 20, seed) == want, cell
                    points = []
                else:
                    coords = _ref_chart_coords(t, 20, seed)
                    for p, c in zip(sample(t, 20, seed), coords, strict=True):
                        ref = mpref.chart_point(kind, lam, t.alpha, t.beta, t.pose.rep.flat, c)
                        assert mpref.rel_error(p.rep.flat, ref) <= 1e-11, (cell, c)
                    points = _ref_sample(t, 20, seed)
                points += _chart_probes(t, rng)
                points += [random_point(rng, space, lam) for _ in range(20)]
                points += [random_point(rng, other, lam)]
                if lam == -1 and kind == "ideal":
                    points.append(Point("Y", Mat2(gc(1, 0, -1), gc(0, 1, -1),
                                                  gc(0, -1, -1), gc(0, 0, -1))))
                for p in points:
                    got = _hex_or_error(contains, t, p)
                    if got != _hex_or_error(_ref_contains, t, p):
                        assert got == _exact_contains(mpref, t, p), cell
                        sided_with_exact.add((cell, p.rep.flat))
                    seen[got if isinstance(got, bool) else "raises"] += 1
    assert min(seen.values()) > 0, seen
    assert len(sided_with_exact) <= 1, sided_with_exact


def test_sample_and_contains_give_python_types(rng):
    for lam in LAMBDAS:
        for kind in ("lightlike", "ideal"):
            t = Tetrahedron(kind, lam, 0.8, 0.6, random_isometry(rng, lam))
            points = sample(t, 10, seed=5)
            assert all(type(x) is float for p in points for x in p.rep.flat), (lam, kind)
            probes = points + [random_point(rng, t.space, lam) for _ in range(30)]
            if kind == "lightlike":
                probes += list(t.vertices)
            else:
                probes.append(_ref_ideal_chart_point(t, -0.3, 0.0, 2.0))  # the edge to vertex 4
            # the same points again with numpy scalars for numbers
            probes += [Point(t.space, Mat2.from_flat([np.float64(x) for x in p.rep.flat], lam))
                       for p in probes]
            answers = [contains(t, p) for p in probes]
            assert all(type(x) is bool for x in answers), (lam, kind)
            assert True in answers and False in answers


def test_ideal_contains_is_false_where_w_has_no_polar_form():
    # At lam = -1 the shifted chart coordinate w = z + exp_ell(gamma) k has a
    # polar form only when |w.im| < |w.re|; `polar` raises ZeroDivisor on the
    # null lines and DomainError beyond them, and the point lies outside.
    t = Tetrahedron("ideal", -1, 0.8, 0.6)
    shift = exp_ell(-1, t.gamma) * (gsin(-1, t.beta) / gsin(-1, t.alpha))
    tval = 4.0
    for w in (gc(1.0, 1.0, -1), gc(-0.3, 0.3, -1), gc(0.5, -2.0, -1), gc(0.0, 0.7, -1)):
        z = w - shift
        p = Point("Y", Mat2(GC((tval * tval + z.mod_sq()) / tval, 0.0, -1), z * (1.0 / tval),
                            z.conj() * (1.0 / tval), GC(1.0 / tval, 0.0, -1)))
        assert contains(t, p) is False, w


def test_sample_count_must_be_an_exact_nonnegative_int():
    for kind in ("lightlike", "ideal"):
        t = Tetrahedron(kind, 1, 0.8, 0.6)
        for bad in (-2, 2.5, 3.0, "3", True, None, np.int64(3)):
            with pytest.raises(DomainError):
                sample(t, bad, seed=1)
        assert sample(t, 0, seed=1) == []
        assert len(sample(t, 3, seed=1)) == 3


def test_sample_seed_must_be_an_exact_nonnegative_int():
    for kind in ("lightlike", "ideal"):
        t = Tetrahedron(kind, -1, 0.8, 0.6)
        for bad in (-1, 1.5, "x", True, None, np.int64(3)):
            with pytest.raises(DomainError):
                sample(t, 3, seed=bad)
        assert len(sample(t, 3, seed=0)) == len(sample(t, 3, seed=2**70)) == 3


def test_contains_tolerance_must_be_finite_and_nonnegative(rng):
    for kind in ("lightlike", "ideal"):
        t = Tetrahedron(kind, -1, 0.8, 0.6, random_isometry(rng, -1))
        inner = sample(t, 1, seed=3)[0]
        # a point far outside: nan once made the lightlike chart divide by zero
        far = act(random_isometry(rng, -1, 3.0), Point.origin(t.space, -1))
        for bad in (math.nan, math.inf, -math.inf, -1e-9, "1e-9", None, 1j):
            for p in (inner, far):
                with pytest.raises(DomainError):
                    contains(t, p, bad)
        assert contains(t, inner, 0) and contains(t, inner, np.float64(1e-9))


# -- recovery and duality against the route that repeated its work ------------------


def _ref_recover_lightlike_raw(vertices, lam):
    """The lightlike normalizer as written before each face was tested for
    lightlike-ness once: here the faces are tested, then tested again inside
    `common_point_three_planes`."""
    x = list(vertices)
    try:
        faces = {j: plane_through_points(*(x[i] for i in range(4) if i != j)) for j in range(3)}
        for j, f in faces.items():
            if not f.is_lightlike():
                raise NotATetrahedron(f"face opposite vertex {j + 1} is not lightlike")
        _pt, a = common_point_three_planes(faces[0], faces[1], faces[2])
    except NotATetrahedron:
        raise
    except Exception as exc:  # noqa: BLE001
        raise NotATetrahedron(f"vertex set is degenerate: {exc}") from exc
    angles = []
    for idx, flip in ((0, 1.0), (1, 1.0), (2, -1.0)):
        m = act(a, x[idx]).rep
        try:
            angles.append(flip * 0.5 * gc_angle(m.a * m.d.inv(), tol=1e-6))
        except DomainError as exc:
            raise NotATetrahedron(f"vertex {idx + 1} is not in standard form: {exc}") from exc
    al, be, ga = angles
    if lam == 1:
        reps = [v % math.pi for v in (al, be, ga)]
        total = sum(reps)
        candidates = []
        if abs(total - math.pi) < 1e-7:
            for drop in (2, 0, 1):
                candidates.append(tuple(r - (math.pi if k == drop else 0.0)
                                        for k, r in enumerate(reps)))
        elif abs(total - 2.0 * math.pi) < 1e-7:
            for keep in (0, 1, 2):
                candidates.append(tuple(r - (0.0 if k == keep else math.pi)
                                        for k, r in enumerate(reps)))
        if not candidates:
            raise NotATetrahedron(f"edge angles do not close up modulo pi: {reps}")
        return a, candidates
    if abs(al + be + ga) > 1e-7 * max(1.0, abs(al), abs(be)):
        raise NotATetrahedron(f"edge angles do not close up: {(al, be, ga)}")
    return a, [(al, be, ga)]


def _ref_cross_ratio_orbit(z):
    """The cross-ratio's orbit in the member order of the six-trial search,
    1 - z before z / (z - 1)."""
    one = gc(1, 0, z.lam)
    zi = z.inv()
    w = (one - z).inv()
    return [z, w, (z - one) * zi, zi, one - z, z * (z - one).inv()]


def _ref_recover_ideal_raw(vertices, lam):
    """The ideal normalizer as written before the triple was normalized once:
    `cross_ratio` normalizes it a second time."""
    try:
        b = boundary_normalize(vertices[0], vertices[1], vertices[2])
        z = cross_ratio(vertices[0], vertices[1], vertices[2], vertices[3])
    except (NotSpacelikeConnected, Degenerate, NormalizationFailure) as exc:
        raise NotATetrahedron(f"vertices do not span an ideal tetrahedron: {exc}") from exc
    for cand in _ref_cross_ratio_orbit(z):
        triple = _canonical_triple_from_shape(cand, lam)
        if triple is not None:
            return b, [triple]
    raise NotATetrahedron(f"cross-ratio {z} admits no positive parameter choice")


def _ref_orbit_triples(a, b, g):
    return (
        (a, b, g), (b, g, a), (g, a, b),
        (-b, -a, -g), (-a, -g, -b), (-g, -b, -a),
    )


def _ref_canonical_from_triple(lam, trips):
    for a, b, _g in trips:
        if a > 1e-12 and b > 1e-12 and not (lam == 1 and a + b >= math.pi - 1e-12):
            return a, b
    return None


def _ref_search(vertices, kind, lam):
    """Recovery as a search: each distinct canonical (alpha, beta) tries the
    six relabelings in turn against the vertices.  The index of the
    relabeling that matched, the pose and the parameters."""
    raw = _ref_recover_lightlike_raw if kind == "lightlike" else _ref_recover_ideal_raw
    normalizer, triples = raw(vertices, lam)
    seen = []
    for triple in triples:
        canon = _ref_canonical_from_triple(lam, _ref_orbit_triples(*triple))
        if canon is None or any(abs(canon[0] - c[0]) + abs(canon[1] - c[1]) < 1e-12 for c in seen):
            continue
        seen.append(canon)
        std = standard_vertices(kind, lam, *canon)
        for k, w in enumerate(_perm_isometries(lam)):
            pose = (w @ normalizer).inv()
            if _match_sets([act(pose, v) for v in std], list(vertices)):
                return k, pose, canon[0], canon[1]
    raise NotATetrahedron("vertices are not an isometric image of a standard tetrahedron")


def _ref_recover_parameters(vertices, kind, lam):
    return _ref_search(vertices, kind, lam)[1:]


def _ref_dualize_tet(t):
    """`dualize_tet` with one `_dual_kernel` call per 3-point kernel and the
    reference recovery."""
    lam = t.lam

    def kernel(vs):
        kern = _dual_kernel(vs)
        if kern.shape[1] != 1:
            raise NotATetrahedron("dual planes do not meet in a single projective point")
        return kern[:, 0]

    if t.kind == "lightlike":
        vecs = [v.vector() for v in t.vertices]
        new_vertices = []
        for i in range(4):
            y = kernel([vecs[j] for j in range(4) if j != i])
            try:
                new_vertices.append(boundary_from_matrix(embed(y, "Y", lam)))
            except Degenerate as exc:
                raise NotATetrahedron(f"dual vertex {i + 1} is not ideal: {exc}") from exc
        pose, alpha, beta = _ref_recover_parameters(new_vertices, "ideal", lam)
        return Tetrahedron("ideal", lam, alpha, beta, pose)
    vecs = [v.vec4() for v in t.vertices]
    new_points = []
    for i in range(4):
        xv = kernel([vecs[j] for j in range(4) if j != i])
        if quadric_value(xv, "X", lam) <= 0:
            raise NotATetrahedron(f"dual vertex {i + 1} misses the spacetime family")
        new_points.append(Point.from_vector(xv, "X", lam))
    pose, alpha, beta = _ref_recover_parameters(new_points, "lightlike", lam)
    return Tetrahedron("lightlike", lam, alpha, beta, pose)


def _vertex_hex(v):
    numbers = v.rep.flat if isinstance(v, Point) else v.flat
    return [type(v).__name__] + [float(x).hex() for x in numbers]


def _recovered_hex(fn, *args):
    """Pose, parameters and vertices of a result by float.hex, or the error
    class raised."""
    try:
        out = fn(*args)
    except DualtetError as exc:
        return type(exc)
    if isinstance(out, Tetrahedron):
        return ([out.kind, out.alpha.hex(), out.beta.hex()]
                + [float(x).hex() for x in out.pose.rep.flat]
                + [_vertex_hex(v) for v in out.vertices])
    pose, alpha, beta = out
    return [alpha.hex(), beta.hex()] + [float(x).hex() for x in pose.rep.flat]


def _assert_dual_matches_references(x, context) -> bool:
    """The dual of either kind is the closed form bit for bit, and it agrees
    with the kernel route, where that returns, within 1e-8 in its parameters
    and 1e-6 in its vertices.  False when the kernel route fails."""
    other = "ideal" if x.kind == "lightlike" else "lightlike"
    closed = Tetrahedron(other, x.lam, x.alpha, x.beta, _swap_conjugate(x.pose))
    assert _recovered_hex(dualize_tet, x) == _recovered_hex(lambda: closed), context
    try:
        ref = _ref_dualize_tet(x)
    except DualtetError:
        return False
    assert ref.kind == other, context
    assert ref.alpha == pytest.approx(x.alpha, abs=1e-8), context
    assert ref.beta == pytest.approx(x.beta, abs=1e-8), context
    assert _match_sets(closed.vertices, list(ref.vertices), 1e-6), context
    return True


# Where recovery kept its route: the search reproduces it bit for bit.
_UNCHANGED_ROUTES = {("ideal", 0), ("ideal", 1), ("lightlike", -1)}


def _assert_recovery_matches_search(verts, kind, lam, cell, context):
    """Recovery on a route it kept is the search's bit for bit, and fails
    with its error class.  On a route it changed (ideal at lam = -1, read
    off null components, and lightlike at lam = 0 and 1, read through the
    dual), it returns wherever the search does, no further from the cell
    than the search's result or 1e-9, and its pose carries the standard
    vertices onto the given ones.  At lam = 1 the vertex set of (alpha,
    beta) is also that of the cyclic rotations of (alpha, beta,
    pi - alpha - beta), and the nearest of them counts."""
    got = _recovered_hex(recover_parameters, verts, kind, lam)
    if (kind, lam) in _UNCHANGED_ROUTES:
        assert got == _recovered_hex(_ref_recover_parameters, verts, kind, lam), context
        return
    try:
        _ref_pose, *ref = _ref_recover_parameters(verts, kind, lam)
    except DualtetError:
        return
    pose, *params = recover_parameters(verts, kind, lam)
    if cell is None:  # no cell: both read the same parameters
        cell = ref
    a, b = cell
    wants = [(a, b)] + ([(math.pi - a - b, a), (b, math.pi - a - b)] if lam == 1 else [])

    def error(got):
        return min(max(abs(got[0] - w[0]), abs(got[1] - w[1])) for w in wants)

    assert error(params) <= max(1e-9, error(ref)), context
    assert _match_sets(Tetrahedron(kind, lam, *params, pose).vertices, list(verts)), context


def test_recovery_and_duality_match_the_route_that_repeated_work():
    """Against the routes that did each step twice (the search over six
    relabelings, separate kernels and, for the lightlike kind, the common
    point of three faces), recovery is bit for bit the same where its route
    is unchanged and no worse where it changed, and fails alike on vertex
    sets that are no tetrahedron.  Duals of both kinds are the closed form,
    checked against the kernel route within tolerance.  On every vertex
    order, the relabeling read off the canonical orbit member gives the
    result of trying all six."""
    rng = np.random.default_rng(5151)
    ok = fails = ref_fails = 0
    for lam in LAMBDAS:
        for kind in ("lightlike", "ideal"):
            for _ in range(6):
                while True:
                    alpha, beta = np.exp(rng.uniform(math.log(0.02), math.log(6.0), 2))
                    if lam != 1 or alpha + beta < math.pi:
                        break
                t = Tetrahedron(kind, lam, float(alpha), float(beta), random_isometry(rng, lam))
                perm = [int(k) for k in rng.permutation(4)]
                shuffled = [t.vertices[k] for k in perm]
                context = (lam, kind, alpha, beta, perm)
                for verts in (t.vertices, shuffled):
                    _assert_recovery_matches_search(verts, kind, lam, (alpha, beta), context)
                ref_fails += not _assert_dual_matches_references(t, context)
                try:
                    d = dualize_tet(t)
                except DualtetError:
                    fails += 1
                    continue
                ok += 1
                ref_fails += not _assert_dual_matches_references(d, context)
        # vertex sets that are no tetrahedron fail alike
        garbage = [[random_point(rng, "X", lam) for _ in range(4)],
                   [BoundaryPoint.from_value(GC(*rng.normal(size=2), lam)) for _ in range(4)]]
        for verts, kind in zip(garbage, ("lightlike", "ideal")):
            got = _recovered_hex(recover_parameters, verts, kind, lam)
            assert got == _recovered_hex(_ref_recover_parameters, verts, kind, lam)
    assert ok > 20 and fails < ok and ref_fails < ok, (ok, fails, ref_fails)
    # All 24 vertex orders of a few cells, among them alpha = beta,
    # beta = alpha / 2 and lam = 1 near alpha + beta = pi.  Where the route
    # is unchanged, the pose read off the canonical orbit member is the
    # search's, bit for bit, so recovery reads the relabeling the search
    # finds, each of the six at lam = -1, 0.
    rng = np.random.default_rng(5353)
    near_pi = math.pi - 1e-3
    cells = {-1: [(0.8, 0.8), (1.1, 0.55)], 0: [(1.1, 0.55), (0.8, 0.8)],
             1: [(2 * near_pi / 3, near_pi / 3), (0.8, 0.8)]}
    reached = {}
    for lam in LAMBDAS:
        for kind in ("lightlike", "ideal"):
            # the lightlike search costs five times the ideal one: one cell
            for alpha, beta in cells[lam][:1] if kind == "lightlike" else cells[lam]:
                t = Tetrahedron(kind, lam, alpha, beta, random_isometry(rng, lam))
                for verts in itertools.permutations(t.vertices):
                    context = (lam, kind, alpha, beta, verts)
                    _assert_recovery_matches_search(verts, kind, lam, None, context)
                    k, *_ref = _ref_search(verts, kind, lam)
                    reached.setdefault((lam, kind), set()).add(k)
    for lam in (-1, 0):
        for kind in ("lightlike", "ideal"):
            assert reached[lam, kind] == set(range(6)), (lam, kind, reached[lam, kind])


def test_posed_ideal_vertices_keep_both_null_components():
    """At lam = -1 the vertices of a posed ideal tetrahedron keep both null
    components: against 50-digit vertices (`tools/mpref.py`), each stored
    component is within 4 ulps of 1 times the condition of its push by the
    pose, and recovery reads the parameters within 1e-9 for
    alpha + beta <= 6 on seeded poses (the parent's vertices lost the
    smaller null component, and recovery 1e-8 past alpha + beta ~ 5)."""
    from dualtet.geometry import _null_pairs

    mpref = _tool("mpref")
    eps = 2.0 ** -52
    rng = np.random.default_rng(4646)
    recovered = 0
    for _ in range(40):
        alpha, beta = _draw_cell(rng, -1)
        t = ideal_from_angles(-1, alpha, beta, random_isometry(rng, -1))
        ref = mpref.ideal_null_vertices(alpha, beta, t.pose.rep.flat)
        for v, want in zip(t.vertices, ref):
            for got, (x, y, cond) in zip(_null_pairs(v), want):
                err = max(abs(mpref.mp.mpf(got[0]) - x), abs(mpref.mp.mpf(got[1]) - y))
                assert err <= 4 * eps * cond, (alpha, beta, float(err / eps), float(cond))
        if alpha + beta <= 6.0:
            _pose, ra, rb = recover_parameters(t.vertices, "ideal", -1)
            assert (ra, rb) == (pytest.approx(alpha, abs=1e-9), pytest.approx(beta, abs=1e-9))
            recovered += 1
    assert recovered >= 25, recovered


@pytest.mark.parametrize("alpha, beta", [(360.0, 360.0), (800.0, 800.0), (1e6, 1.0)])
def test_large_ideal_cells_build_without_overflow(alpha, beta):
    """Past alpha + beta ~ 710 e^(alpha + beta) overflows, but the fourth
    standard vertex never forms it: its null components -e^(-2 alpha) q and
    -e^(-2 beta) / q, q = (1 - e^(-2 beta)) / (1 - e^(-2 alpha)), are
    finite, and they match 50-digit ones to an ulp of 1, at the identity and
    at a seeded pose.  Duals and recovery return or raise a typed error."""
    from dualtet.geometry import _null_pairs

    mpref = _tool("mpref")
    eps = 2.0 ** -52
    for pose in (None, random_isometry(np.random.default_rng(17), -1)):
        t = Tetrahedron("ideal", -1, alpha, beta, pose)
        ref = mpref.ideal_null_vertices(alpha, beta, t.pose.rep.flat)
        for v, want in zip(t.vertices, ref):
            assert all(math.isfinite(x) for x in v.flat)
            for got, (x, y, cond) in zip(_null_pairs(v), want):
                err = max(abs(mpref.mp.mpf(got[0]) - x), abs(mpref.mp.mpf(got[1]) - y))
                assert err <= 4 * eps * cond, (float(err / eps), float(cond))
        for call in (lambda: dualize_tet(t), lambda: recover_parameters(t.vertices, "ideal", -1)):
            try:
                call()
            except DualtetError:
                pass


def test_lightlike_cell_near_pi_recovers_in_every_order():
    """At lam = 1 within 1e-5 of alpha + beta = pi, lightlike recovery reads
    the dual's cross-ratio and recovers all 24 vertex orders (the parent's
    common point of three faces failed 4): each to the cell or to one of
    its cyclic rotations (alpha, beta, pi - alpha - beta), which have the
    same vertex set."""
    alpha, beta = 0.3648540402182527, 2.776727299689645
    gamma = math.pi - alpha - beta
    t = lightlike_from_angles(1, alpha, beta)
    for verts in itertools.permutations(t.vertices):
        _pose, ra, rb = recover_parameters(list(verts), "lightlike", 1)
        assert min(max(abs(ra - a), abs(rb - b))
                   for a, b in ((alpha, beta), (gamma, alpha), (beta, gamma))) <= 1e-9


def test_verify_seed_145_geometry_rows_pass():
    """`dualtet verify --seed 145` failed "constructors commute with
    isometries" at 1.48e-8 against 1e-9: at lam = -1, 1 - z of a cross-ratio
    lay near the null cone.  Read off null components, the rows pass (the
    suites run in `dualtet verify`'s order, so the geometry suite draws what
    it draws there)."""
    from dualtet.verify import run_suites

    rows = run_suites(145, {"gcnum", "matmodel", "geometry"})
    assert [row[:2] for row in rows if not row[2]] == []
    assert any(row[0] == "geometry" for row in rows)


def test_stacked_dual_kernels_match_separate_calls():
    """One SVD call for a stack of 3-point kernels gives each kernel the bits
    of a call of its own, on tetrahedra of both kinds and on random,
    repeated and zero vectors."""
    rng = np.random.default_rng(5252)
    stacks = []
    for lam in LAMBDAS:
        for kind in ("lightlike", "ideal"):
            for _ in range(10):
                a, b = rng.uniform(0.05, 1.4, 2)
                t = Tetrahedron(kind, lam, float(a), float(b), random_isometry(rng, lam))
                vecs = [v.vector() if kind == "lightlike" else v.vec4() for v in t.vertices]
                stacks.append([[vecs[j] for j in range(4) if j != i] for i in range(4)])
    for _ in range(30):
        vecs = list(rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-6, 6))
        vecs[3] = vecs[int(rng.integers(3))] * rng.choice([1.0, -2.0])  # rank falls by one
        if rng.integers(4) == 0:
            vecs[2] = np.zeros(4)
        stacks.append([[vecs[j] for j in range(4) if j != i] for i in range(4)])
    for stack in stacks:
        stacked = _dual_kernel(stack)
        assert len(stacked) == 4
        for got, triple in zip(stacked, stack):
            want = _dual_kernel(triple)
            assert got.shape == want.shape
            hexed = [[x.hex() for x in k.ravel().tolist()] for k in (got, want)]
            assert hexed[0] == hexed[1]


def _draw_cell(rng, lam, hi=6.0):
    while True:
        alpha, beta = np.exp(rng.uniform(math.log(0.02), math.log(hi), 2)).tolist()
        if lam != 1 or alpha + beta < math.pi:
            return alpha, beta


def test_lightlike_dual_reuses_the_images_recovery_checked():
    """The ideal dual of a lightlike tetrahedron takes as its vertices the
    images of the standard vertices that recovery checked: its pose,
    parameters, vertices, samples and membership answers are those of a
    fresh `Tetrahedron(...)` rebuild, bit for bit."""
    rng = np.random.default_rng(5454)
    built = 0
    for lam in LAMBDAS:
        for _ in range(12):
            alpha, beta = _draw_cell(rng, lam)
            t = lightlike_from_angles(lam, alpha, beta, random_isometry(rng, lam))
            try:
                d = dualize_tet(t)
            except DualtetError:
                continue
            fresh = Tetrahedron("ideal", lam, d.alpha, d.beta, d.pose)
            assert _recovered_hex(lambda: d) == _recovered_hex(lambda: fresh), (lam, alpha, beta)
            assert d == fresh and type(d.vertices) is tuple
            assert _hex_or_error(sample, d, 5, 1) == _hex_or_error(sample, fresh, 5, 1)
            probes = [random_point(rng, "Y", lam) for _ in range(5)] + sample(fresh, 5, 2)
            assert ([_hex_or_error(contains, d, p) for p in probes]
                    == [_hex_or_error(contains, fresh, p) for p in probes])
            built += 1
    assert built >= 30, built


def test_lightlike_recovery_faces_match_plane_through_points(monkeypatch):
    """Lightlike recovery takes the faces opposite the four vertices from
    one stacked kernel call: they are the planes of four
    `plane_through_points` calls, bit for bit, on shuffled posed tetrahedra
    and on vertex sets that are no tetrahedron.  Where a triple spans no
    plane, recovery stops before the common point of three faces (lam = -1)
    and before the recovery of the dual (lam = 0 and 1), as
    `plane_through_points` raises `Degenerate`."""
    from dualtet import tetrahedra

    seen, later = [], []

    def kernels(vecs):
        out = list(_triple_kernels(vecs))
        seen.append(out)
        return out

    monkeypatch.setattr(tetrahedra, "_triple_kernels", kernels)
    for name in ("common_point_three_planes", "_recover_ideal_raw"):
        monkeypatch.setattr(tetrahedra, name,
                            lambda *args, _f=getattr(tetrahedra, name): later.append(1) or _f(*args))
    rng = np.random.default_rng(5656)
    for lam in LAMBDAS:
        for _ in range(8):
            alpha, beta = _draw_cell(rng, lam)
            t = lightlike_from_angles(lam, alpha, beta, random_isometry(rng, lam))
            shuffled = [t.vertices[k] for k in rng.permutation(4).tolist()]
            garbage = [random_point(rng, "X", lam) for _ in range(4)]
            repeated = [shuffled[0], shuffled[0], shuffled[1], shuffled[2]]
            for verts in (shuffled, garbage, repeated):
                seen.clear()
                later.clear()
                try:
                    recover_parameters(verts, "lightlike", lam)
                except NotATetrahedron:
                    pass
                try:
                    want = [plane_through_points(*(verts[i] for i in range(4) if i != j))
                            for j in range(4)]
                except Degenerate:
                    assert seen == [] and later == [] and verts is repeated
                    continue
                assert len(seen) == 1 and later, (lam, alpha, beta)
                for kern, ref in zip(seen[0], want):
                    got = Plane("X", lam, kern)
                    assert ([x.hex() for x in got.dual_vec.tolist()]
                            == [x.hex() for x in ref.dual_vec.tolist()]), (lam, alpha, beta)


def test_recovery_turns_zero_divisors_into_not_a_tetrahedron():
    """At lam = -1 a split-complex number can be a zero divisor inside
    recovery.  Recovery then raises `NotATetrahedron`, chained to the
    library error: on ideal vertex sets, in every order, in which two
    points share a null component (their minor is a zero divisor), and on
    a posed lightlike cell whose normalized vertex meets a |z|^2 of 1 read
    off entries of 2e6 (`ZeroDivisor`).  The two ideal vertex orders that
    met a zero divisor before null components recover."""
    shared = BoundaryPoint(GC(0.65, 0.35, -1), GC(0.5, -0.5, -1))  # [1 : 0] and [0.3 : 1]
    twin = BoundaryPoint(GC(1.0, 1.0, -1), GC(1.0, -1.0, -1))  # [1 : 0] and [0 : 1]
    for fourth in (shared, twin):
        t = ideal_from_angles(-1, 0.7, 0.4)
        for verts in itertools.permutations(t.vertices[:3] + (fourth,)):
            with pytest.raises(NotATetrahedron) as info:
                recover_parameters(list(verts), "ideal", -1)
            assert isinstance(info.value.__cause__, DualtetError), verts
    for alpha, beta, order in ((0.8094849685168787, 7.709359834706593, (1, 2, 3, 0)),
                               (8.731152141981035, 9.45365162902661, (1, 2, 0, 3))):
        t = ideal_from_angles(-1, alpha, beta)
        _pose, ra, rb = recover_parameters([t.vertices[j] for j in order], "ideal", -1)
        assert (ra, rb) == (pytest.approx(alpha, abs=1e-8), pytest.approx(beta, abs=1e-8))
    flat = (1.9093552719891673, -0.04254394910221881, -0.31981065330918035, 0.43988505475914397,
            0.5883891573780017, -0.4864173612620989, 0.4003594341351024, 0.517552034494892)
    pose = pose_from_rows([[flat[0:2], flat[2:4]], [flat[4:6], flat[6:8]]], -1)
    t = lightlike_from_angles(-1, 9.48676070227875, 5.90250097309482, pose)
    with pytest.raises(NotATetrahedron) as info:
        recover_parameters(t.vertices, "lightlike", -1)
    assert isinstance(info.value.__cause__, ZeroDivisor)


def _raiser(exc):
    def stand_in(*args, **kwargs):
        raise exc

    return stand_in


@pytest.mark.parametrize("kind, lam, target", [
    ("lightlike", -1, "common_point_three_planes"),
    ("lightlike", 0, "boundary_from_matrix"),
    ("ideal", 0, "polar"),
    ("ideal", -1, "_null_cross_ratios"),
], ids=["lightlike_common_point", "lightlike_face_duals", "ideal_polar", "ideal_null_cross_ratios"])
def test_recovery_lets_errors_from_outside_the_library_through(monkeypatch, kind, lam, target):
    """Recovery turns library errors into `NotATetrahedron`, and nothing
    else: a `TypeError` raised inside it, by a stand-in for the lightlike
    common-point step (lam = -1), for the reading of the faces' dual points
    (lam = 0), for the `polar` that reads the ideal parameters off an orbit
    member (lam = 0) or for the null cross-ratios (lam = -1), surfaces as
    that `TypeError`."""
    from dualtet import tetrahedra

    t = Tetrahedron(kind, lam, 0.9, 0.3)
    monkeypatch.setattr(tetrahedra, target, _raiser(TypeError("not a library error")))
    with pytest.raises(TypeError, match="not a library error"):
        recover_parameters(t.vertices, kind, lam)


@pytest.mark.parametrize("kind, target, error", [
    ("lightlike", "_dual_kernel", np.linalg.LinAlgError("SVD did not converge")),
    ("lightlike", "boundary_from_matrix", NotATetrahedron("passed through as it is")),
    ("ideal", "boundary_normalize", NormalizationFailure("no normalizing isometry")),
    ("lightlike", "standard_vertices", DomainError("while checking a candidate")),
    ("ideal", "standard_vertices", DomainError("while checking a candidate")),
], ids=["kernel_svd", "not_a_tetrahedron", "normalizing", "lightlike_check", "ideal_check"])
def test_recovery_chains_library_errors_to_not_a_tetrahedron(monkeypatch, kind, target, error):
    """Every error that stops recovery on four vertices is `NotATetrahedron`:
    a library error or the kernel SVD's `LinAlgError`, raised while
    normalizing the vertices, reading the parameters or checking a
    candidate, is its cause, and a `NotATetrahedron` passes unchanged."""
    from dualtet import tetrahedra

    lam = 0
    t = Tetrahedron(kind, lam, 0.9, 0.3)
    monkeypatch.setattr(tetrahedra, target, _raiser(error))
    with pytest.raises(NotATetrahedron) as info:
        recover_parameters(t.vertices, kind, lam)
    if isinstance(error, NotATetrahedron):
        assert info.value is error
    else:
        assert info.value.__cause__ is error


def test_moved_composes_the_pose(rng):
    """`t.moved(a)` is the tetrahedron with pose a @ pose: its vertices are
    the images of t's under a, and recovery reads t's parameters off them."""
    for lam in LAMBDAS:
        for kind in ("lightlike", "ideal"):
            t = Tetrahedron(kind, lam, 0.7, 0.4, random_isometry(rng, lam))
            a = random_isometry(rng, lam)
            moved = t.moved(a)
            assert moved == Tetrahedron(kind, lam, 0.7, 0.4, a @ t.pose)
            assert all(v.isclose(act(a, w), 1e-9) for v, w in zip(moved.vertices, t.vertices))
            _pose, ra, rb = recover_parameters(moved.vertices, kind, lam)
            assert (ra, rb) == (pytest.approx(0.7, abs=1e-9), pytest.approx(0.4, abs=1e-9))

def test_lightlike_chart_at_a_pole_of_gtan():
    """At lam = 1 an angle of pi/2 is a pole of gtan.  The chart's term for
    that angle is its cotangent, 0, so the tetrahedron samples and contains
    its points, and its samples are the limits of those of its neighbours
    with the angle moved by 1e-9 either way."""
    from dualtet.tetrahedra import _light_chart_r

    rng = np.random.default_rng(3)
    half = math.pi / 2
    for alpha, beta, moved in ((half, 0.7, 0), (0.7, half, 1), (0.7, half - 0.7, 1)):
        pose = random_isometry(rng, 1)
        t = lightlike_from_angles(1, alpha, beta, pose)
        assert math.inf in t._light_tans
        points = sample(t, 30, seed=4)
        assert len(points) == 30
        assert all(contains(t, p) for p in points), (alpha, beta)
        assert all(contains(t, v) for v in t.vertices), (alpha, beta)
        for eps in (-1e-9, 1e-9):
            params = [alpha, beta]
            params[moved] += eps
            near = sample(lightlike_from_angles(1, *params, pose), 30, seed=4)
            assert all(p.isclose(q, 1e-7) for p, q in zip(points, near)), (alpha, beta, eps)
        a, b = 0.2, 0.3
        rmax = _light_chart_r(t, a, b)
        assert contains(t, _ref_light_chart_point(t, 0.999 * rmax, a, b))
        assert not contains(t, _ref_light_chart_point(t, 1.02 * rmax, a, b))
