import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import expctrl.mesh as mesh_module
from expctrl.cli import ConfigError, RunConfig
from expctrl.mesh import (Domain, Mesh, _edge_lengths, barycentric,
                          build_mesh, circumcenters, locate_point)
from expctrl.sequences import compute_separation_radii
from helpers import (edge_table, graded_disk, mesh_from_arrays,
                     reference_edge_lengths, reference_graded_meshes,
                     reference_locate)


def test_domain_geometry():
    sq = Domain.unit_square()
    assert_allclose(sq.area(), 1.0)
    assert_allclose(sq.diameter(), np.sqrt(2.0))
    d = Domain.disk(0.0, 0.0, 2.0)
    assert_allclose(d.area(), 4.0 * np.pi)
    assert_allclose(d.diameter(), 4.0)


def test_domain_boundary_distance():
    sq = Domain.rectangle(0.0, 0.0, 2.0, 1.0)
    assert_allclose(sq.boundary_distance([0.5, 0.5]), 0.5)
    assert_allclose(sq.boundary_distance([1.9, 0.5]), 0.1)
    d = Domain.disk(1.0, 0.0, 1.0)
    assert_allclose(d.boundary_distance([1.0, 0.0]), 1.0)
    assert_allclose(d.boundary_distance([1.5, 0.0]), 0.5)


def test_degenerate_domains_rejected():
    # the CLI refuses a domain without area, naming its field; the
    # Domain makers build whatever they are given
    for domain, field in (
            ({"kind": "rectangle", "corners": [0.0, 0.0, 0.0, 1.0]},
             "domain.corners"),
            ({"kind": "rectangle", "corners": [0.0, 1.0, 2.0, 0.5]},
             "domain.corners"),
            ({"kind": "disk", "center": [0.0, 0.0], "radius": 0.0},
             "domain.radius"),
            ({"kind": "disk", "center": [0.0, 0.0], "radius": -1.0},
             "domain.radius")):
        with pytest.raises(ConfigError,
                           match="^field '%s': expected" % field):
            RunConfig.from_dict({"domain": domain, "points": [[0.0, 0.0]],
                                 "lower": [0.0], "upper": [1.0]})


def test_coarsest_square_mesh():
    mesh = build_mesh(Domain.unit_square(), 1)
    assert mesh.num_vertices == 4
    assert mesh.num_triangles == 2
    assert_allclose(mesh.areas, [0.5, 0.5])


def test_square_mesh_counts_and_area():
    for n in (2, 5, 8):
        mesh = build_mesh(Domain.unit_square(), n)
        assert mesh.num_triangles == 2 * n * n
        assert abs(np.sum(mesh.areas) - 1.0) < 1e-12


def test_disk_mesh_area_converges():
    disk = Domain.disk(0.0, 0.0, 1.0)
    errs = []
    for n in (8, 16, 32):
        mesh = build_mesh(disk, n)
        errs.append(abs(np.sum(mesh.areas) - np.pi))
    assert errs[0] < 0.1
    # O(1/n^2) decay of the polygonal area deficit
    assert errs[2] < errs[0] / 8.0


def test_boundary_vertices_lie_on_the_circle():
    disk = Domain.disk(0.5, -0.5, 2.0)
    mesh = build_mesh(disk, 12)
    rb = np.hypot(mesh.vertices[mesh.boundary, 0] - 0.5,
                  mesh.vertices[mesh.boundary, 1] + 0.5)
    assert np.max(np.abs(rb - 2.0)) < 1e-12 * 2.0


def test_positive_areas_and_orientation():
    for dom in (Domain.unit_square(), Domain.disk(0.0, 0.0, 1.0)):
        mesh = build_mesh(dom, 9)
        assert np.all(mesh.areas > 0.0)


def _edge_counts(mesh):
    counts = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return counts


def test_conformity_and_euler_relation():
    pts = compute_separation_radii([[0.5, 0.5]], Domain.unit_square())
    mesh = build_mesh(Domain.unit_square(), 8, refine_points=pts,
                      refine_levels=2)
    counts = _edge_counts(mesh)
    # every edge belongs to one (boundary) or two (interior) triangles
    assert set(counts.values()) <= {1, 2}
    V, E, T = mesh.num_vertices, len(counts), mesh.num_triangles
    assert V - E + T == 1


def test_refinement_shrinks_local_h_and_keeps_area():
    square = Domain.unit_square()
    pts = compute_separation_radii([[0.5, 0.5]], square)
    base = build_mesh(square, 8)
    fine = build_mesh(square, 8, refine_points=pts, refine_levels=3)
    assert fine.num_triangles > base.num_triangles
    assert abs(np.sum(fine.areas) - 1.0) < 1e-12
    assert np.min(fine.areas) < np.min(base.areas) / 8.0
    # existing coarse vertices survive in place
    assert np.min([np.min(np.sum((fine.vertices - v) ** 2, axis=1))
                   for v in base.vertices[:5]]) < 1e-24


def test_structured_square_mesh_is_nonobtuse():
    mesh = build_mesh(Domain.unit_square(), 6)
    v = mesh.vertices[mesh.triangles]
    for k in range(3):
        a = v[:, (k + 1) % 3] - v[:, k]
        b = v[:, (k + 2) % 3] - v[:, k]
        cosang = np.sum(a * b, axis=1) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        assert np.all(cosang >= -1e-12)


def test_tri_edges_match_the_row_unique_reference():
    dom = Domain.disk(0.0, 0.0, 1.0)
    pts = compute_separation_radii([[0.0, 0.0], [0.4, 0.3]], dom)
    mesh = build_mesh(dom, 8, refine_points=pts, refine_levels=4)
    T = mesh.num_triangles
    raw = np.sort(np.stack([mesh.triangles[:, [1, 2]],
                            mesh.triangles[:, [2, 0]],
                            mesh.triangles[:, [0, 1]]], axis=1),
                  axis=2).reshape(-1, 2)
    ref_edges, ref_inverse, ref_counts = np.unique(
        raw, axis=0, return_inverse=True, return_counts=True)
    edges, tri_edge, counts = edge_table(mesh.triangles)
    assert np.array_equal(edges, ref_edges)
    assert np.array_equal(tri_edge, ref_inverse.reshape(T, 3))
    assert np.array_equal(counts, ref_counts)


_CLOCKWISE = (np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
              np.array([[0, 2, 1], [1, 3, 2]]), np.ones(4, dtype=bool))


def _oriented_clockwise_mesh(with_table):
    """The Mesh of _CLOCKWISE after its maker turns the clockwise triangle
    counterclockwise: swapping corners 1 and 2 swaps edge slots 1 and 2,
    so the edge table of the input order is handed over permuted alike."""
    vertices, triangles, boundary = _CLOCKWISE
    edges, tri_edges, _ = edge_table(triangles)
    corners = vertices[triangles]
    e1, e2 = corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]
    flip = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] < 0.0
    assert np.any(flip)
    triangles = triangles.copy()
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    if not with_table:
        return mesh_from_arrays(vertices, triangles, boundary,
                                Domain.unit_square())
    tri_edges = tri_edges.copy()
    tri_edges[flip] = tri_edges[flip][:, [0, 2, 1]]
    return Mesh(vertices, triangles, boundary, Domain.unit_square(),
                edges, tri_edges)


_EDGE_TABLE_MESHES = {
    "square": lambda: build_mesh(Domain.unit_square(), 7),
    "rectangle": lambda: build_mesh(Domain.rectangle(0.0, 0.0, 2.0, 1.0), 5),
    "disk": lambda: build_mesh(Domain.disk(0.0, 0.0, 1.0), 9),
    "graded-disk-12": graded_disk,
    "rectangle-three-points": lambda: build_mesh(
        Domain.rectangle(0.0, 0.0, 2.0, 1.0), 8,
        refine_points=compute_separation_radii(
            [[0.5, 0.5], [1.2, 0.3], [1.5, 0.7]],
            Domain.rectangle(0.0, 0.0, 2.0, 1.0)), refine_levels=5),
    # bare arrays with a clockwise triangle, oriented by their maker,
    # without and with the edge table of the input order
    "bare-clockwise": lambda: _oriented_clockwise_mesh(False),
    "table-clockwise": lambda: _oriented_clockwise_mesh(True),
}


@pytest.mark.parametrize("case", sorted(_EDGE_TABLE_MESHES))
def test_every_mesh_carries_its_edge_table(case):
    mesh = _EDGE_TABLE_MESHES[case]()
    edges, tri_edges = mesh.edges, mesh.triangle_edges
    assert edges.dtype == tri_edges.dtype == np.int32
    assert edges.shape[1] == 2 and tri_edges.shape == mesh.triangles.shape
    assert np.all(edges[:, 0] < edges[:, 1])
    assert np.unique(edges, axis=0).shape == edges.shape
    # slot j joins corners j + 1 and j + 2
    for j in range(3):
        a = mesh.triangles[:, (j + 1) % 3]
        b = mesh.triangles[:, (j + 2) % 3]
        assert np.array_equal(edges[tri_edges[:, j]],
                              np.column_stack([np.minimum(a, b),
                                               np.maximum(a, b)]))
    # Euler's formula of a triangulated disk
    assert mesh.num_vertices - len(edges) + mesh.num_triangles == 1
    sorted_edges, _, _ = edge_table(mesh.triangles)
    assert set(map(tuple, edges.tolist())) \
        == set(map(tuple, sorted_edges.tolist()))


_SQUARE_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
_BAD_TRIANGLES = {
    # the second triangle of the square's two runs clockwise
    "clockwise": np.array([[0, 1, 2], [1, 2, 3]]),
    # the first triangle's corners lie on the bottom edge
    "degenerate": np.array([[0, 1, 1], [1, 3, 2]]),
}


@pytest.mark.parametrize("case", sorted(_BAD_TRIANGLES))
def test_mesh_rejects_a_clockwise_or_degenerate_triangle(case):
    # a Mesh is what build_mesh makes: counterclockwise by construction,
    # so a clockwise triangle is a fault of its maker, not reoriented,
    # and not of the maker's input: a RuntimeError, a solver fault
    with pytest.raises(RuntimeError, match="clockwise or degenerate"):
        mesh_from_arrays(_SQUARE_CORNERS, _BAD_TRIANGLES[case],
                         np.ones(4, dtype=bool), Domain.unit_square())


def test_locate_point_at_vertex_and_barycenter():
    mesh = build_mesh(Domain.unit_square(), 4)
    vid = 7
    center = np.mean(mesh.vertices[mesh.triangles[3]], axis=0)
    t, lam = locate_point(mesh, [mesh.vertices[vid], center])
    assert t.shape == (2,) and lam.shape == (2, 3)
    assert np.max(lam[0]) > 1.0 - 1e-12
    assert vid in mesh.triangles[t[0]]
    assert t[1] == 3
    assert_allclose(lam[1], [1.0 / 3.0] * 3, atol=1e-12)


def test_locate_point_outside_raises():
    # radius 0.998, the middle of the widest boundary chord of the n = 8
    # disk: inside the disk, outside its mesh; the error names the
    # first point that no triangle holds
    mesh = build_mesh(_DISK, 8)
    x, y = -0.7808924, -0.6214588
    with pytest.raises(ValueError) as raised:
        locate_point(mesh, [[0.1, 0.05], [x, y], [x, y]])
    assert str(raised.value) == (
        "source point 1 at (%r, %r) lies between the mesh's boundary "
        "chords and the circle" % (x, y))


@settings(max_examples=40)
@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_locate_point_reconstructs_coordinates(x, y):
    mesh = build_mesh(Domain.unit_square(), 5)
    (t,), (lam,) = locate_point(mesh, [[x, y]])
    assert np.all(lam >= -1e-12)
    assert abs(np.sum(lam) - 1.0) < 1e-12
    rec = lam @ mesh.vertices[mesh.triangles[t]]
    assert np.hypot(rec[0] - x, rec[1] - y) < 1e-10 * mesh.domain.diameter()


def test_barycentric_matches_direct_solve():
    mesh = build_mesh(Domain.unit_square(), 3)
    x = np.array([0.41, 0.27])
    (t,), (lam,) = locate_point(mesh, [x])
    lam2 = barycentric(mesh, t, x)
    assert_allclose(lam, lam2, atol=1e-13)


def test_broadcast_barycentric_matches_per_item_calls_on_a_graded_disk():
    dom = Domain.disk(0.0, 0.0, 1.0)
    pts = compute_separation_radii([[0.0, 0.0], [0.4, 0.3]], dom)
    mesh = build_mesh(dom, 8, refine_points=pts, refine_levels=4)
    rng = np.random.default_rng(2)
    t = rng.integers(0, mesh.num_triangles, 200)
    corners = mesh.vertices[mesh.triangles[t]]
    # weights in [-1/3, 5/3]: points inside and around their triangles
    x = np.einsum("mj,mjd->md", 2.0 * rng.dirichlet(np.ones(3), 200)
                  - 1.0 / 3.0, corners)
    lam = barycentric(mesh, t, x)
    assert lam.shape == (200, 3)
    single = np.array([barycentric(mesh, ti, xi) for ti, xi in zip(t, x)])
    assert np.array_equal(lam, single)
    # one point against every triangle, as the locate fallback scans
    every = barycentric(mesh, np.arange(mesh.num_triangles), x[0])
    assert np.array_equal(every[t[0]], lam[0])
    assert_allclose(lam.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert_allclose(np.einsum("mj,mjd->md", lam, corners), x, rtol=0,
                    atol=1e-12)


def test_edge_statistics_and_circumcenters():
    mesh = build_mesh(Domain.unit_square(), 4)
    _, _, counts = edge_table(mesh.triangles)
    # n=4 square: 41 vertices? no: (n+1)^2=25 vertices, 32 triangles,
    # edges = V + T - 1 by Euler; a boundary edge has one triangle
    assert counts.size == mesh.num_vertices + mesh.num_triangles - 1
    assert np.sum(counts == 1) == 4 * 4  # n segments per side
    cc = circumcenters(mesh.vertices, mesh.triangles)
    assert cc.shape == (mesh.num_triangles, 2)
    # a right triangle's circumcenter is the hypotenuse midpoint
    tri = mesh.vertices[mesh.triangles[0]]
    lens = [np.linalg.norm(tri[(k + 1) % 3] - tri[(k + 2) % 3])
            for k in range(3)]
    far = int(np.argmax(lens))
    mid = 0.5 * (tri[(far + 1) % 3] + tri[(far + 2) % 3])
    assert_allclose(cc[0], mid, atol=1e-12)


_DISK = Domain.disk(0.0, 0.0, 1.0)
_RECT = Domain.rectangle(0.0, 0.0, 2.0, 1.0)
_SQUARE = Domain.unit_square()
# (domain, resolution, refine points, levels, splits boundary edges)
_GRADED_CASES = {
    # the center is a grid vertex; at n = 8 the closure reaches the
    # circle, so new boundary midpoints are projected onto it
    "disk-center-12": (_DISK, 8,
                       compute_separation_radii([[0.0, 0.0]], _DISK), 12,
                       True),
    # radii larger than any separation radius: a triangle can lie in
    # both marking balls
    "disk-overlapping-balls": (_DISK, 8, SimpleNamespace(
        points=np.array([[-0.1, 0.0], [0.1, 0.05]]),
        radii=np.array([0.5, 0.5]), count=2), 5, True),
    # two balls, each growing from few triangles: the stores of the
    # triangles, edges and vertices each grow three times
    "disk-two-points-12": (_DISK, 24, compute_separation_radii(
        [[0.3, 0.0], [-0.3, 0.1]], _DISK), 12, False),
    "rectangle-three-points": (_RECT, 8, compute_separation_radii(
        [[0.5, 0.5], [1.2, 0.3], [1.5, 0.7]], _RECT), 5, False),
    "square-one-level": (_SQUARE, 16,
                         compute_separation_radii([[0.3, 0.6]], _SQUARE), 1,
                         False),
}


@pytest.mark.parametrize("case", sorted(_GRADED_CASES))
def test_graded_build_matches_the_level_by_level_reference(case):
    domain, n, pts, levels, splits_boundary = _GRADED_CASES[case]
    reference = reference_graded_meshes(domain, n, pts, levels)
    ref = reference[-1]
    mesh = build_mesh(domain, n, refine_points=pts, refine_levels=levels)
    assert np.array_equal(mesh.vertices, ref.vertices)
    assert np.array_equal(mesh.triangles, ref.triangles)
    assert np.array_equal(mesh.boundary, ref.boundary)
    assert np.array_equal(mesh.areas, ref.areas)
    assert mesh.h == ref.h
    assert mesh.num_triangles > reference[0].num_triangles
    new_boundary = ref.boundary.sum() - reference[0].boundary.sum()
    assert (new_boundary > 0) == splits_boundary


_SIZE_CASES = dict(
    {case: lambda case=case: build_mesh(
        *_GRADED_CASES[case][:2], refine_points=_GRADED_CASES[case][2],
        refine_levels=_GRADED_CASES[case][3]) for case in _GRADED_CASES},
    square=lambda: build_mesh(_SQUARE, 37),
    disk=lambda: build_mesh(_DISK, 29),
    # the squared edge lengths overflow: the full computation decides
    overflow=lambda: mesh_from_arrays(
        np.array([[0.0, 0.0], [2e160, 0.0], [0.0, 3e160]]),
        np.array([[0, 1, 2]]), np.ones(3, dtype=bool), _SQUARE))


@pytest.mark.parametrize("case", sorted(_SIZE_CASES))
def test_mesh_size_keeps_the_bits_of_the_largest_edge_length(case):
    # h takes hypot only near the largest squared length; the allowance
    # m h^2 of the mollified certificates reaches the reports
    with np.errstate(over="ignore"):
        mesh = _SIZE_CASES[case]()
        corners = mesh.vertices[mesh.triangles]
        assert mesh.h == float(_edge_lengths(corners).max())


@pytest.mark.parametrize("case", sorted(_SIZE_CASES))
def test_edge_lengths_keep_the_bits_of_the_rolled_corners(case):
    # the same differences and hypot as the rolled copies, so the
    # triangle picks and subdivision depths of the mollified loads keep
    # their bits
    with np.errstate(over="ignore"):
        mesh = _SIZE_CASES[case]()
        corners = mesh.vertices[mesh.triangles]
        assert np.array_equal(_edge_lengths(corners),
                              reference_edge_lengths(corners))
        # broadcast over leading axes as well
        assert np.array_equal(_edge_lengths(corners[None, :5]),
                              reference_edge_lengths(corners[None, :5]))


def _children(reference):
    """Triangles created at each level of a level-by-level build: the
    rows of a level that are not rows of the level before."""
    created = []
    for coarse, fine in zip(reference[:-1], reference[1:]):
        rows = set(map(tuple, coarse.triangles))
        created.append(sum(tuple(t) not in rows for t in fine.triangles))
    return created


def test_graded_build_validates_once_and_carries_its_edge_table(
        monkeypatch):
    domain, n, pts, levels, _ = _GRADED_CASES["disk-center-12"]
    calls = {"Mesh": 0, "circumcenters": 0}

    def counted(name, fn, rows=lambda *args: 1):
        def wrapper(*args):
            calls[name] += rows(*args)
            return fn(*args)
        monkeypatch.setattr(mesh_module, name, wrapper)
    counted("Mesh", mesh_module.Mesh)
    counted("circumcenters", circumcenters,
            rows=lambda vertices, triangles: triangles.shape[0])

    # (a) one validated Mesh per build, whatever the number of levels
    for depth in (0, 1, levels):
        calls.update(dict.fromkeys(calls, 0))
        build_mesh(domain, n, refine_points=pts, refine_levels=depth)
        assert calls["Mesh"] == 1

    # (b) circumcenters of the base grid, then only of new children
    reference = reference_graded_meshes(domain, n, pts, levels)
    assert reference[0].num_triangles + sum(_children(reference)) \
        < sum(m.num_triangles for m in reference[:-1])
    assert calls["circumcenters"] <= (reference[0].num_triangles
                                      + sum(_children(reference)))


def _assert_located_as_by_the_scan(mesh, points):
    """locate_point on the (K, 2) points gives each point that the full
    scan locates the scan's triangle and coordinates, bit for bit, in
    one call; each point that the scan does not locate raises alone.
    Returns the number of points located."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    expected, held = [], []
    for x in points:
        try:
            expected.append(reference_locate(mesh, x))
            held.append(x)
        except ValueError:
            with pytest.raises(ValueError, match="^source point 0 at"):
                locate_point(mesh, [x])
    t, lam = locate_point(mesh, np.reshape(held, (-1, 2)))
    assert t.tolist() == [e[0] for e in expected]
    assert lam.tobytes() == np.array([e[1] for e in expected]).tobytes()
    return len(held)


@pytest.mark.parametrize("case", ["disk-center-12", "rectangle-three-points"])
def test_locate_point_matches_the_full_scan_on_edges_and_vertices(case):
    domain, n, pts, levels, _ = _GRADED_CASES[case]
    mesh = build_mesh(domain, n, refine_points=pts, refine_levels=levels)
    edges, _, _ = edge_table(mesh.triangles)
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]]
                       + mesh.vertices[edges[:, 1]])
    rng = np.random.default_rng(4)
    t = rng.integers(0, mesh.num_triangles, 200)
    interior = np.einsum("mj,mjd->md", rng.dirichlet(np.ones(3), 200),
                         mesh.vertices[mesh.triangles[t]])
    _assert_located_as_by_the_scan(
        mesh, np.vstack([mesh.vertices, midpoints, interior]))


def test_locate_point_matches_the_full_scan_at_the_graded_disk_center():
    _assert_located_as_by_the_scan(graded_disk(), [0.0, 0.0])


def test_locate_point_matches_the_full_scan_just_outside_the_square():
    # 5e-13 outside the boundary of the one-cell square: the coordinate
    # of the far corner is -5e-13, inside the tolerance, and the point
    # lies outside every unwidened bounding box
    assert _assert_located_as_by_the_scan(
        build_mesh(_SQUARE, 1), [[0.3, -5e-13], [-5e-13, 0.6],
                                 [1.0 + 5e-13, 0.2], [0.5, 1.0 + 5e-13]]) == 4


def test_first_locate_on_a_graded_build_sorts_no_edges():
    domain, n, pts, levels, _ = _GRADED_CASES["disk-center-12"]
    large = graded_disk()
    mesh = build_mesh(domain, n, refine_points=pts, refine_levels=levels)
    # the center is a grid vertex of every level
    t, lam = locate_point(mesh, [[0.0, 0.0]])
    assert np.max(lam) == 1.0
    locate_point(large, [[0.0, 0.0]])


_LOCATE_MESHES = {
    "square": lambda: build_mesh(_SQUARE, 8),
    "disk": lambda: build_mesh(_DISK, 8),
    "disk-graded-6": lambda: build_mesh(
        _DISK, 8, refine_points=compute_separation_radii([[0.0, 0.0]], _DISK),
        refine_levels=6),
}


@functools.cache
def _locate_mesh(case):
    return _LOCATE_MESHES[case]()


# a point: a vertex (kind 0), an edge midpoint (1), or a point of a
# triangle (2) with coordinates from the two weights, folded into it
_DRAWN_POINTS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 10 ** 6),
              st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    min_size=1, max_size=64)


@pytest.mark.parametrize("case", sorted(_LOCATE_MESHES))
@settings(max_examples=50)
@given(drawn=_DRAWN_POINTS)
def test_one_pass_locates_drawn_points_as_the_full_scan(case, drawn):
    mesh = _locate_mesh(case)
    points = []
    for kind, k, a, b in drawn:
        if kind == 0:
            points.append(mesh.vertices[k % mesh.num_vertices])
        elif kind == 1:
            lo, hi = mesh.edges[k % mesh.edges.shape[0]]
            points.append(0.5 * (mesh.vertices[lo] + mesh.vertices[hi]))
        else:
            if a + b > 1.0:
                a, b = 1.0 - a, 1.0 - b
            corners = mesh.vertices[mesh.triangles[k % mesh.num_triangles]]
            points.append((1.0 - a - b) * corners[0] + a * corners[1]
                          + b * corners[2])
    _assert_located_as_by_the_scan(mesh, points)
