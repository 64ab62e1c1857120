import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from expctrl.mesh import (Domain, _tri_edges, barycentric, build_mesh,
                          circumcenters, edge_statistics, locate_point)
from expctrl.sequences import compute_separation_radii


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
    with pytest.raises(ValueError):
        Domain.rectangle(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Domain.disk(0.0, 0.0, 0.0)


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


def test_vertex_triangle_is_the_smallest_incident_triangle():
    dom = Domain.unit_square()
    pts = compute_separation_radii([[0.3, 0.4], [0.7, 0.6]], dom)
    mesh = build_mesh(dom, 6, refine_points=pts, refine_levels=3)
    brute = [int(np.nonzero(np.any(mesh.triangles == v, axis=1))[0].min())
             for v in range(mesh.num_vertices)]
    assert np.array_equal(mesh.vertex_triangle(), brute)


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
    edges, tri_edge, counts = _tri_edges(mesh.triangles)
    assert np.array_equal(edges, ref_edges)
    assert np.array_equal(tri_edge, ref_inverse.reshape(T, 3))
    assert np.array_equal(counts, ref_counts)


def test_locate_point_at_vertex_and_barycenter():
    mesh = build_mesh(Domain.unit_square(), 4)
    vid = 7
    t, lam = locate_point(mesh, mesh.vertices[vid])
    assert np.max(lam) > 1.0 - 1e-12
    assert vid in mesh.triangles[t]
    center = np.mean(mesh.vertices[mesh.triangles[3]], axis=0)
    t2, lam2 = locate_point(mesh, center)
    assert t2 == 3
    assert_allclose(lam2, [1.0 / 3.0] * 3, atol=1e-12)


def test_locate_point_outside_raises():
    mesh = build_mesh(Domain.unit_square(), 4)
    with pytest.raises(ValueError, match="not located"):
        locate_point(mesh, [1.5, 0.5])


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_locate_point_reconstructs_coordinates(x, y):
    mesh = build_mesh(Domain.unit_square(), 5)
    t, lam = locate_point(mesh, [x, y])
    assert np.all(lam >= -1e-12)
    assert abs(np.sum(lam) - 1.0) < 1e-12
    rec = lam @ mesh.vertices[mesh.triangles[t]]
    assert np.hypot(rec[0] - x, rec[1] - y) < 1e-10 * mesh.domain.diameter()


def test_barycentric_matches_direct_solve():
    mesh = build_mesh(Domain.unit_square(), 3)
    x = np.array([0.41, 0.27])
    t, lam = locate_point(mesh, x)
    lam2 = barycentric(mesh, t, x)
    assert_allclose(lam, lam2, atol=1e-13)


def test_edge_statistics_and_circumcenters():
    mesh = build_mesh(Domain.unit_square(), 4)
    edges, boundary_edges = edge_statistics(mesh)
    # n=4 square: 41 vertices? no: (n+1)^2=25 vertices, 32 triangles,
    # edges = V + T - 1 by Euler
    assert edges == mesh.num_vertices + mesh.num_triangles - 1
    assert boundary_edges == 4 * 4  # n segments per side
    cc = circumcenters(mesh)
    assert cc.shape == (mesh.num_triangles, 2)
    # a right triangle's circumcenter is the hypotenuse midpoint
    tri = mesh.vertices[mesh.triangles[0]]
    lens = [np.linalg.norm(tri[(k + 1) % 3] - tri[(k + 2) % 3])
            for k in range(3)]
    far = int(np.argmax(lens))
    mid = 0.5 * (tri[(far + 1) % 3] + tri[(far + 2) % 3])
    assert_allclose(cc[0], mid, atol=1e-12)
