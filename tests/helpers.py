"""Shared test helpers: conversions between full-size scipy matrices and
the free-block CSR operators that the solvers take, and the level-by-level
reference for graded refinement."""

import numpy as np
import scipy.sparse as sp

from expctrl.fem import CSR
from expctrl.mesh import Mesh, _tri_edges, build_mesh, circumcenters


def free_block(mesh, A):
    """The free-block operator of a full-size matrix: the CSR of its
    rows and columns off the boundary."""
    free = ~mesh.boundary
    return CSR.of(A.tocsr()[free][:, free])


def scipy_csr(op):
    """A scipy CSR matrix on copies of a CSR operator's arrays, so that
    in-place scipy methods leave the operator alone."""
    return sp.csr_matrix((op.data, op.indices, op.indptr), shape=op.shape,
                         copy=True)


def reference_graded_meshes(domain, resolution, refine_points, levels):
    """The graded mesh built level by level, a validated Mesh after each
    red-green sweep: [base, level 1, ..., level `levels`].  The reference
    that build_mesh, which carries one edge table across the levels and
    validates once, must reproduce bit for bit."""
    meshes = [build_mesh(domain, resolution)]
    green = np.zeros(meshes[0].num_triangles, dtype=bool)
    for level in range(levels):
        mesh, green = _refine_once(meshes[-1], refine_points, green,
                                   0.5 ** (level + 1))
        meshes.append(mesh)
    return meshes


def _refine_once(mesh, refine_points, green, ball_factor):
    """One red-green sweep over the whole mesh.  Marked triangles
    (circumcenter within ball_factor * rho_i of a source point) are
    quartered; neighbors with two or three split edges are promoted to
    red, one split edge gives a bisection.  Green triangles from the
    previous sweep are promoted to red instead of being bisected
    again."""
    cc = circumcenters(mesh.vertices, mesh.triangles)
    red = np.zeros(mesh.num_triangles, dtype=bool)
    for i in range(refine_points.count):
        xi = refine_points.points[i]
        rho = refine_points.radii[i]
        dist = np.hypot(cc[:, 0] - xi[0], cc[:, 1] - xi[1])
        red |= dist < ball_factor * rho

    tris = mesh.triangles
    edges, tri_edge, counts = _tri_edges(tris)
    split = np.zeros(edges.shape[0], dtype=bool)
    while True:
        split[tri_edge[red].ravel()] = True
        nsplit = split[tri_edge].sum(axis=1)
        promote = ~red & ((nsplit >= 2) | ((nsplit == 1) & green))
        if not promote.any():
            break
        red |= promote

    split_ids = np.nonzero(split)[0]
    midpoint = np.full(edges.shape[0], -1, dtype=np.int64)
    midpoint[split_ids] = mesh.num_vertices + np.arange(split_ids.size)
    new_coords = 0.5 * (mesh.vertices[edges[split_ids, 0]]
                        + mesh.vertices[edges[split_ids, 1]])
    new_bdry = counts[split_ids] == 1
    domain = mesh.domain
    if domain.kind == "disk" and new_bdry.any():
        cx, cy, R = domain.params
        vec = new_coords[new_bdry] - [cx, cy]
        nrm = np.hypot(vec[:, 0], vec[:, 1])
        new_coords[new_bdry] = [cx, cy] + vec * (R / nrm)[:, None]
    vertices = np.vstack([mesh.vertices, new_coords])
    boundary = np.concatenate([mesh.boundary, new_bdry])

    keep = ~red & (nsplit == 0)
    one = ~red & (nsplit == 1)
    parts = [tris[keep]]
    part_green = [green[keep]]
    if one.any():
        j = np.argmax(split[tri_edge[one]], axis=1)
        t_one = tris[one]
        idx = np.arange(t_one.shape[0])
        a = t_one[idx, (j + 1) % 3]
        b = t_one[idx, (j + 2) % 3]
        c = t_one[idx, j]
        m = midpoint[tri_edge[one][idx, j]]
        parts.append(np.column_stack([a, m, c]))
        parts.append(np.column_stack([m, b, c]))
        part_green.append(np.ones(t_one.shape[0], dtype=bool))
        part_green.append(np.ones(t_one.shape[0], dtype=bool))
    if red.any():
        t_red = tris[red]
        mid = midpoint[tri_edge[red]]          # (n, 3), slot j opposite j
        m12, m20, m01 = mid[:, 0], mid[:, 1], mid[:, 2]
        v0, v1, v2 = t_red[:, 0], t_red[:, 1], t_red[:, 2]
        parts.append(np.column_stack([v0, m01, m20]))
        parts.append(np.column_stack([v1, m12, m01]))
        parts.append(np.column_stack([v2, m20, m12]))
        parts.append(np.column_stack([m01, m12, m20]))
        part_green.extend([np.zeros(t_red.shape[0], dtype=bool)] * 4)
    refined = Mesh(vertices, np.vstack(parts), boundary, domain)
    return refined, np.concatenate(part_green)
