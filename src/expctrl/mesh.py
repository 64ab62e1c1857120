"""Conforming triangulations of rectangles and disks.

Rectangles get the structured criss-cross pattern (all diagonals in the
same direction, so the stiffness matrix is the classical five-point
stencil and an M-matrix).  Disks are meshed by mapping a structured
square grid with the elliptical map and projecting boundary vertices
onto the circle.  Local refinement near source points is red-green:
marked triangles are quartered, hanging nodes are resolved by bisection,
and existing vertices never move.
"""

import numpy as np


class Domain:
    """Computational domain, an axis-aligned rectangle or a disk."""

    def __init__(self, kind, params, name):
        self.kind = kind
        self.params = params
        self.name = name

    @classmethod
    def rectangle(cls, x0, y0, x1, y1, name="rectangle"):
        if not (x1 > x0 and y1 > y0):
            raise ValueError("degenerate rectangle")
        return cls("rectangle", (float(x0), float(y0), float(x1), float(y1)),
                   name)

    @classmethod
    def unit_square(cls):
        return cls.rectangle(0.0, 0.0, 1.0, 1.0, name="unit square")

    @classmethod
    def disk(cls, cx, cy, radius, name="disk"):
        if not radius > 0.0:
            raise ValueError("degenerate disk")
        return cls("disk", (float(cx), float(cy), float(radius)), name)

    def diameter(self):
        if self.kind == "rectangle":
            x0, y0, x1, y1 = self.params
            return float(np.hypot(x1 - x0, y1 - y0))
        cx, cy, r = self.params
        return 2.0 * r

    def area(self):
        if self.kind == "rectangle":
            x0, y0, x1, y1 = self.params
            return (x1 - x0) * (y1 - y0)
        return np.pi * self.params[2] ** 2

    def boundary_distance(self, x):
        """Signed distance to the boundary, positive inside.

        Accepts a single point (2,) or a stack (N, 2); the rectangle
        case is exact point-to-edge distance, the disk case is
        radius - |x - center|.
        """
        x = np.asarray(x, dtype=float)
        single = (x.ndim == 1)
        pts = x.reshape(-1, 2)
        if self.kind == "rectangle":
            x0, y0, x1, y1 = self.params
            inside = np.minimum(
                np.minimum(pts[:, 0] - x0, x1 - pts[:, 0]),
                np.minimum(pts[:, 1] - y0, y1 - pts[:, 1]))
            dx = np.maximum(np.maximum(x0 - pts[:, 0], pts[:, 0] - x1), 0.0)
            dy = np.maximum(np.maximum(y0 - pts[:, 1], pts[:, 1] - y1), 0.0)
            outside = np.hypot(dx, dy)
            d = np.where(inside >= 0.0, inside, -outside)
        else:
            cx, cy, r = self.params
            d = r - np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
        return float(d[0]) if single else d

    def contains(self, x, tol=0.0):
        return self.boundary_distance(x) >= -tol


class Mesh:
    """Conforming P1 triangulation.

    Attributes
    ----------
    vertices : (V, 2) float array
    triangles : (T, 3) int array, counterclockwise orientation
    boundary : (V,) bool array, vertices on the domain boundary
    domain : Domain
    h : float, maximum edge length
    areas : (T,) float array of triangle areas

    A built mesh is treated as immutable; refinement returns a new mesh.
    """

    def __init__(self, vertices, triangles, boundary, domain):
        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        boundary = np.asarray(boundary, dtype=bool)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError("vertices must be (V, 2)")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must be (T, 3)")
        if boundary.shape != (vertices.shape[0],):
            raise ValueError("one boundary flag per vertex required")
        areas = _signed_areas(vertices, triangles)
        flip = areas < 0.0
        if np.any(flip):
            triangles = triangles.copy()
            triangles[flip] = triangles[flip][:, [0, 2, 1]]
            areas = np.abs(areas)
        if np.any(areas <= 0.0):
            raise ValueError("degenerate triangle in mesh")
        self.vertices = vertices
        self.triangles = triangles
        self.boundary = boundary
        self.domain = domain
        self.areas = areas
        e = _edge_lengths(vertices, triangles)
        self.h = float(e.max())
        self._neighbors = None
        self._vertex_tri = None

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def neighbors(self):
        """(T, 3) array of neighbor triangle indices, -1 on the boundary.

        Entry [t, j] is the triangle sharing the edge opposite local
        vertex j of triangle t.
        """
        if self._neighbors is None:
            self._neighbors = _build_neighbors(self.triangles)
        return self._neighbors

    def vertex_triangle(self):
        """For each vertex, the smallest triangle index containing it."""
        if self._vertex_tri is None:
            vt = np.full(self.num_vertices, self.num_triangles,
                         dtype=np.int64)
            np.minimum.at(vt, self.triangles.ravel(),
                          np.repeat(np.arange(self.num_triangles), 3))
            self._vertex_tri = vt
        return self._vertex_tri


def _signed_areas(vertices, triangles):
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    return 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                  - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))


def _edge_lengths(vertices, triangles):
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    return np.stack([
        np.hypot(*(p1 - p2).T),
        np.hypot(*(p2 - p0).T),
        np.hypot(*(p0 - p1).T)])


def _tri_edges(triangles):
    """Unique sorted edges, (T, 3) edge ids, and per-edge incidence count.

    Edge slot j of a triangle is the edge opposite local vertex j.
    """
    T = triangles.shape[0]
    raw = np.empty((T, 3, 2), dtype=np.int64)
    for j in range(3):
        raw[:, j, 0] = triangles[:, (j + 1) % 3]
        raw[:, j, 1] = triangles[:, (j + 2) % 3]
    raw = np.sort(raw, axis=2).reshape(-1, 2)
    # one int64 key per edge sorts in the same (lo, hi) order as the rows
    V = int(triangles.max()) + 1
    keys, inverse = np.unique(raw[:, 0] * V + raw[:, 1], return_inverse=True)
    edges = np.column_stack([keys // V, keys % V])
    counts = np.bincount(inverse, minlength=edges.shape[0])
    return edges, inverse.reshape(T, 3), counts


def _build_neighbors(triangles):
    T = triangles.shape[0]
    _, tri_edge, counts = _tri_edges(triangles)
    nbr = np.full((T, 3), -1, dtype=np.int64)
    order = np.argsort(tri_edge.ravel(), kind="stable")
    flat_tri = order // 3
    flat_slot = order % 3
    eid = tri_edge.ravel()[order]
    # interior edges appear exactly twice and are adjacent after sorting
    first = np.nonzero((eid[:-1] == eid[1:]))[0]
    t1, j1 = flat_tri[first], flat_slot[first]
    t2, j2 = flat_tri[first + 1], flat_slot[first + 1]
    nbr[t1, j1] = t2
    nbr[t2, j2] = t1
    return nbr


def edge_statistics(mesh):
    """(edge count, boundary edge count); an edge is boundary when it
    belongs to exactly one triangle."""
    _, _, counts = _tri_edges(mesh.triangles)
    return counts.size, int(np.sum(counts == 1))


def circumcenters(mesh):
    """(T, 2) array of triangle circumcenters."""
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    p1 = mesh.vertices[mesh.triangles[:, 1]]
    p2 = mesh.vertices[mesh.triangles[:, 2]]
    a = p1 - p0
    b = p2 - p0
    d = 2.0 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    a2 = a[:, 0] ** 2 + a[:, 1] ** 2
    b2 = b[:, 0] ** 2 + b[:, 1] ** 2
    ux = (b[:, 1] * a2 - a[:, 1] * b2) / d
    uy = (a[:, 0] * b2 - b[:, 0] * a2) / d
    return p0 + np.stack([ux, uy], axis=1)


def build_mesh(domain, resolution, refine_points=None, refine_levels=0):
    """Structured mesh of the domain, optionally graded near source points.

    Parameters
    ----------
    domain : Domain
    resolution : int
        Subdivisions per side of the generating grid; a rectangle gets
        2*resolution**2 triangles.
    refine_points : SourcePoints or None
        When given together with refine_levels > 0, triangles whose
        circumcenter lies within rho_i/2 of some x_i are red-refined,
        with green closure; at each further level the marking ball is
        halved, so the mesh is geometrically graded toward x_i and the
        triangle count grows only linearly with refine_levels.  The
        radii here only steer the refinement region; callers may pass
        radii smaller than the canonical separation radii.
    refine_levels : int

    Returns
    -------
    Mesh
    """
    resolution = int(resolution)
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    if domain.kind == "rectangle":
        mesh = _rectangle_mesh(domain, resolution)
    elif domain.kind == "disk":
        mesh = _disk_mesh(domain, resolution)
    else:
        raise ValueError("unknown domain kind %r" % (domain.kind,))
    if refine_points is not None and refine_levels > 0:
        green = np.zeros(mesh.num_triangles, dtype=bool)
        for level in range(int(refine_levels)):
            mesh, green = _refine_once(mesh, refine_points, green,
                                       0.5 ** (level + 1))
    return mesh


def _rectangle_mesh(domain, n):
    x0, y0, x1, y1 = domain.params
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    X, Y = np.meshgrid(xs, ys)
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    iy, ix = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    a = (iy * (n + 1) + ix).ravel()
    b = a + 1
    c = a + (n + 1)
    d = c + 1
    # diagonal from a to d in every cell
    lower = np.column_stack([a, b, d])
    upper = np.column_stack([a, d, c])
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper
    ix_all = np.tile(np.arange(n + 1), n + 1)
    iy_all = np.repeat(np.arange(n + 1), n + 1)
    boundary = (ix_all == 0) | (ix_all == n) | (iy_all == 0) | (iy_all == n)
    return Mesh(vertices, triangles, boundary, domain)


def _disk_mesh(domain, n):
    cx, cy, R = domain.params
    square = Domain.rectangle(-1.0, -1.0, 1.0, 1.0)
    base = _rectangle_mesh(square, n)
    u = base.vertices[:, 0]
    v = base.vertices[:, 1]
    # elliptical square-to-disk map; grid boundary lands on the circle
    px = u * np.sqrt(np.maximum(1.0 - 0.5 * v * v, 0.0))
    py = v * np.sqrt(np.maximum(1.0 - 0.5 * u * u, 0.0))
    pts = np.column_stack([px, py])
    r = np.hypot(px, py)
    on_bdry = base.boundary
    # snap boundary vertices exactly onto the unit circle
    pts[on_bdry] /= r[on_bdry, None]
    vertices = np.column_stack([cx + R * pts[:, 0], cy + R * pts[:, 1]])
    return Mesh(vertices, base.triangles, on_bdry, domain)


def _refine_once(mesh, refine_points, green, ball_factor):
    """One red-green sweep.  Marked triangles (circumcenter within
    ball_factor * rho_i of a source point) are quartered; neighbors with
    two or three split edges are promoted to red, one split edge gives a
    bisection.  Green triangles from the previous sweep are promoted to
    red instead of being bisected again, which keeps angles bounded."""
    cc = circumcenters(mesh)
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
        # keep new boundary vertices exactly on the circle
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
    new_tris = np.vstack(parts)
    new_green = np.concatenate(part_green)
    refined = Mesh(vertices, new_tris, boundary, domain)
    return refined, new_green


def barycentric(mesh, t, x):
    """Barycentric coordinates of x in triangle t (may be negative)."""
    v0, v1, v2 = mesh.triangles[t]
    p0 = mesh.vertices[v0]
    p1 = mesh.vertices[v1]
    p2 = mesh.vertices[v2]
    den = (p1[0] - p0[0]) * (p2[1] - p0[1]) \
        - (p2[0] - p0[0]) * (p1[1] - p0[1])
    l1 = ((x[0] - p0[0]) * (p2[1] - p0[1])
          - (p2[0] - p0[0]) * (x[1] - p0[1])) / den
    l2 = ((p1[0] - p0[0]) * (x[1] - p0[1])
          - (x[0] - p0[0]) * (p1[1] - p0[1])) / den
    return np.array([1.0 - l1 - l2, l1, l2])


_BARY_TOL = 1e-12


def locate_point(mesh, x):
    """Find the triangle containing x and its barycentric coordinates.

    Walks the neighbor graph from a triangle at the nearest vertex; when
    the walk stalls, or when x lies on a shared edge or vertex, falls
    back to a full scan where the smallest eligible triangle index wins.
    The returned coordinates are clipped to be nonnegative and
    renormalized.

    Raises ValueError("point not located") for points outside the mesh.
    """
    x = np.asarray(x, dtype=float).reshape(2)
    nbr = mesh.neighbors()
    d2 = np.sum((mesh.vertices - x) ** 2, axis=1)
    t = int(mesh.vertex_triangle()[int(np.argmin(d2))])
    for _ in range(mesh.num_triangles):
        lam = barycentric(mesh, t, x)
        j = int(np.argmin(lam))
        if lam[j] >= -_BARY_TOL:
            if np.min(lam) <= _BARY_TOL:
                break  # on an edge or vertex: scan for the smallest index
            return t, _clip_bary(lam)
        t2 = nbr[t, j]
        if t2 < 0:
            break
        t = t2
    return _locate_scan(mesh, x)


def _locate_scan(mesh, x):
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    p1 = mesh.vertices[mesh.triangles[:, 1]]
    p2 = mesh.vertices[mesh.triangles[:, 2]]
    den = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) \
        - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1])
    l1 = ((x[0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
          - (p2[:, 0] - p0[:, 0]) * (x[1] - p0[:, 1])) / den
    l2 = ((p1[:, 0] - p0[:, 0]) * (x[1] - p0[:, 1])
          - (x[0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1])) / den
    l0 = 1.0 - l1 - l2
    ok = (l0 >= -_BARY_TOL) & (l1 >= -_BARY_TOL) & (l2 >= -_BARY_TOL)
    idx = np.nonzero(ok)[0]
    if idx.size == 0:
        raise ValueError("point not located")
    t = int(idx[0])
    return t, _clip_bary(np.array([l0[t], l1[t], l2[t]]))


def _clip_bary(lam):
    lam = np.maximum(lam, 0.0)
    return lam / lam.sum()
