"""Conforming triangulations of rectangles and disks.

Rectangles get the structured criss-cross pattern (all diagonals in the
same direction, so the stiffness matrix is the classical five-point
stencil and an M-matrix).  Disks are meshed by mapping a structured
square grid with the elliptical map and projecting boundary vertices
onto the circle.  Local refinement near source points is red-green:
marked triangles are quartered, hanging nodes are resolved by bisection,
and existing vertices never move.  Every mesh carries its edge table,
which the assembly of its matrices sums over: the structured grid forms
it by index arithmetic, and the levels of a graded mesh carry and
update it.  Those levels work on bare arrays: only the children of the
previous level are candidates for marking, a level appends its
children to stores that keep the triangles it does not refine in
place, and a single Mesh validates the result.  build_mesh is the only
source of a mesh: a Mesh takes its edge table from its caller and
rejects a clockwise triangle rather than reorienting it.  Points are
located in one pass over the triangles' x-extents, each point testing
the rest of its bounding-box filter on its x-strip alone.
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
        """Signed distance of the point x (2,) to the boundary, positive
        inside: the exact point-to-edge distance for a rectangle,
        radius - |x - center| for a disk.
        """
        px, py = np.asarray(x, dtype=float).reshape(2)
        if self.kind == "rectangle":
            x0, y0, x1, y1 = self.params
            inside = min(px - x0, x1 - px, py - y0, y1 - py)
            if inside >= 0.0:
                return float(inside)
            dx = max(x0 - px, px - x1, 0.0)
            dy = max(y0 - py, py - y1, 0.0)
            return -float(np.hypot(dx, dy))
        cx, cy, r = self.params
        return float(r - np.hypot(px - cx, py - cy))


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
    edges : (E, 2) int32 array, each edge once as (lo, hi), lo < hi
    triangle_edges : (T, 3) int32 array, slot j the edge opposite corner j

    A built mesh is treated as immutable; build_mesh refines bare arrays
    and constructs the Mesh once, at the end, handing over the edge
    table it carries.  The grids and their refinements are
    counterclockwise by construction, so a clockwise or degenerate
    triangle (a grading so deep that it degenerates in floating point)
    is the builder's fault: RuntimeError.  The tables are not checked.
    """

    def __init__(self, vertices, triangles, boundary, domain, edges,
                 triangle_edges):
        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        boundary = np.asarray(boundary, dtype=bool)
        # np.take: the rows that indexing gathers, without its overhead
        corners = np.take(vertices, triangles, axis=0)
        areas = _signed_areas(corners)
        if np.any(areas <= 0.0):
            raise RuntimeError("clockwise or degenerate triangle in mesh")
        self.vertices = vertices
        self.triangles = triangles
        self.boundary = boundary
        self.domain = domain
        self.areas = areas
        self.h = float(_edge_lengths(corners).max())
        self.edges = np.asarray(edges, dtype=np.int32)
        self.triangle_edges = np.asarray(triangle_edges, dtype=np.int32)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]


def _signed_areas(corners):
    """Signed areas (...,) of triangles with corners (..., 3, 2),
    positive for counterclockwise corners."""
    e1 = corners[..., 1, :] - corners[..., 0, :]
    e2 = corners[..., 2, :] - corners[..., 0, :]
    return 0.5 * (e1[..., 0] * e2[..., 1] - e2[..., 0] * e1[..., 1])


def _edge_lengths(corners):
    """Edge lengths (..., 3) of triangles with corners (..., 3, 2);
    entry j is the edge opposite corner j, corner j+1 minus corner j+2
    (mod 3), formed from the corner columns without copying them."""
    lengths = np.empty(corners.shape[:-1])
    dx, dy = np.empty(corners.shape[:-2]), np.empty(corners.shape[:-2])
    for j in range(3):
        a, b = (j + 1) % 3, (j + 2) % 3
        np.subtract(corners[..., a, 0], corners[..., b, 0], out=dx)
        np.subtract(corners[..., a, 1], corners[..., b, 1], out=dy)
        np.hypot(dx, dy, out=lengths[..., j])
    return lengths


def circumcenters(vertices, triangles):
    """(T, 2) array of the circumcenters of triangles (T, 3) with
    corners in vertices (V, 2); a degenerate triangle's is not finite,
    without a warning."""
    # one contiguous array per coordinate and corner
    (x0, x1, x2), (y0, y1, y2) = (
        [np.take(vertices[:, k], triangles[:, j]) for j in range(3)]
        for k in range(2))
    ax, ay = x1 - x0, y1 - y0
    bx, by = x2 - x0, y2 - y0
    d = 2.0 * (ax * by - ay * bx)
    a2 = ax ** 2 + ay ** 2
    b2 = bx ** 2 + by ** 2
    centers = np.empty((triangles.shape[0], 2))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.add(x0, (by * a2 - ay * b2) / d, out=centers[:, 0])
        np.add(y0, (ax * b2 - bx * a2) / d, out=centers[:, 1])
    return centers


def build_mesh(domain, resolution, refine_points=None, refine_levels=0):
    """Structured mesh of the domain, optionally graded near source points.

    The levels work on bare arrays (see _graded): one edge table is
    carried across them, only the previous level's children are
    candidates for marking, each level appends only its children, and
    the single Mesh built at the end validates the result once.

    Parameters
    ----------
    domain : Domain
    resolution : int
        Subdivisions per side of the generating grid, at least 1; a
        rectangle gets 2*resolution**2 triangles.
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
    if domain.kind == "rectangle":
        grid = _rectangle_grid(domain.params, resolution)
    else:
        grid = _disk_grid(domain.params, resolution)
    if refine_points is not None and refine_levels > 0:
        grid = _graded(domain, *grid, refine_points, refine_levels)
    vertices, triangles, boundary, edges, triangle_edges = grid
    return Mesh(vertices, triangles, boundary, domain, edges, triangle_edges)


def _rectangle_grid(params, n):
    """Vertices, counterclockwise triangles, boundary flags, edges and
    triangle edges of the criss-cross grid with n cells per side.

    Vertex (iy, ix) is iy (n + 1) + ix.  The edges are the horizontal
    ones, then the vertical ones, then the diagonals, each group in the
    order of its first vertex, so every id is index arithmetic."""
    x0, y0, x1, y1 = params
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
    ids = np.arange((n + 1) ** 2, dtype=np.int32).reshape(n + 1, n + 1)
    edges = np.concatenate([
        np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()]),
        np.column_stack([ids[:-1].ravel(), ids[1:].ravel()]),
        np.column_stack([a, d]).astype(np.int32)])
    # the edges of cell (iy, ix), numbered cell = iy n + ix
    cell = np.arange(n * n, dtype=np.int32)
    bottom, top = cell, cell + n
    left = n * (n + 1) + cell + cell // n
    right = left + 1
    diagonal = 2 * n * (n + 1) + cell
    # slot j is the edge opposite corner j: lower (a, b, d), upper (a, d, c)
    triangle_edges = np.empty((2 * n * n, 3), dtype=np.int32)
    triangle_edges[0::2] = np.column_stack([right, diagonal, bottom])
    triangle_edges[1::2] = np.column_stack([top, left, diagonal])
    return vertices, triangles, boundary, edges, triangle_edges


def _disk_grid(params, n):
    """The grid of [-1, 1]^2 mapped onto the disk, its boundary vertices
    exactly on the circle; the grid's edge table is the disk's."""
    cx, cy, R = params
    square, triangles, on_bdry, edges, triangle_edges = _rectangle_grid(
        (-1.0, -1.0, 1.0, 1.0), n)
    u = square[:, 0]
    v = square[:, 1]
    # elliptical square-to-disk map; grid boundary lands on the circle
    px = u * np.sqrt(np.maximum(1.0 - 0.5 * v * v, 0.0))
    py = v * np.sqrt(np.maximum(1.0 - 0.5 * u * u, 0.0))
    pts = np.column_stack([px, py])
    r = np.hypot(px, py)
    # snap boundary vertices exactly onto the unit circle
    pts[on_bdry] /= r[on_bdry, None]
    vertices = np.column_stack([cx + R * pts[:, 0], cy + R * pts[:, 1]])
    return vertices, triangles, on_bdry, edges, triangle_edges


def _graded(domain, vertices, triangles, boundary, edges, tri_edge,
            refine_points, levels):
    """Red-green refinement toward the source points, one sweep per level.

    At level l (ball factor 2^-(l+1)) triangles whose circumcenter lies
    within the ball factor times rho_i of a source point x_i are
    quartered (red); neighbors with two or three split edges are
    promoted to red, one split edge gives a green bisection, and a green
    triangle from the previous sweep is promoted to red instead of
    being bisected again, which keeps angles bounded.  Kept triangles
    come first, then the children, grouped by kind and corner and in the
    order of their parents.

    A kept triangle was unmarked, and its marking ball only shrinks, so
    only the children of the previous sweep are candidates.  The edge
    table of the input grid is updated by every sweep, with a flag per
    edge that marks the boundary ones (those of a single triangle): a
    split edge (lo, hi) with midpoint m becomes (lo, m) in place plus an
    appended (hi, m), both keeping its flag; each red triangle adds
    three interior edges and each green one its median.  Midpoints are
    numbered in the (lo, hi) order of their edges.

    No sweep copies the triangles it keeps.  The triangles, their edge
    ids and their green flags live in an append-only store with an
    alive mask: a sweep clears the flag of each triangle it refines and
    appends the children after the last row, so the previous sweep's
    children are always the store's tail.  Vertices and edges are
    appended the same way, and a store that fills is copied once into
    one sized for the remaining levels (see _room).  Alive rows in
    store order are the kept-first order above, level after level, so
    one compaction at the end gives the triangles and their edges.

    Returns the refined vertices, triangles, boundary flags, edges and
    triangle edges.  The vertices, flags and edges are the leading rows
    of their stores, not copies: a store is sized for the levels it
    grows in, so it holds few spare rows.
    """
    n, V, E = triangles.shape[0], vertices.shape[0], edges.shape[0]
    outer = np.bincount(tri_edge.ravel(), minlength=E) == 1
    green = np.zeros(n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    fresh = 0  # rows from here on are the previous sweep's children
    for level in range(levels):
        ball_factor = 0.5 ** (level + 1)
        cc = circumcenters(vertices, triangles[fresh:n])
        red = np.zeros(n, dtype=bool)
        for i in range(refine_points.count):
            xi = refine_points.points[i]
            rho = refine_points.radii[i]
            dist = np.hypot(cc[:, 0] - xi[0], cc[:, 1] - xi[1])
            red[fresh:] |= dist < ball_factor * rho

        te = tri_edge[:n]
        live = alive[:n]
        split = np.zeros(E, dtype=bool)
        split[np.compress(red[fresh:], te[fresh:], axis=0)] = True
        while True:
            # np.take: a gather through int32 columns at the speed of
            # an int64 one, which indexing is not
            nsplit = np.take(split, te[:, 0]).view(np.int8) \
                + np.take(split, te[:, 1]).view(np.int8) \
                + np.take(split, te[:, 2]).view(np.int8)
            promote = ~red & live & ((nsplit >= 2)
                                     | ((nsplit == 1) & green[:n]))
            if not promote.any():
                break
            red |= promote
            split[np.compress(promote, te, axis=0)] = True

        split_ids = np.nonzero(split)[0]
        split_ids = split_ids[np.lexsort((edges[split_ids, 1],
                                          edges[split_ids, 0]))]
        lo, hi = edges[split_ids, 0], edges[split_ids, 1]
        S = split_ids.size
        mids = V + np.arange(S)
        midpoint = np.full(E, -1, dtype=np.int64)
        midpoint[split_ids] = mids
        # the half (hi, m) of split edge s gets id upper[s]
        upper = np.full(E, -1, dtype=np.int64)
        upper[split_ids] = E + np.arange(S)

        def half(e, v):
            """Id of the half of split edge e that ends at vertex v."""
            return np.where(edges[e, 0] == v, e, upper[e])

        new_coords = 0.5 * (np.take(vertices, lo, axis=0)
                            + np.take(vertices, hi, axis=0))
        new_bdry = outer[split_ids]
        if domain.kind == "disk" and new_bdry.any():
            # keep new boundary vertices exactly on the circle
            cx, cy, R = domain.params
            vec = new_coords[new_bdry] - [cx, cy]
            nrm = np.hypot(vec[:, 0], vec[:, 1])
            new_coords[new_bdry] = [cx, cy] + vec * (R / nrm)[:, None]
        vertices, boundary = _room((vertices, boundary), V, S,
                                   levels - level)
        vertices[V:V + S] = new_coords
        boundary[V:V + S] = new_bdry
        V += S

        one = live & ~red & (nsplit == 1)
        t_one, e_one = (np.compress(one, x[:n], axis=0)
                        for x in (triangles, tri_edge))
        t_red, e_red = (np.compress(red, x[:n], axis=0)
                        for x in (triangles, tri_edge))
        live &= ~(one | red)
        G, Rd = t_one.shape[0], t_red.shape[0]
        idx = np.arange(G)
        j = np.argmax(split[e_one], axis=1)
        a = t_one[idx, (j + 1) % 3]
        b = t_one[idx, (j + 2) % 3]
        c = t_one[idx, j]
        e_ab = e_one[idx, j]
        m = midpoint[e_ab]
        g = E + S + idx  # the median (c, m)
        v0, v1, v2 = t_red[:, 0], t_red[:, 1], t_red[:, 2]
        e0, e1, e2 = e_red[:, 0], e_red[:, 1], e_red[:, 2]
        m12, m20, m01 = midpoint[e0], midpoint[e1], midpoint[e2]
        # interior edges opposite v0, v1 and v2 in their corner children
        i0, i1, i2 = (E + S + G + 3 * np.arange(Rd) + k for k in range(3))

        children = [
            ((a, m, c), (g, e_one[idx, (j + 2) % 3], half(e_ab, a))),
            ((m, b, c), (e_one[idx, (j + 1) % 3], g, half(e_ab, b))),
            ((v0, m01, m20), (i0, half(e1, v0), half(e2, v0))),
            ((v1, m12, m01), (i1, half(e2, v1), half(e0, v1))),
            ((v2, m20, m12), (i2, half(e0, v2), half(e1, v2))),
            ((m01, m12, m20), (i2, i0, i1)),
        ]
        triangles, tri_edge, green, alive = _room(
            (triangles, tri_edge, green, alive), n, 2 * G + 4 * Rd,
            levels - level)
        fresh = n
        for corners, slots in children:
            rows = slice(n, n + corners[0].size)
            for k in range(3):
                triangles[rows, k] = corners[k]
                tri_edge[rows, k] = slots[k]
            n = rows.stop
        green[fresh:fresh + 2 * G] = True
        green[fresh + 2 * G:n] = False
        alive[fresh:n] = True

        # appended: the halves (hi, m), the medians (c, m), then the
        # interior edges i0, i1, i2 of each red triangle as (lo, hi)
        edges, outer = _room((edges, outer), E, S + G + 3 * Rd,
                             levels - level)
        edges[split_ids, 1] = mids
        edges[E:E + S, 0] = hi
        edges[E:E + S, 1] = mids
        outer[E:E + S] = outer[split_ids]
        edges[E + S:E + S + G, 0] = c
        edges[E + S:E + S + G, 1] = m
        interior = edges[E + S + G:E + S + G + 3 * Rd].reshape(Rd, 3, 2)
        for k, (p, q) in enumerate(((m01, m20), (m12, m01), (m20, m12))):
            np.minimum(p, q, out=interior[:, k, 0])
            np.maximum(p, q, out=interior[:, k, 1])
        outer[E + S:E + S + G + 3 * Rd] = False
        E += S + G + 3 * Rd
    alive = alive[:n]
    return (vertices[:V], np.compress(alive, triangles[:n], axis=0),
            boundary[:V], edges[:E], np.compress(alive, tri_edge[:n], axis=0))


def _room(arrays, used, extra, sweeps):
    """The arrays, with room for `extra` rows after their first `used`
    ones: as they are when they have it, else copied into new arrays
    with room for `sweeps` appends of `extra` rows each.  A graded
    mesh adds about as many rows on every level, so this sweep's count
    times the sweeps left is a close estimate of the final size, and
    most builds grow each store once."""
    if used + extra <= arrays[0].shape[0]:
        return arrays
    rows = used + extra * sweeps
    grown = []
    for a in arrays:
        b = np.empty((rows,) + a.shape[1:], dtype=a.dtype)
        b[:used] = a[:used]
        grown.append(b)
    return grown


def barycentric(mesh, t, x):
    """Barycentric coordinates (..., 3) of points x (..., 2) in
    triangles t (...,), broadcast against each other; negative outside.

    Coordinate j is the signed area of the triangle with corner j moved
    to x, over the triangle's own signed area.
    """
    corners, x = np.broadcast_arrays(
        mesh.vertices[mesh.triangles[t]],
        np.asarray(x, dtype=float)[..., None, :])
    area = _signed_areas(corners)
    lam = np.empty(corners.shape[:-1])
    for j in (1, 2):
        moved = corners.copy()
        moved[..., j, :] = x[..., j, :]
        lam[..., j] = _signed_areas(moved) / area
    lam[..., 0] = 1.0 - lam[..., 1] - lam[..., 2]
    return lam


_BARY_TOL = 1e-12
#: widening of the triangles' bounding boxes in locate_point, times h
_BOX_MARGIN = 1e-9


def locate_point(mesh, points):
    """Triangles (K,) holding the points (K, 2), and the points'
    barycentric coordinates (K, 3) in them, from one pass.

    For each point the smallest-index triangle whose coordinates of it
    are all at least -_BARY_TOL wins, and its coordinates are clipped
    to be nonnegative and renormalized.  Only the triangles whose
    bounding box, widened by _BOX_MARGIN * h, contains the point are
    tested: coordinates of at least -_BARY_TOL put it at most
    2 * _BARY_TOL times the box's extent, so at most 2 * _BARY_TOL * h,
    outside it, and every triangle a scan of all of them could accept
    is among those tested.  The triangles' x-extents are gathered once;
    each point tests y-extents on the triangles of its x-strip alone.
    A point of the domain that no triangle holds lies between a disk
    mesh's boundary chords and its circle: ValueError naming it.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    pad = _BOX_MARGIN * mesh.h
    c = mesh.vertices[:, 0][mesh.triangles]
    x_lo = np.minimum(np.minimum(c[:, 0], c[:, 1]), c[:, 2])
    x_hi = np.maximum(np.maximum(c[:, 0], c[:, 1]), c[:, 2])
    located = np.empty(len(pts), dtype=np.int64)
    coordinates = np.empty((len(pts), 3))
    for i, (px, py) in enumerate(pts):
        strip = np.flatnonzero((x_lo <= px + pad) & (x_hi >= px - pad))
        c = mesh.vertices[:, 1][mesh.triangles[strip]]
        near = np.minimum(np.minimum(c[:, 0], c[:, 1]), c[:, 2]) <= py + pad
        near &= np.maximum(np.maximum(c[:, 0], c[:, 1]), c[:, 2]) >= py - pad
        candidates = strip[near]
        lam = barycentric(mesh, candidates, pts[i])
        inside = np.flatnonzero(np.all(lam >= -_BARY_TOL, axis=1))
        if inside.size == 0:
            raise ValueError("source point %d at (%r, %r) lies between the "
                             "mesh's boundary chords and the circle"
                             % (i, float(px), float(py)))
        lam = np.maximum(lam[inside[0]], 0.0)
        located[i] = candidates[inside[0]]
        coordinates[i] = lam / lam.sum()
    return located, coordinates
