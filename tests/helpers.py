"""Shared test helpers: conversions between the package's CSR matrices
and scipy sparse matrices (the tests do their matrix algebra in scipy),
the free-block CSR operators that the solvers take, the stiffness on
every vertex, the edge table of bare triangles and the Mesh of bare
arrays that carries it, the truncation of a direction, the derivatives
of J at a control from a fresh state solve, counters of the reduced
Hessian's linearized solves and of the multigrid V-cycles, and the
references the package is checked against.
Bit for bit: the edge lengths by two rolled copies of the corners, the
level-by-level graded refinement, the point location by a scan of
every triangle, the einsum stiffness summed in triangle order, the
25-term divided-difference series, the loop
aggregation, the PCG loop that tests its residual before each step,
the critical cone minimum by one solve per face, and the scipy matrix
operations that CSR replaces: the point operator, the free block of
the stiffness and the multigrid setup.  To a stated
rounding bound: the load by einsums over the edge-midpoint rule
TRI3_BARY, TRI3_W, and the mollified load by the order-5 rule on every
candidate triangle subdivided in the plane.  The consistent mass,
which the package does not assemble, measures L^2 distances in tests
and has the lumped mass as its row sums."""

import functools
import itertools

import numpy as np
import scipy.sparse as sp

from expctrl import objective
from expctrl.fem import (_COARSE_SIZE, _STALLED_RESTARTS, _STRENGTH, CSR,
                         TRI7_BARY, TRI7_W, Multigrid, _cholesky,
                         _inverse_factor, _phi1, assemble_stiffness,
                         mollifier_value)
from expctrl.mesh import (_BARY_TOL, Domain, Mesh, _edge_lengths,
                          _signed_areas, barycentric, build_mesh,
                          circumcenters)
from expctrl.objective import evaluate_DJ, evaluate_J, reduced_hessian
from expctrl.optimizer import projected_gradient, second_order_check
from expctrl.pde import _CG_TOL, solve_linearized, solve_state
from expctrl.sequences import compute_separation_radii


# order-2 rule: edge midpoints, weight area/3 each (exact for quadratics)
TRI3_BARY = np.array([
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
    [0.5, 0.5, 0.0]])
TRI3_W = np.array([1.0, 1.0, 1.0]) / 3.0


def to_scipy(A):
    """A scipy CSR matrix on copies of a CSR's arrays, so that in-place
    scipy methods leave the CSR alone."""
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape,
                         copy=True)


def from_scipy(M):
    """The CSR of a scipy sparse matrix, on its CSR arrays."""
    M = sp.csr_matrix(M)
    return CSR(M.indptr, M.indices, M.data, M.shape)


def free_block(mesh, A):
    """The free-block operator of a full-size matrix (a CSR or a scipy
    matrix): the CSR of its rows and columns off the boundary, sliced
    by scipy."""
    free = ~mesh.boundary
    if isinstance(A, CSR):
        A = to_scipy(A)
    return from_scipy(A.tocsr()[free][:, free])


def full_stiffness(mesh):
    """The V x V stiffness: assemble_stiffness of a mesh with the same
    vertices, triangles and edge table and no boundary flag set, so its
    exact zeros are dropped as on the interior block."""
    return assemble_stiffness(Mesh(
        mesh.vertices, mesh.triangles, np.zeros(mesh.num_vertices, dtype=bool),
        mesh.domain, mesh.edges, mesh.triangle_edges))


def edge_table(triangles):
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


def mesh_from_arrays(vertices, triangles, boundary, domain):
    """The Mesh of bare arrays with their edge_table: the hand-built
    meshes of the tests and the level-by-level reference."""
    triangles = np.asarray(triangles)
    return Mesh(vertices, triangles, boundary, domain,
                *edge_table(triangles)[:2])


def truncate(h, k):
    """The truncation h^(k) of the paper: h with all components beyond
    index k (1-based) set to zero, at h's support size."""
    if int(k) != k or k < 1:
        raise ValueError("truncation index must be a positive integer")
    values = np.array(h, dtype=float)
    values[int(k):] = 0.0
    return values


def J(instance, u, mesh, tol=1e-10):
    """The objective at u, from a state solved on mesh to tol."""
    return evaluate_J(instance, u, solve_state(instance, u, mesh, tol=tol))


def DJ(instance, u, mesh, tol=1e-10):
    """The gradient at u, from a state solved on mesh to tol."""
    return evaluate_DJ(instance, u,
                       solve_state(instance, u, mesh, tol=tol))[0]


def D2J(instance, u, mesh, tol=1e-10):
    """The reduced Hessian at u, from a state solved on mesh to tol."""
    state = solve_state(instance, u, mesh, tol=tol)
    return reduced_hessian(instance, state,
                           evaluate_DJ(instance, u, state)[1])


def count_linearized(monkeypatch):
    """The linearized solves of the reduced Hessian, one entry each: the
    relative residual it was solved to."""
    calls = []

    def counted(*args, tol=_CG_TOL):
        calls.append(tol)
        return solve_linearized(*args, tol=tol)
    monkeypatch.setattr(objective, "solve_linearized", counted)
    return calls


def count_vcycles(monkeypatch):
    """The V-cycles of every multigrid preconditioner, one entry each:
    the length of the residual it was applied to."""
    cycles = []
    plain = Multigrid.preconditioner

    def counting(self, A):
        apply = plain(self, A)

        def vcycle(r):
            cycles.append(r.size)
            return apply(r)
        return vcycle
    monkeypatch.setattr(Multigrid, "preconditioner", counting)
    return cycles


def certify(instance, u, mesh):
    """The second-order check at u, on the report of an optimizer run
    that takes no step: the gradient, J, state and adjoint solved here
    on mesh."""
    return second_order_check(
        instance, projected_gradient(instance, mesh, u, max_iters=0)[1])


@functools.lru_cache(maxsize=None)
def graded_disk():
    """The unit disk at n = 96 graded 12 levels toward its center, a
    grid vertex: the mesh of the certificates on the graded disk
    (about 76k vertices).  Built once per test session; a built mesh is
    immutable."""
    domain = Domain.disk(0.0, 0.0, 1.0)
    points = compute_separation_radii([[0.0, 0.0]], domain)
    return build_mesh(domain, 96, refine_points=points, refine_levels=12)


def reference_edge_lengths(corners):
    """Edge lengths (..., 3) of triangles with corners (..., 3, 2), edge
    j opposite corner j, from two np.roll copies of the corners."""
    d = np.roll(corners, -1, axis=-2) - np.roll(corners, 1, axis=-2)
    return np.hypot(d[..., 0], d[..., 1])


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
    edges, tri_edge, counts = edge_table(tris)
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
    refined = mesh_from_arrays(vertices, np.vstack(parts), boundary, domain)
    return refined, np.concatenate(part_green)


def reference_assembly(mesh, local):
    """The matrix of the local matrices (T, 3, 3), each entry summed by
    np.add.at in triangle order, on the pattern of the distinct (row,
    column) pairs that the triangles meet: a scipy CSR matrix with
    sorted rows."""
    V = mesh.num_vertices
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    keys, slot = np.unique(rows * V + cols, return_inverse=True)
    data = np.zeros(keys.size)
    np.add.at(data, slot, local.ravel())
    return sp.csr_matrix((data, (keys // V, keys % V)), shape=(V, V))


def reference_point_operator(mesh, points):
    """The point-coupling matrix built by scipy from the triplets of
    the full-scan location."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    located = [reference_locate(mesh, x) for x in pts]
    cols = np.concatenate([mesh.triangles[t] for t, _ in located])
    weights = np.concatenate([lam for _, lam in located])
    rows = np.repeat(np.arange(len(pts)), 3)
    return sp.csr_matrix((weights, (rows, cols)),
                         shape=(len(pts), mesh.num_vertices))


def reference_free_block(A, free):
    """The rows and columns in free (indices) of a scipy CSR A, sliced
    by scipy, with its exact zeros dropped."""
    B = A[free][:, free]
    B.eliminate_zeros()
    return B


def reference_jacobi_weights(A):
    """The damped-Jacobi weights 4/3 / sum_j |a_ij| of a scipy CSR A,
    its row sums taken by a scipy product."""
    return (4.0 / 3.0) / (abs(A) @ np.ones(A.shape[0]))


def reference_multigrid(A):
    """The multigrid setup of the CSR A in scipy matrices: a list of
    (A, P, R, Jacobi weights) per coarse level, then the coarse inverse
    factor.  The aggregates come from the loop reference."""
    A = to_scipy(A)
    w = reference_jacobi_weights(A)
    levels = []
    theta = _STRENGTH
    while A.shape[0] > _COARSE_SIZE:
        agg, count = reference_aggregate(A, theta)
        rows = np.flatnonzero(agg >= 0)
        T = sp.csr_matrix(
            (1.0 / np.sqrt(np.bincount(agg[rows])[agg[rows]]),
             (rows, agg[rows])), shape=(agg.size, count))
        P = (T - sp.diags(w) @ (A @ T)).tocsr()
        R = P.T.tocsr()
        A = R @ (A @ P)
        A = (0.5 * (A + A.T)).tocsr()
        A.sort_indices()
        w = reference_jacobi_weights(A)
        levels.append((A, P, R, w))
        theta *= 0.5
    return levels, _inverse_factor(_cholesky(A.toarray()))


def reference_stiffness(mesh):
    """The stiffness matrix with its local matrices formed by einsum
    over the (T, 3, 2) barycentric gradients."""
    p = mesh.vertices[mesh.triangles]
    g = np.empty((mesh.num_triangles, 3, 2))
    for j in range(3):
        a = p[:, (j + 1) % 3]
        b = p[:, (j + 2) % 3]
        g[:, j, 0] = a[:, 1] - b[:, 1]
        g[:, j, 1] = b[:, 0] - a[:, 0]
    g /= (2.0 * mesh.areas)[:, None, None]
    return reference_assembly(
        mesh, np.einsum("tid,tjd,t->tij", g, g, mesh.areas))


def reference_mass(mesh):
    """The consistent mass matrix, a scipy CSR matrix, with its local
    matrices formed by the edge-midpoint rule's einsum over the hats'
    values at its points."""
    hats = np.broadcast_to(TRI3_BARY, (mesh.num_triangles, 3, 3))
    local = np.einsum("q,tq...,qi,t->ti...", TRI3_W, hats, TRI3_BARY,
                      mesh.areas)
    return reference_assembly(mesh, local)


def reference_load(mesh, f):
    """The load vector of a field with its quadrature points and
    element integrals formed by einsum over TRI3_BARY and TRI3_W."""
    p = mesh.vertices[mesh.triangles]
    qp = np.einsum("qj,tjd->tqd", TRI3_BARY, p)
    fv = np.asarray(f(qp.reshape(-1, 2)), dtype=float).reshape(
        mesh.num_triangles, 3)
    local = np.einsum("q,tq...,qi,t->ti...", TRI3_W, fv, TRI3_BARY,
                      mesh.areas)
    b = np.zeros(mesh.num_vertices)
    np.add.at(b, mesh.triangles.ravel(), local.ravel())
    return b


def reference_mollified_load(mesh, x0, epsilon):
    """The mollified load and the subdivision depth it took: the same
    candidate triangles and depth as the package, each candidate
    quartered depth times in the plane, the order-5 rule on the pieces
    with their areas recomputed, and the hats' values at the points
    solved back from them by barycentric."""
    x0 = np.asarray(x0, dtype=float).reshape(2)
    corners = mesh.vertices[mesh.triangles]
    d = np.hypot(corners[..., 0] - x0[0], corners[..., 1] - x0[1])
    emax = _edge_lengths(corners).max(axis=1)
    parent = np.nonzero(d.min(axis=1) <= epsilon + emax)[0]
    local_h = float(emax[parent].max())
    depth = int(np.clip(np.ceil(np.log2(4.0 * local_h / epsilon)), 1, 6))
    tris = corners[parent]
    for _ in range(depth):
        m01 = 0.5 * (tris[:, 0] + tris[:, 1])
        m12 = 0.5 * (tris[:, 1] + tris[:, 2])
        m20 = 0.5 * (tris[:, 2] + tris[:, 0])
        tris = np.concatenate([
            np.stack([tris[:, 0], m01, m20], axis=1),
            np.stack([tris[:, 1], m12, m01], axis=1),
            np.stack([tris[:, 2], m20, m12], axis=1),
            np.stack([m01, m12, m20], axis=1)])
        parent = np.concatenate([parent] * 4)
    areas = np.abs(_signed_areas(tris))
    pts = np.einsum("qj,mjd->mqd", TRI7_BARY, tris).reshape(-1, 2)
    w = (TRI7_W[None, :] * areas[:, None]).ravel()
    parent = np.repeat(parent, TRI7_W.size)
    contrib = ((w * mollifier_value(pts, x0, epsilon))[:, None]
               * barycentric(mesh, parent, pts))
    return np.bincount(mesh.triangles[parent].ravel(),
                       weights=contrib.ravel(),
                       minlength=mesh.num_vertices), depth


def reference_dd2_exp(a, b, c):
    """Second divided difference of exp with the series of close
    triples summed to n = 25 and each step allocating its results."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    spread = np.maximum(a, np.maximum(b, c)) - np.minimum(a, np.minimum(b, c))
    out = np.empty_like(a)
    wide = spread > 0.5
    if np.any(wide):
        va = np.sort(np.stack([a[wide], b[wide], c[wide]]), axis=0)
        lo_, mid, hi_ = va[0], va[1], va[2]
        f_hi = np.exp(hi_) * _phi1(mid - hi_)
        f_lo = np.exp(mid) * _phi1(lo_ - mid)
        out[wide] = (f_hi - f_lo) / (hi_ - lo_)
    close = ~wide
    if np.any(close):
        mu = (a[close] + b[close] + c[close]) / 3.0
        x = a[close] - mu
        y = b[close] - mu
        z = c[close] - mu
        h2 = np.ones_like(x)
        h3 = np.ones_like(x)
        total = h3 / 2.0
        fact = 2.0
        zp = np.ones_like(x)
        for n in range(1, 26):
            zp = zp * z
            h2 = y * h2 + zp
            h3 = x * h3 + h2
            fact *= (n + 2)
            total = total + h3 / fact
        out[close] = np.exp(mu) * total
    return out


def reference_locate(mesh, x):
    """Point location by testing every triangle: the smallest index
    whose barycentric coordinates of x are all at least -_BARY_TOL,
    with the coordinates clipped to be nonnegative and renormalized."""
    candidates = np.arange(mesh.num_triangles)
    lam = barycentric(mesh, candidates, x)
    inside = np.flatnonzero(np.all(lam >= -_BARY_TOL, axis=1))
    if inside.size == 0:
        raise ValueError("point not located")
    lam = np.maximum(lam[inside[0]], 0.0)
    return int(inside[0]), lam / lam.sum()


def reference_aggregate(A, theta):
    """Greedy aggregation of a scipy CSR A over its strong couplings,
    with the strength graph built through COO and both passes as plain
    loops."""
    C = A.tocoo()
    diag = A.diagonal()
    strong = (C.row != C.col) & (
        -C.data >= theta * np.sqrt(diag[C.row] * diag[C.col]))
    S = sp.csr_matrix((np.ones(int(strong.sum())),
                       (C.row[strong], C.col[strong])), shape=A.shape)
    indptr, indices = S.indptr, S.indices
    n = A.shape[0]
    agg = np.full(n, -1, dtype=np.int64)
    count = 0
    for i in range(n):
        if agg[i] >= 0:
            continue
        nbrs = indices[indptr[i]:indptr[i + 1]]
        if len(nbrs) and all(agg[j] < 0 for j in nbrs):
            agg[i] = count
            agg[nbrs] = count
            count += 1
    seeded = agg.copy()
    for i in range(n):
        if agg[i] < 0:
            agg[i] = next((seeded[j] for j in indices[indptr[i]:indptr[i + 1]]
                           if seeded[j] >= 0), -1)
    return agg, count


def reference_solve_spd(A, b, dirichlet_mask, tol, multigrid):
    """PCG that tests the recursive residual at the top of each step, so
    it applies one V-cycle more per pass than it reads: the reference
    whose iterates solve_spd must reproduce bit for bit.  Returns the
    nodal solution and the number of CG steps taken."""
    mask = np.asarray(dirichlet_mask, dtype=bool)
    free = ~mask
    x = np.zeros(mask.size)
    bf = np.asarray(b, dtype=float)[free]
    nb = float(np.linalg.norm(bf))
    if nb == 0.0:
        return x, 0
    precondition = multigrid.preconditioner(A)
    xf = np.zeros(bf.size)
    r = bf.copy()
    best = np.inf
    stalled = 0
    steps = 0
    while True:
        z = precondition(r)
        p = z.copy()
        rz = float(np.dot(r, z))
        for _ in range(bf.size):
            if np.linalg.norm(r) <= tol * nb:
                break
            q = A @ p
            pq = float(np.dot(p, q))
            if not (pq > 0.0 and rz > 0.0):
                raise RuntimeError("operator is not positive definite")
            alpha = rz / pq
            xf += alpha * p
            r -= alpha * q
            steps += 1
            z = precondition(r)
            rz_new = float(np.dot(r, z))
            p = z + (rz_new / rz) * p
            rz = rz_new
        r = bf - A @ xf
        true_norm = float(np.linalg.norm(r))
        if true_norm <= tol * nb:
            x[free] = xf
            return x, steps
        if true_norm < best:
            best, stalled = true_norm, 0
        else:
            stalled += 1
            if stalled == _STALLED_RESTARTS:
                raise RuntimeError("linear solve stagnated")


def reference_critical_cone_minimum(H, kkt, tol_grad=1e-6):
    """The critical cone minimum by one bordered solve per face, the
    faces in itertools.product order, a singular face skipped and only
    a strictly smaller value replacing the best."""
    if kkt.aggregate > tol_grad:
        raise ValueError("critical cone requires a first-order point")
    signs = {"lower-active": (0.0, 1.0), "upper-active": (0.0, -1.0),
             "interior": (0.0, 1.0, -1.0)}
    cls, dv = kkt.classification, kkt.gradient
    free = np.array([i for i, c in enumerate(cls)
                     if c != "degenerate" and abs(dv[i]) <= tol_grad],
                    dtype=int)
    if free.size == 0:
        return 0.0, np.zeros(dv.size)
    best, best_h = np.inf, None
    for pattern in itertools.product(*(signs[cls[i]] for i in free)):
        s = np.array(pattern)
        support = np.flatnonzero(s)
        if support.size == 0:
            continue
        m, idx, sign = support.size, free[support], s[support]
        system = np.ones((m + 1, m + 1))
        system[:m, :m] = sign[:, None] * H[np.ix_(idx, idx)] * sign
        system[m, m] = 0.0
        try:
            x = np.linalg.solve(system, np.eye(m + 1)[m])[:m]
        except np.linalg.LinAlgError:
            continue
        if np.all(x > 0.0):
            h = np.zeros(dv.size)
            h[idx] = sign * x / np.sum(x)
            value = float(h @ H @ h)
            if value < best:
                best, best_h = value, h
    return best, best_h
