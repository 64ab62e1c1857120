"""P1 finite elements: assembly, point coupling, mollified loads,
quadrature, and a Jacobi-preconditioned conjugate-gradient solver.

All assembly is vectorized over elements with duplicate summation done
by scipy's coo-to-csr conversion, which is deterministic, so repeated
runs produce bit-identical matrices.  The solver is plain PCG with a
diagonal preconditioner; no factorizations anywhere.
"""

import numpy as np
import scipy.sparse as sp

from .mesh import locate_point

# order-2 rule: edge midpoints, weight area/3 each (exact for quadratics)
TRI3_BARY = np.array([
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
    [0.5, 0.5, 0.0]])
TRI3_W = np.array([1.0, 1.0, 1.0]) / 3.0

# order-5 rule, 7 points
_S15 = np.sqrt(15.0)
TRI7_BARY = np.array([
    [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    [0.0597158717897698, 0.4701420641051151, 0.4701420641051151],
    [0.4701420641051151, 0.0597158717897698, 0.4701420641051151],
    [0.4701420641051151, 0.4701420641051151, 0.0597158717897698],
    [0.7974269853530873, 0.1012865073234563, 0.1012865073234563],
    [0.1012865073234563, 0.7974269853530873, 0.1012865073234563],
    [0.1012865073234563, 0.1012865073234563, 0.7974269853530873]])
TRI7_W = np.array([
    9.0 / 40.0,
    (155.0 + _S15) / 1200.0, (155.0 + _S15) / 1200.0,
    (155.0 + _S15) / 1200.0,
    (155.0 - _S15) / 1200.0, (155.0 - _S15) / 1200.0,
    (155.0 - _S15) / 1200.0])


class FEFunction:
    """Nodal P1 function: one coefficient per mesh vertex."""

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.size != mesh.num_vertices:
            raise ValueError("coefficient count must match vertex count")
        if not np.all(np.isfinite(values)):
            raise ValueError("nodal values must be finite")
        self.mesh = mesh
        self.values = values


def point_operator(mesh, points):
    """Sparse (K, V) point-coupling matrix P of the points x_1..x_K.

    Row i holds the barycentric weights of x_i in its triangle, so P f
    interpolates a nodal f at the points and P' u is the load of the
    point masses sum_i u_i delta_{x_i}: load and evaluation are adjoint.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    located = [locate_point(mesh, x) for x in pts]
    cols = np.concatenate([mesh.triangles[t] for t, _ in located])
    weights = np.concatenate([lam for _, lam in located])
    rows = np.repeat(np.arange(len(pts)), 3)
    return sp.csr_matrix((weights, (rows, cols)),
                         shape=(len(pts), mesh.num_vertices))


def _gradients(mesh):
    """Per-element barycentric gradients, shape (T, 3, 2)."""
    p = mesh.vertices[mesh.triangles]
    g = np.empty((mesh.num_triangles, 3, 2))
    for j in range(3):
        a = p[:, (j + 1) % 3]
        b = p[:, (j + 2) % 3]
        # grad of hat j = rotated opposite edge / (2 area)
        g[:, j, 0] = a[:, 1] - b[:, 1]
        g[:, j, 1] = b[:, 0] - a[:, 0]
    g /= (2.0 * mesh.areas)[:, None, None]
    return g


def assemble_stiffness(mesh):
    """P1 stiffness matrix for -Laplace (no boundary conditions applied).

    Element row sums vanish, so the global matrix annihilates constants;
    Dirichlet conditions are imposed by masking in solve_spd.
    """
    g = _gradients(mesh)
    local = np.einsum("tid,tjd,t->tij", g, g, mesh.areas)
    return _scatter(mesh, local)


def lumped_mass_diagonal(mesh):
    """Diagonal of the lumped mass matrix: vertex patch area / 3."""
    d = np.zeros(mesh.num_vertices)
    np.add.at(d, mesh.triangles.ravel(),
              np.repeat(mesh.areas / 3.0, 3))
    return d


def assemble_weighted_mass(mesh, w=None, lumped=True, spd=False):
    """Mass matrix weighted by a nodal field w (w=None means w=1).

    lumped=True gives the diagonal matrix with entries
    w_i * (patch area)/3; lumped=False integrates w interpolated at the
    edge-midpoint quadrature points against hat products, which is the
    exact P1 mass matrix when w is constant.

    spd=True asserts that w is nodally nonnegative, which the caller
    needs when the matrix enters an SPD solve.
    """
    if w is None:
        wv = np.ones(mesh.num_vertices)
    elif isinstance(w, FEFunction):
        wv = w.values
    else:
        wv = np.asarray(w, dtype=float).reshape(-1)
        if wv.size == 1:
            wv = np.full(mesh.num_vertices, wv[0])
    if wv.size != mesh.num_vertices:
        raise ValueError("weight must be nodal")
    if spd and np.any(wv < 0.0):
        raise ValueError("negative weight in an SPD mass matrix")
    if lumped:
        return sp.diags(lumped_mass_diagonal(mesh) * wv).tocsr()
    wq = wv[mesh.triangles] @ TRI3_BARY.T            # (T, 3 quad points)
    lam = TRI3_BARY                                   # (q, vertex)
    local = np.einsum("q,tq,qi,qj,t->tij", TRI3_W, wq, lam, lam, mesh.areas)
    return _scatter(mesh, local)


def _scatter(mesh, local):
    T = mesh.num_triangles
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)),
                        shape=(mesh.num_vertices, mesh.num_vertices))
    return mat.tocsr()


def assemble_load(mesh, f):
    """Load vector of a scalar field: entry i = integral of f * hat_i,
    by the order-2 edge-midpoint rule.  f must accept an (N, 2) array of
    points and return N values."""
    p = mesh.vertices[mesh.triangles]                 # (T, 3, 2)
    qp = np.einsum("qj,tjd->tqd", TRI3_BARY, p)       # (T, q, 2)
    fv = np.asarray(f(qp.reshape(-1, 2)), dtype=float).reshape(
        mesh.num_triangles, 3)
    contrib = np.einsum("q,tq,qi,t->ti", TRI3_W, fv, TRI3_BARY, mesh.areas)
    b = np.zeros(mesh.num_vertices)
    np.add.at(b, mesh.triangles.ravel(), contrib.ravel())
    return b


def _bump_integral():
    # radial normalization of the standard bump, pi * int_0^1 e^{-1/v} dv,
    # by 96-point Gauss-Legendre (the integrand is flat at v=0)
    x, w = np.polynomial.legendre.leggauss(96)
    v = 0.5 * (x + 1.0)
    return np.pi * 0.5 * float(np.sum(w * np.exp(-1.0 / v)))


#: 1 / integral of exp(-1/(1-|s|^2)) over the unit ball
MOLLIFIER_C = 1.0 / _bump_integral()


def mollifier_value(x, x0, epsilon):
    """The bump C * eps^-2 * exp(-1/(1-|(x-x0)/eps|^2)), zero outside."""
    x = np.asarray(x, dtype=float).reshape(-1, 2)
    r2 = ((x[:, 0] - x0[0]) ** 2 + (x[:, 1] - x0[1]) ** 2) / epsilon ** 2
    out = np.zeros(x.shape[0])
    inside = r2 < 1.0
    out[inside] = (MOLLIFIER_C / epsilon ** 2
                   * np.exp(-1.0 / (1.0 - r2[inside])))
    return out


def subdivided_quadrature(mesh, tri_indices, depth):
    """Order-5 quadrature on uniformly subdivided triangles.

    Returns (points, weights, bary, parent): quadrature points in the
    plane, their weights, their barycentric coordinates with respect to
    the parent (unrefined) triangle, and the parent triangle index, so
    nodal fields can be evaluated by interpolation at every point.
    """
    tri_indices = np.asarray(tri_indices, dtype=np.int64).reshape(-1)
    corners = mesh.vertices[mesh.triangles[tri_indices]]  # (M, 3, 2)
    parent = tri_indices.copy()
    tris = corners
    for _ in range(int(depth)):
        m01 = 0.5 * (tris[:, 0] + tris[:, 1])
        m12 = 0.5 * (tris[:, 1] + tris[:, 2])
        m20 = 0.5 * (tris[:, 2] + tris[:, 0])
        tris = np.concatenate([
            np.stack([tris[:, 0], m01, m20], axis=1),
            np.stack([tris[:, 1], m12, m01], axis=1),
            np.stack([tris[:, 2], m20, m12], axis=1),
            np.stack([m01, m12, m20], axis=1)])
        parent = np.concatenate([parent] * 4)
    areas = 0.5 * np.abs(
        (tris[:, 1, 0] - tris[:, 0, 0]) * (tris[:, 2, 1] - tris[:, 0, 1])
        - (tris[:, 2, 0] - tris[:, 0, 0]) * (tris[:, 1, 1] - tris[:, 0, 1]))
    qp = np.einsum("qj,mjd->mqd", TRI7_BARY, tris)    # (M', q, 2)
    weights = (TRI7_W[None, :] * areas[:, None]).ravel()
    pts = qp.reshape(-1, 2)
    parent_q = np.repeat(parent, TRI7_W.size)
    # barycentrics of each point inside its parent triangle
    pc = mesh.vertices[mesh.triangles[parent_q]]
    den = (pc[:, 1, 0] - pc[:, 0, 0]) * (pc[:, 2, 1] - pc[:, 0, 1]) \
        - (pc[:, 2, 0] - pc[:, 0, 0]) * (pc[:, 1, 1] - pc[:, 0, 1])
    l1 = ((pts[:, 0] - pc[:, 0, 0]) * (pc[:, 2, 1] - pc[:, 0, 1])
          - (pc[:, 2, 0] - pc[:, 0, 0]) * (pts[:, 1] - pc[:, 0, 1])) / den
    l2 = ((pc[:, 1, 0] - pc[:, 0, 0]) * (pts[:, 1] - pc[:, 0, 1])
          - (pts[:, 0] - pc[:, 0, 0]) * (pc[:, 1, 1] - pc[:, 0, 1])) / den
    bary = np.column_stack([1.0 - l1 - l2, l1, l2])
    return pts, weights, bary, parent_q


def interpolate_at_quadrature(mesh, values, bary, parent):
    """Nodal field values at quadrature points from subdivided_quadrature."""
    return np.einsum("mj,mj->m", bary, values[mesh.triangles[parent]])


def assemble_mollified_load(mesh, x0, epsilon):
    """Load vector of the mollified point source at x0.

    The bump is steep, so triangles meeting its support are subdivided
    until the sub-edges resolve epsilon (at least one level), and the
    order-5 rule is applied on the pieces; the entries then sum to 1
    within 1e-4 whenever epsilon is not far below the local mesh size.
    """
    x0 = np.asarray(x0, dtype=float).reshape(2)
    if mesh.domain.boundary_distance(x0) <= epsilon:
        raise ValueError("mollifier support crosses the boundary")
    corners = mesh.vertices[mesh.triangles]
    d = np.hypot(corners[..., 0] - x0[0], corners[..., 1] - x0[1])
    emax = _max_edge(corners)
    cand = np.nonzero(d.min(axis=1) <= epsilon + emax)[0]
    b = np.zeros(mesh.num_vertices)
    if cand.size == 0:
        return b
    local_h = float(emax[cand].max())
    depth = int(np.clip(np.ceil(np.log2(4.0 * local_h / epsilon)), 1, 6))
    pts, w, bary, parent = subdivided_quadrature(mesh, cand, depth)
    phi = mollifier_value(pts, x0, epsilon)
    contrib = (w * phi)[:, None] * bary               # weight per hat
    np.add.at(b, mesh.triangles[parent].ravel(), contrib.ravel())
    return b


def _max_edge(corners):
    e0 = np.hypot(*(corners[:, 1] - corners[:, 2]).T)
    e1 = np.hypot(*(corners[:, 2] - corners[:, 0]).T)
    e2 = np.hypot(*(corners[:, 0] - corners[:, 1]).T)
    return np.maximum(e0, np.maximum(e1, e2))


def integrate_lumped(mesh, values):
    """Lumped-mass integral of a nodal field."""
    return float(np.dot(lumped_mass_diagonal(mesh), values))


def _dd2_exp(a, b, c):
    """Second divided difference of exp at the triples (a_i, b_i, c_i).

    2 * area * dd2_exp(v0, v1, v2) is the exact integral of
    exp(linear interpolant) on a triangle.  Evaluated with a shift by
    the maximum plus a complete-homogeneous series when the values
    nearly coincide, so there is no cancellation.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    hi = np.maximum(a, np.maximum(b, c))
    lo = np.minimum(a, np.minimum(b, c))
    spread = hi - lo
    out = np.empty_like(a)

    wide = spread > 0.5
    if np.any(wide):
        va = np.sort(np.stack([a[wide], b[wide], c[wide]]), axis=0)
        lo_, mid, hi_ = va[0], va[1], va[2]
        f_hi = np.exp(mid) * _phi1(hi_ - mid)         # f[hi, mid]
        f_lo = np.exp(lo_) * _phi1(mid - lo_)         # f[mid, lo]
        out[wide] = (f_hi - f_lo) / (hi_ - lo_)

    close = ~wide
    if np.any(close):
        mu = (a[close] + b[close] + c[close]) / 3.0
        x = a[close] - mu
        y = b[close] - mu
        z = c[close] - mu
        # dd2 exp = sum_n h_n(x,y,z) / (n+2)! with h_n complete homogeneous
        h2 = np.ones_like(x)      # h_n(y, z)
        h3 = np.ones_like(x)      # h_n(x, y, z)
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


def _phi1(t):
    """(e^t - 1)/t, with the removable singularity filled in."""
    t = np.asarray(t, dtype=float)
    out = np.ones_like(t)
    nz = t != 0.0
    out[nz] = np.expm1(t[nz]) / t[nz]
    return out


def exp_remainder1(t):
    """e^t - 1 - t, free of cancellation for small |t|.

    Below |t| = 0.35 the tail series starting at t^2/2 is summed
    directly; above, expm1(t) - t is already accurate.  The value is
    nonnegative for every real t.
    """
    t = np.asarray(t, dtype=float)
    scalar = (t.ndim == 0)
    t = np.atleast_1d(t)
    out = np.empty_like(t)
    small = np.abs(t) < 0.35
    ts = t[small]
    term = 0.5 * ts * ts
    acc = term.copy()
    for n in range(3, 20):
        term = term * ts / n
        acc += term
    out[small] = acc
    tb = t[~small]
    with np.errstate(over="ignore"):
        out[~small] = np.expm1(tb) - tb
    return float(out[0]) if scalar else out


def exp_remainder2(t):
    """e^t - 1 - t - t^2/2, free of cancellation for small |t|.

    Signed: positive for t > 0 and negative for t < 0."""
    t = np.asarray(t, dtype=float)
    scalar = (t.ndim == 0)
    t = np.atleast_1d(t)
    out = np.empty_like(t)
    small = np.abs(t) < 0.35
    ts = t[small]
    term = ts * ts * ts / 6.0
    acc = term.copy()
    for n in range(4, 21):
        term = term * ts / n
        acc += term
    out[small] = acc
    tb = t[~small]
    with np.errstate(over="ignore"):
        out[~small] = np.expm1(tb) - tb - 0.5 * tb * tb
    return float(out[0]) if scalar else out


def integrate_exp_linear(mesh, values, coeff=1.0, tri_subset=None):
    """Exact integral of exp(coeff * v_h) for a nodal field v_h.

    Uses the closed form 2*area*[exp at the three scaled nodal values]
    per triangle (second divided difference), so the only error in
    integrals of exponentials of P1 functions is interpolation, not
    quadrature.
    """
    tris = mesh.triangles if tri_subset is None else \
        mesh.triangles[np.asarray(tri_subset, dtype=np.int64)]
    areas = mesh.areas if tri_subset is None else \
        mesh.areas[np.asarray(tri_subset, dtype=np.int64)]
    v = coeff * values[tris]
    dd = _dd2_exp(v[:, 0], v[:, 1], v[:, 2])
    return float(np.sum(2.0 * areas * dd))


def solve_spd(A, b, dirichlet_mask, tol=1e-10):
    """Solve A x = b on the free nodes, zero on the masked nodes.

    Jacobi-preconditioned conjugate gradients with deterministic
    sequential updates; stops at relative residual tol (confirmed
    against the true residual, not just the recursion), and raises
    "linear solve stagnated" beyond 10 * dimension iterations.
    """
    mask = np.asarray(dirichlet_mask, dtype=bool)
    free = ~mask
    x = np.zeros(mask.size)
    Aff = A[free][:, free].tocsr()
    bf = np.asarray(b, dtype=float)[free]
    nb = float(np.linalg.norm(bf))
    if nb == 0.0:
        return x
    dim = bf.size
    diag = Aff.diagonal()
    if np.any(diag <= 0.0):
        raise ValueError("operator is not positive definite")
    xf = np.zeros(dim)
    r = bf.copy()
    z = r / diag
    p = z.copy()
    rz = float(np.dot(r, z))
    max_iter = 10 * dim
    for _ in range(max_iter + 1):
        if np.linalg.norm(r) <= tol * nb:
            true_r = bf - Aff @ xf
            if np.linalg.norm(true_r) <= tol * nb:
                x[free] = xf
                return x
            r = true_r
            z = r / diag
            p = z.copy()
            rz = float(np.dot(r, z))
        q = Aff @ p
        pq = float(np.dot(p, q))
        if pq <= 0.0:
            raise ValueError("operator is not positive definite")
        alpha = rz / pq
        xf += alpha * p
        r -= alpha * q
        z = r / diag
        rz_new = float(np.dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise RuntimeError("linear solve stagnated")
