"""P1 finite elements: assembly, mollified loads, quadrature, and a
conjugate-gradient solver preconditioned by smoothed-aggregation
algebraic multigrid (AMG).

Every sparse matrix is a CSR: bare compressed-row arrays whose
operations call scipy's compiled sparse kernels directly.  The kernel
module is loaded by path (_load_kernels), so scipy's Python sparse
package, whose import costs more than numpy and scipy together, is
never imported.  Each operation calls the kernels that the scipy
matrix operation it replaces calls, with the same operands in the same
order.  All assembly is vectorized over elements and sums by
np.bincount, in triangle order: a P1 matrix is its diagonal, summed
per vertex, and one value per edge of the mesh's edge table, placed at
both of its entries (_edge_assembly), so every sum runs in this code's
order and a_ij and a_ji are one float.  The state vanishes on the
boundary, so the stiffness is assembled on the interior vertices
alone.  The load of a field is the plain edge-midpoint rule, its
element contributions summed the same way; a mollified point load maps
the order-5 rule of the reference triangle, quartered to resolve the
bump, onto the triangles the bump meets.  The solver is PCG with one
symmetric AMG V-cycle per iteration (degree-2 fourth-kind Chebyshev
smoothing, a hand-written Cholesky of the at most 100-unknown coarsest
level); no library factorizations anywhere.
"""

import importlib.util
import math
import os
from importlib.machinery import PathFinder

import numpy as np

from .mesh import _edge_lengths

#: the module of scipy's compiled sparse kernels
_KERNELS = "scipy.sparse._sparsetools"


def _load_kernels():
    """scipy's compiled sparse kernels, loaded from the sparse directory
    of scipy's package by importlib's path finder, which executes the
    extension module alone: neither scipy's __init__ nor scipy.sparse
    runs.  Raises ImportError naming the module when it is not found."""
    package = PathFinder.find_spec("scipy")
    spec = None
    if package is not None and package.submodule_search_locations:
        spec = PathFinder.find_spec(
            _KERNELS, [os.path.join(path, "sparse")
                       for path in package.submodule_search_locations])
    if spec is None:
        raise ImportError("cannot find scipy's compiled sparse kernels, "
                          "module %s" % _KERNELS, name=_KERNELS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_sparsetools = _load_kernels()

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


def _gradients(mesh):
    """Per-element barycentric gradients as two (3, T) arrays, the x
    and the y components, one contiguous row per local vertex."""
    x, y = (np.take(mesh.vertices[:, d], mesh.triangles.T)
            for d in range(2))
    gx = np.empty_like(x)
    gy = np.empty_like(y)
    for j in range(3):
        a, b = (j + 1) % 3, (j + 2) % 3
        # grad of hat j = rotated opposite edge / (2 area)
        np.subtract(y[a], y[b], out=gx[j])
        np.subtract(x[b], x[a], out=gy[j])
    two_areas = 2.0 * mesh.areas
    gx /= two_areas
    gy /= two_areas
    return gx, gy


def assemble_stiffness(mesh):
    """P1 stiffness matrix for -Laplace with zero Dirichlet data: the
    block of the interior vertices (off mesh.boundary), in vertex order.

    Each triangle adds area g_i . g_j, g_i the gradient of its hat i, to
    the entry of each pair of its corners i, j (see _edge_assembly).
    Element row sums vanish, so with no vertex flagged boundary the
    matrix annihilates constants.
    """
    return _edge_assembly(mesh, *_stiffness_sums(mesh))


def _stiffness_sums(mesh):
    """The stiffness's diagonal (V,) and edge entries (E,): the element
    values (g_i . g_j) area, summed in triangle order."""
    gx, gy = _gradients(mesh)
    local = np.empty((mesh.num_triangles, 3))
    q = np.empty(mesh.num_triangles)

    def element(i, j, out):
        # (g_ix g_jx) area + (g_iy g_jy) area
        np.multiply(gx[i], gx[j], out=out)
        np.multiply(out, mesh.areas, out=out)
        np.multiply(gy[i], gy[j], out=q)
        np.multiply(q, mesh.areas, out=q)
        np.add(out, q, out=out)

    for j in range(3):
        element(j, j, local[:, j])
    diagonal = np.bincount(mesh.triangles.ravel(), weights=local.ravel(),
                           minlength=mesh.num_vertices)
    for j in range(3):      # the edge opposite corner j
        element((j + 1) % 3, (j + 2) % 3, local[:, j])
    return diagonal, np.bincount(mesh.triangle_edges.ravel(),
                                 weights=local.ravel(),
                                 minlength=len(mesh.edges))


def lumped_mass_diagonal(mesh):
    """Diagonal of the lumped mass matrix: vertex patch area / 3."""
    return np.bincount(mesh.triangles.ravel(),
                       weights=np.repeat(mesh.areas / 3.0, 3),
                       minlength=mesh.num_vertices)


def _edge_assembly(mesh, diagonal, edges):
    """The symmetric CSR block of the interior vertices (off
    mesh.boundary), in vertex order: the given diagonal, and edges[e]
    at both (lo, hi) and (hi, lo) of each edge e = (lo, hi) with both
    ends interior, unless it is exactly zero (the stiffness across the
    diagonal of a right-angled cell), which adds nothing to a product
    but its cost.

    A P1 matrix has an entry only where two corners share a triangle:
    on the diagonal and at the mesh's edges.  Summed by np.bincount in
    triangle order, its entries are distinct, so the conversion only
    places them, and a_ij and a_ji are one float."""
    keep = ~mesh.boundary
    n = int(np.count_nonzero(keep))
    inner = keep[mesh.edges[:, 0]] & keep[mesh.edges[:, 1]] & (edges != 0.0)
    m = int(np.count_nonzero(inner))
    pairs = mesh.edges
    if m < inner.size:
        pairs = np.compress(inner, pairs, axis=0)
        edges = edges[inner]
    if n < keep.size:
        # number the kept vertices 0..n-1 in vertex order
        pairs = np.take(np.cumsum(keep, dtype=np.int32) - 1, pairs)
        diagonal = diagonal[keep]
    # rows coo[0], columns coo[1]: no index copy outlives the conversion
    coo = np.empty((2, n + 2 * m), dtype=np.int32)
    coo[:, :n] = np.arange(n, dtype=np.int32)
    coo[:, n:n + m] = pairs.T
    del pairs
    coo[::-1, n + m:] = coo[:, n:n + m]
    values = np.concatenate([diagonal, edges, edges])
    return CSR.from_coo(coo[0], coo[1], values, (n, n))


def assemble_load(mesh, f):
    """Load vector of a scalar field: entry i = integral of f * hat_i,
    by the order-2 edge-midpoint rule.  f must accept an (N, 2) array of
    points and return N values.

    Hat i is 1/2 at the midpoints of the two edges at corner i and 0 at
    the third, so corner i gets area/6 times the values of f there."""
    corners = np.take(mesh.vertices, mesh.triangles, axis=0)
    # slot j: the midpoint of the edge opposite corner j
    midpoints = np.take(corners, [1, 2, 0], axis=1)
    midpoints += np.take(corners, [2, 0, 1], axis=1)
    midpoints *= 0.5
    del corners
    values = np.asarray(f(midpoints.reshape(-1, 2)), dtype=float).reshape(
        mesh.num_triangles, 3) * (mesh.areas / 6.0)[:, None]
    local = np.empty_like(values)
    for j in range(3):
        np.add(values[:, (j + 1) % 3], values[:, (j + 2) % 3],
               out=local[:, j])
    return np.bincount(mesh.triangles.ravel(), weights=local.ravel(),
                       minlength=mesh.num_vertices)


#: 1 / integral of exp(-1/(1-|s|^2)) over the unit ball, whose radial
#: form is pi * int_0^1 e^{-1/v} dv; the bits of its 96-point
#: Gauss-Legendre value, 2.143565775792238, which the tests recompute
MOLLIFIER_C = float.fromhex("0x1.12605d03ed1fcp+1")


def mollifier_value(x, x0, epsilon):
    """The bump C * eps^-2 * exp(-1/(1-|(x-x0)/eps|^2)), zero outside."""
    x = np.asarray(x, dtype=float).reshape(-1, 2)
    r2 = ((x[:, 0] - x0[0]) ** 2 + (x[:, 1] - x0[1]) ** 2) / epsilon ** 2
    out = np.zeros(x.shape[0])
    inside = r2 < 1.0
    out[inside] = (MOLLIFIER_C / epsilon ** 2
                   * np.exp(-1.0 / (1.0 - r2[inside])))
    return out


def _subdivided_rule(depth):
    """The order-5 rule on the reference triangle quartered depth
    times: (7 4^depth, 3) barycentric points and their weights, which
    sum to 1."""
    pieces = np.eye(3)[None]                          # (1, corner, 3)
    for _ in range(depth):
        mids = 0.5 * (pieces + np.roll(pieces, -1, axis=1))  # m01 m12 m20
        pieces = np.concatenate([
            np.stack([pieces[:, j], mids[:, j], mids[:, j - 1]], axis=1)
            for j in range(3)] + [mids])
    bary = np.einsum("qj,mjk->mqk", TRI7_BARY, pieces).reshape(-1, 3)
    return bary, np.tile(TRI7_W / len(pieces), len(pieces))


def assemble_mollified_load(mesh, x0, epsilon):
    """Load vector of the mollified point source at x0.

    The bump is steep, so on the triangles meeting its support the
    order-5 rule runs on the reference triangle quartered depth times,
    depth in [1, 6] the least whose sub-edges resolve epsilon; the
    entries then sum to 1 within 1e-4.  Below about epsilon = h/8 the
    depth stops at 6 and the sum misses more: 0.99986 at epsilon =
    0.002 about the center of the n = 64 disk, 1.00021 at n = 48.
    """
    x0 = np.asarray(x0, dtype=float).reshape(2)
    corners = mesh.vertices[mesh.triangles]
    d = np.hypot(corners[..., 0] - x0[0], corners[..., 1] - x0[1])
    emax = _edge_lengths(corners).max(axis=1)
    cand = np.nonzero(d.min(axis=1) <= epsilon + emax)[0]
    if cand.size == 0:
        return np.zeros(mesh.num_vertices)
    local_h = float(emax[cand].max())
    depth = int(np.clip(np.ceil(np.log2(4.0 * local_h / epsilon)), 1, 6))
    bary, w = _subdivided_rule(depth)
    pts = np.einsum("qj,mjd->mqd", bary, corners[cand])
    phi = mollifier_value(pts, x0, epsilon).reshape(cand.size, -1)
    contrib = (phi * w) @ bary * mesh.areas[cand, None]   # weight per hat
    return np.bincount(mesh.triangles[cand].ravel(),
                       weights=contrib.ravel(), minlength=mesh.num_vertices)


def _dd2_exp(a, b, c):
    """Second divided difference of exp at the triples (a_i, b_i, c_i).

    2 * area * dd2_exp(v0, v1, v2) is the exact integral of
    exp(linear interpolant) on a triangle.  Triples spread by more
    than 0.5 take the first divided differences f[hi, mid] =
    e^hi phi1(mid - hi) and f[mid, lo] = e^mid phi1(lo - mid), each
    shifted by its larger value, so no phi1 argument is positive and
    a spread of any size neither overflows expm1 nor forms 0 * inf;
    nearly coinciding values take a complete-homogeneous series, so
    there is no cancellation.
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
        f_hi = np.exp(hi_) * _phi1(mid - hi_)         # f[hi, mid]
        f_lo = np.exp(mid) * _phi1(lo_ - mid)         # f[mid, lo]
        out[wide] = (f_hi - f_lo) / (hi_ - lo_)

    close = ~wide
    if np.any(close):
        mu = (a[close] + b[close] + c[close]) / 3.0
        x = a[close] - mu
        y = b[close] - mu
        z = c[close] - mu
        # dd2 exp = sum_n h_n(x,y,z) / (n+2)! with h_n complete
        # homogeneous.  Centered, |x|, |y|, |z| <= 2/3 spread <= 1/3, so
        # |h_n| / (n+2)! <= 3^-n / (2 n!), below 1e-21 from n = 16 on;
        # h_1 = 0 and the sum is at least 0.49, so every later term is
        # under a quarter ulp of it and would leave each bit as it is
        h2 = np.ones_like(x)      # h_n(y, z)
        h3 = np.ones_like(x)      # h_n(x, y, z)
        total = h3 / 2.0
        fact = 2.0
        zp = np.ones_like(x)
        term = np.empty_like(x)
        for n in range(1, 16):
            zp *= z
            h2 *= y
            h2 += zp
            h3 *= x
            h3 += h2
            fact *= (n + 2)
            np.divide(h3, fact, out=term)
            total += term
        out[close] = np.exp(mu) * total
    return out


def _phi1(t):
    """(e^t - 1)/t, with the removable singularity filled in."""
    t = np.asarray(t, dtype=float)
    out = np.ones_like(t)
    nz = t != 0.0
    out[nz] = np.expm1(t[nz]) / t[nz]
    return out


def exp_remainder(t, order):
    """Taylor remainder e^t - sum_{n < order} t^n / n! of the
    exponential at each entry of the array t, as an array of t's shape,
    free of cancellation for small |t|: order 2 gives
    e^t - 1 - t, nonnegative for every real t, and order 3 gives
    e^t - 1 - t - t^2/2, which has the sign of t.

    Below |t| = 0.35 the tail sum_{n >= order} t^n / n! is summed
    directly to n = order + 17; above, subtracting the polynomial from
    expm1(t) is already accurate.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = np.abs(t) < 0.35
    ts = t[small]
    term = np.ones_like(ts)
    tail = np.zeros_like(ts)
    for n in range(1, order + 18):
        term = term * ts / n
        if n >= order:
            tail += term
    out[small] = tail
    tb = t[~small]
    term = np.ones_like(tb)
    with np.errstate(over="ignore"):
        head = np.expm1(tb)
        for n in range(1, order):
            term = term * tb / n
            head -= term
    out[~small] = head
    return out


#: triangles per block of integrate_exp_linear: each of the dozen or so
#: temporaries of _dd2_exp then holds 64 KiB, whatever the size of the
#: mesh, and stays in cache, while a block is still large enough that
#: its few dozen numpy calls cost little against its arithmetic
_EXP_BLOCK = 8192


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
    terms = np.empty(len(tris))
    for start in range(0, len(tris), _EXP_BLOCK):
        block = slice(start, start + _EXP_BLOCK)
        v = coeff * values[tris[block]]
        terms[block] = 2.0 * areas[block] * _dd2_exp(v[:, 0], v[:, 1],
                                                     v[:, 2])
    return float(np.sum(terms))


#: strength threshold theta of the finest aggregation graph; it halves
#: on each coarser level
_STRENGTH = 0.08
#: the coarsest level is factored densely once it has at most this many
#: unknowns
_COARSE_SIZE = 100
#: solve_spd gives up after this many restarts in a row that do not
#: lower the true residual; near the round-off floor it jitters from
#: one restart to the next
_STALLED_RESTARTS = 3


def _prune(a, n):
    """The array a cut to its first n entries in place, so a sparse
    result holds exactly its entries: the buffers of a product or a sum
    are sized by a bound, and S + S' fills exactly half of its own.
    ndarray.resize reallocates the buffer, which keeps the entries and
    hands the rest back without a copy and without leaving a hole
    below a fresh one; a must own its buffer, and nothing else may
    refer to it."""
    if n < a.size:
        a.resize(n, refcheck=False)
    return a


class CSR:
    """A sparse matrix held as its compressed-row arrays, with int32
    indices, the type scipy gives them at these sizes.

    Each operation calls the compiled kernels of the scipy operation
    named in its docstring, on the same operands in the same order,
    without the checks and dispatch around them: it returns the same
    bits at the cost of the arithmetic alone.  A product with a CSR
    sums from +0.0 and drops exact zeros, like scipy's.
    """

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, indptr, indices, data, shape):
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = shape

    @classmethod
    def _pruned(cls, indptr, indices, data, shape):
        n = int(indptr[-1])
        return cls(indptr, _prune(indices, n), _prune(data, n), shape)

    @classmethod
    def from_coo(cls, rows, cols, values, shape):
        """The matrix with entries values[k] at distinct positions
        (rows[k], cols[k]), its rows sorted, as scipy's coo-to-csr
        conversion forms it: coo_tocsr places the entries, and
        csr_sort_indices sorts each row.  Every caller's entries are
        distinct by construction, so nothing is summed here."""
        M, N = shape
        rows = np.asarray(rows, dtype=np.int32)
        cols = np.asarray(cols, dtype=np.int32)
        nnz = rows.size
        # the kernels trust their indices; scipy checks them here too
        if nnz and (min(rows.min(), cols.min()) < 0 or rows.max() >= M
                    or cols.max() >= N):
            raise ValueError("entry index outside the matrix")
        indptr = np.empty(M + 1, dtype=np.int32)
        indices = np.empty(nnz, dtype=np.int32)
        data = np.empty(nnz)
        _sparsetools.coo_tocsr(M, N, nnz, rows, cols, values, indptr,
                               indices, data)
        _sparsetools.csr_sort_indices(M, indptr, indices, data)
        return cls(indptr, indices, data, shape)

    def __matmul__(self, other):
        """A @ x for a vector x (csr_matvec), and A @ B for a CSR B
        (csr_matmat_maxnnz, then csr_matmat)."""
        M, N = self.shape
        if isinstance(other, CSR):
            return self._matmat(other)
        if len(other) != N:
            raise ValueError("operand length does not match the matrix")
        y = np.zeros(M)
        _sparsetools.csr_matvec(M, N, self.indptr, self.indices, self.data,
                                other, y)
        return y

    def _matmat(self, B):
        M, N = self.shape[0], B.shape[1]
        if self.shape[1] != B.shape[0]:
            raise ValueError("operand shape does not match the matrix")
        nnz = _sparsetools.csr_matmat_maxnnz(M, N, self.indptr, self.indices,
                                             B.indptr, B.indices)
        indptr = np.empty(M + 1, dtype=np.int32)
        indices = np.empty(nnz, dtype=np.int32)
        data = np.empty(nnz)
        _sparsetools.csr_matmat(M, N, self.indptr, self.indices, self.data,
                                B.indptr, B.indices, B.data, indptr, indices,
                                data)
        return CSR._pruned(indptr, indices, data, (M, N))

    def rmatvec(self, x):
        """A' x, as scipy's product with the transposed (CSC) view
        computes it: csc_matvec on A's arrays, no transpose formed."""
        M, N = self.shape
        if len(x) != M:
            raise ValueError("operand length does not match the matrix")
        y = np.zeros(N)
        _sparsetools.csc_matvec(N, M, self.indptr, self.indices, self.data,
                                x, y)
        return y

    @property
    def T(self):
        """The CSR of A', formed by csr_tocsc, as scipy converts a CSR
        to CSC (the CSC arrays of A are the CSR arrays of A'), or the
        CSC view A.T to CSR.  Its rows are sorted."""
        M, N = self.shape
        nnz = int(self.indptr[-1])
        indptr = np.empty(N + 1, dtype=np.int32)
        indices = np.empty(nnz, dtype=np.int32)
        data = np.empty(nnz)
        _sparsetools.csr_tocsc(M, N, self.indptr, self.indices, self.data,
                               indptr, indices, data)
        return CSR(indptr, indices, data, (N, M))

    def _binop(self, B, kernel):
        if B.shape != self.shape:
            raise ValueError("operand shape does not match the matrix")
        M, N = self.shape
        nnz = int(self.indptr[-1]) + int(B.indptr[-1])
        indptr = np.empty(M + 1, dtype=np.int32)
        indices = np.empty(nnz, dtype=np.int32)
        data = np.empty(nnz)
        kernel(M, N, self.indptr, self.indices, self.data, B.indptr,
               B.indices, B.data, indptr, indices, data)
        return CSR._pruned(indptr, indices, data, self.shape)

    def __add__(self, B):
        """A + B by csr_plus_csr, which drops exact zeros."""
        return self._binop(B, _sparsetools.csr_plus_csr)

    def __sub__(self, B):
        """A - B by csr_minus_csr, which drops exact zeros."""
        return self._binop(B, _sparsetools.csr_minus_csr)

    def diagonal(self):
        """The main diagonal (csr_diagonal)."""
        M, N = self.shape
        d = np.empty(min(M, N))
        _sparsetools.csr_diagonal(0, M, N, self.indptr, self.indices,
                                  self.data, d)
        return d

    def toarray(self):
        """The dense matrix (csr_todense into zeros)."""
        out = np.zeros(self.shape)
        _sparsetools.csr_todense(self.shape[0], self.shape[1], self.indptr,
                                 self.indices, self.data, out)
        return out


class Multigrid:
    """Smoothed-aggregation multigrid hierarchy of a sparse SPD matrix
    (Vanek, Mandel and Brezina 1996, Computing 56).

    Each level aggregates the strength graph -a_ij >= theta
    sqrt(a_ii a_jj) greedily, smooths the piecewise-constant tentative
    prolongator T by one damped Jacobi step, P = T - diag(w) A T, and
    forms the Galerkin product R (A P), R = P', symmetrized, until at
    most _COARSE_SIZE unknowns remain; the coarsest matrix is factored
    by a hand-written Cholesky.  Each coarse level is one record (A, w,
    (9/5) w): its matrix and the weights of its Chebyshev steps.  The
    records and every R are built once here; a V-cycle restricts by R
    and prolongates by R' on R's own arrays, and builds no matrix.

    The operator A (a CSR) the hierarchy is built from only serves its
    coarse levels: preconditioner(A) takes the finest level from the
    operator actually solved, so operators that differ from it on the
    diagonal share one hierarchy.
    """

    def __init__(self, A):
        w = _jacobi_weights(A)
        self.levels = []            # coarse (CSR, w, (9/5) w)
        self.restrictions = []
        theta = _STRENGTH
        while A.shape[0] > _COARSE_SIZE:
            P = _prolongator(A, w, theta)
            AP, R = A @ P, P.T
            del P
            A = R @ AP
            del AP
            A = _galerkin(A)
            w = _jacobi_weights(A)
            self.levels.append((A, w, 1.8 * w))
            self.restrictions.append(R)
            theta *= 0.5
        self._coarse = _inverse_factor(_cholesky(A.toarray()))

    def preconditioner(self, A):
        """The symmetric V-cycle r -> B r with the CSR A as its finest
        level, applied like every other level by the kernel directly.

        One degree-2 fourth-kind Chebyshev step (Lottes 2023, Numer.
        Linear Algebra Appl. 30(6)) before and after each coarse
        correction, with the weights w = 4/3 / sum_j |a_ij|: d0 = w r,
        d1 = d0/5 + (9/5) w (r - A d0).  Its error polynomial is
        1 - 4 lam + 3.2 lam^2 in the eigenvalues lam of
        diag(1 / sum_j |a_ij|) A, which lie in (0, 1] by Gershgorin; the
        polynomial stays in (-1, 1) there, so the smoothing contracts in
        the A-norm and B is symmetric positive definite for every SPD A,
        M-matrix or not.  An operator made by DiagonalShifts brings
        its w along; any other CSR gets them from _jacobi_weights, a
        pass over its entries.
        """
        w = A.weights if isinstance(A, _Shifted) else _jacobi_weights(A)
        levels = [(A, w, 1.8 * w)] + self.levels
        return lambda r: self._vcycle(levels, 0, r)

    def _vcycle(self, levels, k, r):
        if k == len(self.restrictions):
            return self._coarse.T @ (self._coarse @ r)
        A, w, w2 = levels[k]
        R = self.restrictions[k]
        x = _smooth(A, w, w2, r)
        x += R.rmatvec(self._vcycle(levels, k + 1, R @ (r - A @ x)))
        return _smooth(A, w, w2, r, x)


def _prolongator(A, w, theta):
    """The smoothed prolongator T - diag(w) A T of the CSR A, T the
    unit-norm piecewise constants on the aggregates of A at strength
    theta.  Multigrid keeps only its transpose R."""
    agg, count = _aggregate(A, theta)
    rows = np.flatnonzero(agg >= 0)
    T = CSR.from_coo(rows, agg[rows],
                     1.0 / np.sqrt(np.bincount(agg[rows])[agg[rows]]),
                     (agg.size, count))
    smoothed = A @ T
    smoothed.data *= np.repeat(w, np.diff(smoothed.indptr))
    return T - smoothed


def _galerkin(S):
    """The coarse matrix of the Galerkin product S = R (A P), R = P',
    symmetrized once: s_ij + s_ji is one sum for both entries, so it is
    symmetric bit for bit.  Its rows are sorted, as the aggregation
    reads them."""
    S = S + S.T
    S.data *= 0.5
    _sparsetools.csr_sort_indices(S.shape[0], S.indptr, S.indices, S.data)
    return S


def _smooth(A, w, w2, r, x=None):
    """x + d0 + d1: one degree-2 fourth-kind Chebyshev step on A x = r
    from x (zero when None), updated in place, with d0 = w (r - A x) and
    d1 = d0/5 + w2 (r - A (x + d0)), w2 = (9/5) w.  Two products with A
    (one from zero), and no more than two level vectors besides r and x
    alive at once."""
    if x is None:
        x = w * r
        d = x / 5.0
    else:
        d = r - A @ x
        d *= w
        x += d
        d /= 5.0
    s = A @ x
    np.subtract(r, s, out=s)
    s *= w2
    s += d
    x += s
    return x


def _jacobi_weights(A):
    """Smoother weights 4/3 / sum_j |a_ij| of the CSR A: the diagonal
    inverse damped by each row's Gershgorin bound of D^-1 A, as in
    _prolongator's damped-Jacobi step.  One pass over A's entries;
    each level of a hierarchy takes its weights here, the finest level
    of an operator made by DiagonalShifts from its cached row sums."""
    n = A.shape[0]
    if np.any(A.diagonal() <= 0.0):
        raise RuntimeError("operator is not positive definite")
    row_sums = CSR(A.indptr, A.indices, np.abs(A.data), A.shape) @ np.ones(n)
    return (4.0 / 3.0) / row_sums


class DiagonalShifts:
    """The operators S + diag(d) of one CSR S whose diagonal entries are
    all stored: each shares S's index arrays, and its data is a copy of
    S's with d added on the diagonal.

    Built once per S: the positions of S's diagonal, found from its own
    rows, and the off-diagonal row sums s_i = sum_{j != i} |s_ij|.  A
    shift keeps S's off-diagonal entries, so its smoother weights
    4/3 / sum_j |a_ij| are 4/3 / (s + diag(A)), with no pass over its
    entries; a non-positive diagonal entry raises "operator is not
    positive definite".  The operator carries them to
    Multigrid.preconditioner, and its arrays must not be changed.
    """

    def __init__(self, S):
        n = S.shape[0]
        self._matrix = S
        self._diagonal = diagonal_positions(S)
        off = np.abs(S.data)
        off[self._diagonal] = 0.0
        self._off_sums = CSR(S.indptr, S.indices, off, S.shape) @ np.ones(n)

    def __call__(self, d):
        """S + diag(d), with its smoother weights."""
        S = self._matrix
        data = S.data.copy()
        data[self._diagonal] += d
        diagonal = data[self._diagonal]
        if np.any(diagonal <= 0.0):
            raise RuntimeError("operator is not positive definite")
        A = _Shifted(S.indptr, S.indices, data, S.shape)
        A.weights = (4.0 / 3.0) / (self._off_sums + diagonal)
        return A


def diagonal_positions(S):
    """The positions in S.data of the main diagonal of the square CSR
    S, row by row; every diagonal entry must be stored.  S + diag(d) on
    S's index arrays is then one copy of S.data with d added there."""
    return np.flatnonzero(S.indices == np.repeat(
        np.arange(S.shape[0], dtype=np.int32), np.diff(S.indptr)))


class _Shifted(CSR):
    """An operator made by DiagonalShifts, with the smoother weights of
    its finest level."""

    __slots__ = ("weights",)


def _aggregate(A, theta):
    """Greedy aggregation over the negative couplings -a_ij >= theta
    sqrt(a_ii a_jj) of A; a positive coupling counts as weak, as in
    classical AMG (Stueben 2001, J. Comput. Appl. Math. 128).

    A node whose strong neighbours are all free seeds an aggregate of
    itself and them; every node left over has a neighbour in a seeded
    aggregate (that is why it did not seed one) and joins the first
    such.  A node without strong neighbours stays out of every
    aggregate (index -1): the smoother alone resolves it.  Every
    aggregate has at least two nodes, so each level at least halves.
    Returns (aggregate index per node, aggregate count).
    """
    # the strength graph keeps A's pattern, filtered, in column order (the
    # rows of every operator come sorted, see _galerkin); -a_ij >= b is
    # tested as a_ij <= -b, with the bound formed in place
    n = A.shape[0]
    sizes = np.diff(A.indptr)
    diag = A.diagonal()
    bound = np.repeat(diag, sizes)
    bound *= diag[A.indices]
    np.sqrt(bound, out=bound)
    bound *= -theta
    strong = A.data <= bound
    del bound
    rows = np.repeat(np.arange(n, dtype=np.int32), sizes)
    strong &= rows != A.indices
    degree = np.bincount(rows[strong], minlength=n)
    del rows
    strong_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=strong_ptr[1:])
    strong_idx = A.indices[strong]
    # the greedy pass reads and writes through memoryviews: element
    # access as fast as on lists, without a Python int object per
    # stored entry; a plain loop tests the neighbours and stops at the
    # first placed one, cheaper than all() over a generator
    indptr = memoryview(strong_ptr)
    indices = memoryview(strong_idx)
    result = np.full(n, -1, dtype=np.int32)
    agg = memoryview(result)
    count = 0
    for i in range(n):
        if agg[i] >= 0:
            continue
        nbrs = indices[indptr[i]:indptr[i + 1]]
        if not nbrs:
            continue
        for j in nbrs:
            if agg[j] >= 0:
                break
        else:
            agg[i] = count
            for j in nbrs:
                agg[j] = count
            count += 1
    # every node left joins the aggregate of its first strong neighbour
    # (in column order) that the greedy pass placed, else stays out
    linked = degree > 0
    if linked.any():
        seeded = np.append(result[strong_idx], -1)
        nnz = strong_idx.size
        pos = np.where(seeded[:-1] >= 0,
                       np.arange(nnz, dtype=np.int32), nnz)
        first = np.full(n, nnz, dtype=np.int32)
        first[linked] = np.minimum.reduceat(pos, strong_ptr[:-1][linked])
        left = result < 0
        result[left] = seeded[first[left]]
    return result, count


def _cholesky(A):
    """Lower-triangular L with L L' = A for a dense SPD matrix."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    L = np.zeros_like(A)
    for j in range(n):
        d = A[j, j] - L[j, :j] @ L[j, :j]
        if not d > 0.0:
            raise RuntimeError("operator is not positive definite")
        L[j, j] = np.sqrt(d)
        L[j + 1:, j] = (A[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def _inverse_factor(L):
    """L^-1 of a lower-triangular L by forward substitution, so that
    A^-1 r = L^-T (L^-1 r) costs two dense products per coarse solve."""
    n = L.shape[0]
    X = np.zeros_like(L)
    for i in range(n):
        X[i] = -(L[i, :i] @ X[:i]) / L[i, i]
        X[i, i] += 1.0 / L[i, i]
    return X


def solve_spd(A, b, dirichlet_mask, tol, multigrid):
    """Solve A x_f = b_f on the free nodes f (those off the mask) and
    return the nodal x, zero on the masked nodes.

    A is the free-block operator: a CSR of the rows and columns of the
    free nodes only, applied by the kernel directly, so the solve
    builds and indexes no matrix.  b is nodal; only b_f is read.

    Conjugate gradients preconditioned by one multigrid V-cycle per
    iteration on the given Multigrid hierarchy, whose coarse levels
    serve every operator of a mesh (pde keeps one per mesh);
    deterministic sequential updates.  Stops at relative
    residual tol, confirmed against the true residual, not just the
    recursion.  The recursive residual is tested right after its update,
    before the V-cycle of the next step, so a pass of m steps that ends
    on that test applies m V-cycles.  When the confirmation fails (or
    the recursion has run dim steps, the exact-arithmetic bound, without
    reaching tol) CG restarts from the true residual, and raises "linear
    solve stagnated" once _STALLED_RESTARTS restarts in a row leave the
    smallest true residual so far unchanged: tol is then below the
    round-off floor of the residual.
    """
    mask = np.asarray(dirichlet_mask, dtype=bool)
    free = ~mask
    x = np.zeros(mask.size)
    bf = np.asarray(b, dtype=float)[free]
    with np.errstate(over="ignore"):
        nb = math.sqrt(bf.dot(bf))
    if nb == 0.0:
        return x
    if not math.isfinite(nb):
        raise RuntimeError("right-hand side is not finite")
    bound = tol * nb
    precondition = multigrid.preconditioner(A)
    xf = np.zeros(bf.size)
    r = bf.copy()
    best = np.inf
    stalled = 0
    while True:
        if math.sqrt(r.dot(r)) > bound:
            p = precondition(r)
            rz = float(r.dot(p))
            for _ in range(bf.size):
                q = A @ p
                pq = float(p.dot(q))
                if not (pq > 0.0 and rz > 0.0):
                    raise RuntimeError("operator is not positive definite")
                alpha = rz / pq
                q *= alpha
                r -= q
                # q is spent: it holds alpha p for the update of xf
                np.multiply(p, alpha, out=q)
                xf += q
                if math.sqrt(r.dot(r)) <= bound:
                    break
                z = precondition(r)
                rz_new = float(r.dot(z))
                p *= rz_new / rz
                p += z
                rz = rz_new
        r = A @ xf
        np.subtract(bf, r, out=r)
        true_norm = math.sqrt(r.dot(r))
        if true_norm <= bound:
            x[free] = xf
            return x
        if true_norm < best:
            best, stalled = true_norm, 0
        else:
            stalled += 1
            if stalled == _STALLED_RESTARTS:
                raise RuntimeError("linear solve stagnated")
