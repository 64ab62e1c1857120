"""Semilinear state, linearized, and adjoint solvers on a fixed mesh.

The discrete state equation couples the P1 stiffness matrix with a
mass-lumped exponential: A y + M_L (e^y - 1) = M_L f0 + P' u, with f0
at the vertices and P the point-coupling operator of the sources.
Lumping keeps the nonlinearity diagonal, so where the interior
stiffness has no positive off-diagonal entry, as on rectangles, the
Newton matrix A + M_L diag(e^y) is an M-matrix and the discrete
comparison principle holds; disks and graded meshes carry positive
couplings, and there neither is proven.  The linearized and adjoint
equations reuse that same matrix.  A P1 point load is bounded, so the
discrete equation is solvable for every u: the 4 pi threshold of the
controls belongs to the continuum and shows under grading alone.

The state vanishes on the boundary, so every solve here acts on the
free block of these matrices: the rows and columns of the interior
nodes.  The stiffness is assembled on that block alone, and the mesh's
operator cache holds it once; the first Newton or secant-start matrix
makes it the base of a fem.DiagonalShifts.  A Newton matrix is that
pattern with one new data array, A plus the diagonal M_L e^y, built by
one vector add, applied by the CSR kernel directly, and smoothed with
weights from the row sums cached there.  M_L, the lumped mass m, is the
one mass of the discrete problem: the tracking term, the adjoint's
right-hand side and the load of every distributed field, m times its
nodal values, read it too.

The state is found by inexact damped Newton from the secant start
(A + c M_L) y = b, c = _START_SLOPE = 8, the slope (e^y - 1)/y of the
exponential at y = 3.3, near the peaks of the states these solves
meet: the linearization e^y ~ 1 + y (c = 1) starts far above the
state near the point sources, where Newton from a supersolution lowers
the peak by about 1 per step (Ortega and Rheinboldt 1970, 13.3).  The
start is then capped at max_i log1p(b_i^+ / m_i), m the lumped mass:
where y attains a positive maximum at a vertex i of a stiffness that
is an M-matrix with nonnegative row sums, (A y)_i >= 0, so
m_i (e^y_i - 1) <= b_i, and no state exceeds the cap.  That is proven
on rectangles, whose stiffness is an M-matrix; on disks and graded
meshes, which carry positive couplings, the cap is the same number,
measured to serve but not proven.  A large smooth source, whose start
grows like f0 / 8 while its state stays near log(1 + f0), then starts
at the bound instead of overflowing e^y.  Each step's linear solve
stops at an Eisenstat-Walker forcing tolerance, and only the nonlinear
residual test decides convergence.  The adjoint solves, on which the
exact gradient rests, run at _CG_TOL, and so do the linearized solves
by default.  A caller that reads a linearized state only to steer a
guarded step may pass a looser tol: the optimizer solves the Hessian
columns of its iterates to a forcing tolerance between _CG_TOL and
_ETA_MAX, while the second-order certificate and the Taylor table keep
_CG_TOL.
"""

import weakref
from functools import cached_property

import numpy as np

from .fem import (CSR, DiagonalShifts, Multigrid, assemble_stiffness,
                  diagonal_positions, lumped_mass_diagonal, solve_spd)
from .mesh import build_mesh, locate_point

# the Newton test of every state solve but the Taylor table's
_NEWTON_TOL = 1e-10
# linear solves run well below any Newton tolerance a caller asks for
_CG_TOL = 1e-12

_MAX_NEWTON = 50
_MAX_HALVINGS = 40
_ARMIJO = 1e-4

# Eisenstat-Walker forcing, choice 2 (SIAM J. Sci. Comput. 17, 1996):
# eta_k = gamma (|F_k| / |F_k-1|)^alpha, raised to gamma eta_k-1^alpha
# when that exceeds the safeguard threshold, and capped at _ETA_MAX
_ETA_MAX = 0.1
_EW_GAMMA = 0.9
_EW_ALPHA = 2.0
_EW_SAFEGUARD = 0.1

# the secant start (A + _START_SLOPE M_L) y = b, solved only to the
# relative accuracy _START_TOL because it only seeds Newton
_START_SLOPE = 8.0
_START_TOL = 0.5


class _Operators:
    """Per-mesh data built once: the interior (free) nodes, the
    stiffness assembled on them, the lumped mass diagonal (the one mass
    of the state equation, the tracking term, the load of distributed
    fields and their L^2 norm), point-coupling operators keyed by
    coordinates, and on first use the stiffness's DiagonalShifts (so
    Poisson solves alone build none), the operator of the secant start
    and the multigrid hierarchy of every solve."""

    def __init__(self, mesh):
        self.free = np.flatnonzero(~mesh.boundary)
        self.stiffness = assemble_stiffness(mesh)
        self.lumped = lumped_mass_diagonal(mesh)
        self.lumped_free = self.lumped[self.free]
        self.coupling = {}

    @cached_property
    def _shifts(self):
        return DiagonalShifts(self.stiffness)

    def newton_operator(self, y):
        """Free block of the Newton matrix A + M_L diag(e^y) at the nodal
        state y, shared by the linearized and adjoint equations; y = 0
        gives A + M_L.  It shares the stiffness pattern and differs
        from it by the diagonal add alone."""
        return self._shifts(self.lumped_free * np.exp(y[self.free]))

    @cached_property
    def start_operator(self):
        """Free block of A + _START_SLOPE M_L, the operator of every
        secant start on the mesh."""
        return self._shifts(_START_SLOPE * self.lumped_free)

    @cached_property
    def multigrid(self):
        """Hierarchy of the free block of A + M_L, formed as
        DiagonalShifts forms a Newton operator: one copy of the
        stiffness's data with M_L added on its diagonal, on the
        stiffness's own index arrays, and without the off-diagonal row
        sums that only the Newton operators read.  Every solve here has
        the form A + diag(d), d >= 0, and takes its finest level from
        its own matrix, so all share these levels."""
        S = self.stiffness
        data = S.data.copy()
        data[diagonal_positions(S)] += self.lumped_free
        return Multigrid(CSR(S.indptr, S.indices, data, S.shape))


_OPERATORS = weakref.WeakKeyDictionary()


def operators(mesh):
    """The cached per-mesh operators of a mesh."""
    ops = _OPERATORS.get(mesh)
    if ops is None:
        ops = _Operators(mesh)
        _OPERATORS[mesh] = ops
    return ops


def point_coupling(mesh, points):
    """Cached point-coupling operator P (K, V) of the (K, 2) coordinates
    points on a mesh, from one locate_point call: row i holds the
    barycentric weights of x_i in its triangle, so P f interpolates a
    nodal f at the points and P' u is the load of the point masses
    sum_i u_i delta_{x_i}: load and evaluation are adjoint."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    cache = operators(mesh).coupling
    key = pts.tobytes()
    if key not in cache:
        t, lam = locate_point(mesh, pts)
        cache[key] = CSR.from_coo(np.arange(len(pts)).repeat(3),
                                  mesh.triangles[t].ravel(), lam.ravel(),
                                  (len(pts), mesh.num_vertices))
    return cache[key]


class StateSolution:
    """Nodal state y, a (V,) array over the vertices of mesh, together
    with its Newton run record.

    A solve that fails raises, so every StateSolution is converged.
    history holds the residual norm before each accepted step plus the
    final one; a linear solve records the single final residual.  The
    step count and the final residual are read from it.
    """

    def __init__(self, mesh, y, history, linear=False):
        self.mesh = mesh
        self.y = y
        self.history = list(history)
        self.linear = bool(linear)

    @property
    def newton_iterations(self):
        return len(self.history) - 1

    @property
    def final_residual(self):
        return self.history[-1]


class ProblemInstance:
    """Data of one control problem: domain, source points, box bounds,
    Tikhonov weight nu, distributed source f0, and tracking target y_d.

    f0 and y_d may each be None (zero), a constant, a callable taking an
    (N, 2) array of points, or a (V,) array of nodal values on the mesh
    handed to the solvers.  resolution and refine_levels record how the
    instance's mesh is to be built.  Its one maker, cli.RunConfig,
    checks the values: distinct points inside the domain, one bound per
    point, lower <= upper <= 4 pi - 1e-12, nu >= 0, resolution >= 1 and
    refine_levels >= 0.
    """

    def __init__(self, domain, points, bounds, nu, f0=None, y_d=None,
                 resolution=64, refine_levels=0):
        self.domain = domain
        self.points = points
        self.bounds = bounds
        self.nu = float(nu)
        self.f0 = f0
        self.y_d = y_d
        self.resolution = int(resolution)
        self.refine_levels = int(refine_levels)

    def make_mesh(self):
        refine = self.points if self.refine_levels > 0 else None
        return build_mesh(self.domain, self.resolution, refine,
                          self.refine_levels)


def nodal_field(mesh, f):
    """Nodal values of a scalar field: None (zero), a number, a callable
    taking an (N, 2) array of points, or a (V,) array of nodal values
    on mesh, such as a state solved on it."""
    if f is None:
        return np.zeros(mesh.num_vertices)
    if callable(f):
        return np.asarray(f(mesh.vertices), dtype=float).reshape(-1)
    if np.ndim(f) == 0:
        return np.full(mesh.num_vertices, float(f))
    return f


def field_load(mesh, f):
    """Right-hand-side vector of a distributed field in any form that
    nodal_field takes: the lumped mass times its nodal values."""
    return operators(mesh).lumped * nodal_field(mesh, f)


def _norm(v):
    """The 2-norm of v, inf without a warning where it overflows."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(v))


def _residual(ops, y, load):
    """A y + M_L (e^y - 1) - load on the free nodes, zero on the
    boundary; y vanishes there, so the free block of A is all of A it
    needs."""
    free = ops.free
    res = np.zeros(y.size)
    with np.errstate(over="ignore", invalid="ignore"):
        res[free] = ops.stiffness @ y[free] \
            + ops.lumped_free * np.expm1(y[free]) - load[free]
    return res


def solve_semilinear(mesh, load, tol=_NEWTON_TOL, linear=False):
    """Solve A y + M_L (e^y - 1) = load with zero boundary values.

    linear=True drops the exponential term, leaving the Poisson problem
    A y = load (the verification mode with the nonlinearity switched
    off).

    Inexact damped Newton from the secant start (A + c M_L) y = load,
    c = _START_SLOPE = 8 (the module docstring says why), whose solve
    only needs the relative accuracy _START_TOL, capped at
    max_i log1p(load_i^+ / m_i), a bound of the state.  Each step
    solves with the matrix A + M_L diag(e^y) to the Eisenstat-Walker
    forcing tolerance eta_k, kept at or above _CG_TOL and at or above
    0.5 tol (1 + |load|) / |F_k|, so no step is solved past the point
    where the Newton test is met.  The step then backtracks by halving
    until the residual norm decreases by the Armijo factor; converged
    once the free-node residual drops below tol * (1 + |load|).
    """
    load = np.asarray(load, dtype=float).reshape(-1)
    ops = operators(mesh)
    free = ops.free
    scale = 1.0 + _norm(load[free])
    if not np.isfinite(scale):
        raise RuntimeError("state solve failed: load norm overflows")
    if linear:
        y = solve_spd(ops.stiffness, load, mesh.boundary, tol=_CG_TOL,
                      multigrid=ops.multigrid)
        res = float(np.linalg.norm(ops.stiffness @ y[free] - load[free]))
        return StateSolution(mesh, y, [res], linear=True)
    y = solve_spd(ops.start_operator, load, mesh.boundary, tol=_START_TOL,
                  multigrid=ops.multigrid)
    # the state stays below the cap (module docstring), and Newton
    # from far above it lowers the peak by about 1 per step
    cap = np.max(np.log1p(np.maximum(load[free], 0.0) / ops.lumped_free),
                 initial=0.0)
    np.minimum(y, cap, out=y)
    fres = _residual(ops, y, load)
    rnorm = _norm(fres[free])
    if not np.isfinite(rnorm):
        raise RuntimeError("state solve failed: secant start overflows")
    history = [rnorm]
    eta = _ETA_MAX
    for it in range(_MAX_NEWTON + 1):
        if rnorm <= tol * scale:
            return StateSolution(mesh, y, history)
        if it == _MAX_NEWTON:
            break
        if it > 0:
            safeguard = _EW_GAMMA * eta ** _EW_ALPHA
            eta = _EW_GAMMA * (rnorm / history[-2]) ** _EW_ALPHA
            if safeguard > _EW_SAFEGUARD:
                eta = max(eta, safeguard)
            eta = min(eta, _ETA_MAX)
        eta = max(eta, _CG_TOL, 0.5 * tol * scale / rnorm)
        step = solve_spd(ops.newton_operator(y), -fres, mesh.boundary,
                         tol=eta, multigrid=ops.multigrid)
        t = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS):
            cand = y + t * step
            fc = _residual(ops, cand, load)
            cn = _norm(fc[free])
            if np.isfinite(cn) and cn <= (1.0 - _ARMIJO * t) * rnorm:
                y, fres, rnorm = cand, fc, cn
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        history.append(rnorm)
    raise RuntimeError("state solve failed")


def solve_state(instance, u, mesh, tol=_NEWTON_TOL, linear=False):
    """State solve for a control u, a (K,) float array: assemble
    M_L f0 + P' u and run the inexact damped Newton of solve_semilinear.

    Each entry of u lies below 4*pi, where the equation loses
    solvability: sequences.below_four_pi keeps it there, in the CLI and
    in the Taylor table's probe test.
    """
    load = field_load(mesh, instance.f0) \
        + point_coupling(mesh, instance.points.points).rmatvec(u)
    return solve_semilinear(mesh, load, tol=tol, linear=linear)


def _solve_at_state(yS, rhs, tol):
    """Solve with A + M_L diag(e^y) at the semilinear state yS, the
    operator of the linearized and adjoint equations; returns the (V,)
    solution.  No derivative of the Poisson problem is taken, so a
    state solved with linear=True raises ValueError."""
    if yS.linear:
        raise ValueError("derivative solves take a semilinear state, "
                         "not one solved with linear=True")
    ops = operators(yS.mesh)
    return solve_spd(ops.newton_operator(yS.y), rhs, yS.mesh.boundary,
                     tol=tol, multigrid=ops.multigrid)


def solve_linearized(yS, h, points, tol=_CG_TOL):
    """Directional derivative of the state at the semilinear state yS
    along the point-mass direction h, a (K,) float array: solve
    (A + M_L diag(e^y)) z = P' h.  A Poisson state raises ValueError.

    h vanishes beyond the K points, so this one solve realizes the
    derivative both for truncations of h and for the full direction.
    """
    return _solve_at_state(
        yS, point_coupling(yS.mesh, points.points).rmatvec(h), tol)


def solve_adjoint(yS, y_d):
    """Adjoint solve (A + M_L diag(e^y)) phi = M_L (y - y_d) at _CG_TOL
    at the semilinear state yS, with the target entering through its
    nodal interpolant; a Poisson state raises ValueError.  phi is
    continuous, so its point values P phi are well defined."""
    mesh = yS.mesh
    rhs = operators(mesh).lumped * (yS.y - nodal_field(mesh, y_d))
    return _solve_at_state(yS, rhs, _CG_TOL)
