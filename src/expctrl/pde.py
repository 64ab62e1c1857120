"""Semilinear state, linearized, and adjoint solvers on a fixed mesh.

The discrete state equation couples the P1 stiffness matrix with a
mass-lumped exponential: A y + M_L (e^y - 1) = b(f0) + P' u, with P the
point-coupling operator of the sources.  Lumping keeps the nonlinearity
diagonal, so the Newton matrix A + M_L diag(e^y) stays an M-matrix and
the discrete comparison principle survives; the linearized and adjoint
equations reuse that same matrix.
"""

import weakref

import numpy as np
import scipy.sparse as sp

from .fem import (FEFunction, Multigrid, assemble_load, assemble_stiffness,
                  assemble_weighted_mass, lumped_mass_diagonal,
                  point_operator, solve_spd)
from .mesh import build_mesh
from .sequences import FOUR_PI

# inner linear solves run well below any Newton tolerance a caller asks for
_CG_TOL = 1e-12

_MAX_NEWTON = 50
_MAX_HALVINGS = 40
_ARMIJO = 1e-4


class _Operators:
    """Per-mesh data built once: stiffness, consistent mass, lumped
    mass diagonal, point-coupling operators keyed by coordinates, and
    on first use the multigrid hierarchy of every solve on the mesh."""

    def __init__(self, mesh):
        self.stiffness = assemble_stiffness(mesh)
        self.mass = assemble_weighted_mass(mesh, lumped=False)
        self.lumped = lumped_mass_diagonal(mesh)
        self.coupling = {}
        self._free = ~mesh.boundary
        self._multigrid = None

    @property
    def multigrid(self):
        """Hierarchy of the free block of A + M_L.  Every solve here has
        the form A + diag(d), d >= 0, and takes its finest level from
        its own matrix, so all of them share these coarse levels."""
        if self._multigrid is None:
            A = (self.stiffness + sp.diags(self.lumped)).tocsr()
            A = A[self._free][:, self._free]
            self._multigrid = Multigrid(A)
        return self._multigrid


_OPERATORS = weakref.WeakKeyDictionary()


def operators(mesh):
    """Cached stiffness/mass assembly for a mesh."""
    ops = _OPERATORS.get(mesh)
    if ops is None:
        ops = _Operators(mesh)
        _OPERATORS[mesh] = ops
    return ops


def point_coupling(mesh, points):
    """Cached point-coupling operator P of a point set (SourcePoints or
    (K, 2) coordinates) on a mesh."""
    pts = np.asarray(getattr(points, "points", points), dtype=float)
    cache = operators(mesh).coupling
    key = pts.reshape(-1, 2).tobytes()
    if key not in cache:
        cache[key] = point_operator(mesh, pts)
    return cache[key]


class StateSolution:
    """Nodal state together with its Newton run record.

    history holds the residual norm before each accepted step plus the
    final one, so its length is newton_iterations + 1; a linear solve
    records the single final residual.
    """

    def __init__(self, y, converged, newton_iterations, final_residual,
                 linear=False, history=None):
        self.y = y
        self.converged = bool(converged)
        self.newton_iterations = int(newton_iterations)
        self.final_residual = float(final_residual)
        self.linear = bool(linear)
        self.history = [] if history is None else list(history)


class ProblemInstance:
    """Data of one control problem: domain, source points, box bounds,
    Tikhonov weight nu, distributed source f0, and tracking target y_d.

    f0 and y_d may each be None (zero), a constant, a callable taking an
    (N, 2) array of points, an array of nodal values, or an FEFunction;
    nodal data must live on the mesh handed to the solvers.  resolution
    and refine_levels record how the instance's mesh is to be built.
    """

    def __init__(self, domain, points, bounds, nu, f0=None, y_d=None,
                 resolution=64, refine_levels=0):
        if len(bounds) != len(points):
            raise ValueError("bounds and source points differ in support size")
        if not (np.isfinite(nu) and nu >= 0.0):
            raise ValueError("regularization weight nu must be nonnegative")
        for p in points.points:
            if domain.boundary_distance(p) <= 0.0:
                raise ValueError("source not interior")
        if int(resolution) < 1:
            raise ValueError("resolution must be positive")
        if int(refine_levels) < 0:
            raise ValueError("refine_levels must be nonnegative")
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
    """Nodal values of a scalar field given in any supported form."""
    if f is None:
        return np.zeros(mesh.num_vertices)
    if isinstance(f, FEFunction):
        if f.mesh is not mesh:
            raise ValueError("field lives on a different mesh")
        return f.values.copy()
    if callable(f):
        return np.asarray(f(mesh.vertices), dtype=float).reshape(-1)
    arr = np.asarray(f, dtype=float)
    if arr.ndim == 0:
        return np.full(mesh.num_vertices, float(arr))
    arr = arr.reshape(-1)
    if arr.size != mesh.num_vertices:
        raise ValueError("nodal data does not match the mesh")
    return arr.copy()


def field_load(mesh, f):
    """Right-hand-side vector of a distributed field: quadrature for
    callables, mass-matrix action for nodal data."""
    if f is None:
        return np.zeros(mesh.num_vertices)
    if callable(f) and not isinstance(f, FEFunction):
        return assemble_load(mesh, f)
    return operators(mesh).mass @ nodal_field(mesh, f)


def _residual(ops, y, load):
    with np.errstate(over="ignore", invalid="ignore"):
        return ops.stiffness @ y + ops.lumped * np.expm1(y) - load


def solve_semilinear(mesh, load, tol=1e-10, linear=False):
    """Solve A y + M_L (e^y - 1) = load with zero boundary values.

    linear=True drops the exponential term, leaving the Poisson problem
    A y = load (the verification mode with the nonlinearity switched
    off).

    Damped Newton started from the linearization e^y ~ 1 + y: each step
    solves with the matrix A + M_L diag(e^y), then backtracks by halving
    until the residual norm decreases; converged once the free-node
    residual drops below tol * (1 + |load|).
    """
    load = np.asarray(load, dtype=float).reshape(-1)
    if load.size != mesh.num_vertices:
        raise ValueError("load does not match the mesh")
    ops = operators(mesh)
    free = ~mesh.boundary
    scale = 1.0 + float(np.linalg.norm(load[free]))
    if linear:
        y = solve_spd(ops.stiffness, load, mesh.boundary, tol=_CG_TOL,
                      multigrid=ops.multigrid)
        res = float(np.linalg.norm((ops.stiffness @ y - load)[free]))
        return StateSolution(FEFunction(mesh, y), True, 0, res,
                             linear=True, history=[res])
    y = solve_spd(ops.stiffness + sp.diags(ops.lumped), load,
                  mesh.boundary, tol=_CG_TOL, multigrid=ops.multigrid)
    fres = _residual(ops, y, load)
    rnorm = float(np.linalg.norm(fres[free]))
    history = [rnorm]
    for it in range(_MAX_NEWTON + 1):
        if rnorm <= tol * scale:
            return StateSolution(FEFunction(mesh, y), True, it, rnorm,
                                 history=history)
        if it == _MAX_NEWTON:
            break
        H = ops.stiffness + sp.diags(ops.lumped * np.exp(y))
        step = solve_spd(H, -fres, mesh.boundary, tol=_CG_TOL,
                         multigrid=ops.multigrid)
        t = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS):
            cand = y + t * step
            fc = _residual(ops, cand, load)
            cn = float(np.linalg.norm(fc[free]))
            if np.isfinite(cn) and cn <= (1.0 - _ARMIJO * t) * rnorm:
                y, fres, rnorm = cand, fc, cn
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        history.append(rnorm)
    raise RuntimeError("state solve failed")


def solve_state(instance, u, mesh, tol=1e-10, linear=False):
    """State solve for a control: assemble b(f0) + P' u and run the
    damped Newton of solve_semilinear.

    A control with any component at or above 4*pi is rejected up front;
    the equation loses solvability there.
    """
    if len(u) != instance.points.count:
        raise ValueError("control support does not match the source points")
    if float(np.max(u.values)) >= FOUR_PI:
        raise ValueError("state equation may be ill-posed")
    load = field_load(mesh, instance.f0) \
        + point_coupling(mesh, instance.points).T @ u.values
    return solve_semilinear(mesh, load, tol=tol, linear=linear)


def linearized_operator(yS, mesh):
    """The matrix A + M_L diag(e^y) shared by the linearized and
    adjoint equations; just A for a state solved with the nonlinearity
    switched off."""
    ops = operators(mesh)
    if yS.linear:
        return ops.stiffness
    return ops.stiffness + sp.diags(ops.lumped * np.exp(yS.y.values))


def _check_state(yS, mesh):
    if not yS.converged:
        raise ValueError("state solution is not converged")
    if yS.y.mesh is not mesh:
        raise ValueError("state lives on a different mesh")


def solve_linearized(yS, h, mesh, points, tol=_CG_TOL):
    """Directional derivative of the state at yS along the point-mass
    direction h: solve (A + M_L diag(e^y)) z = P' h.

    h has finite support, so this one solve realizes the derivative
    both for truncations of h and for the full direction.
    """
    _check_state(yS, mesh)
    rhs = point_coupling(mesh, points).T @ h.values
    z = solve_spd(linearized_operator(yS, mesh), rhs, mesh.boundary, tol=tol,
                  multigrid=operators(mesh).multigrid)
    return FEFunction(mesh, z)


def solve_adjoint(yS, y_d, mesh, tol=_CG_TOL):
    """Adjoint solve (A + M_L diag(e^y)) phi = M (y - y_d), with the
    target entering through its nodal interpolant.  phi is continuous,
    so its point values P phi are well defined."""
    _check_state(yS, mesh)
    ops = operators(mesh)
    rhs = ops.mass @ (yS.y.values - nodal_field(mesh, y_d))
    phi = solve_spd(linearized_operator(yS, mesh), rhs, mesh.boundary,
                    tol=tol, multigrid=ops.multigrid)
    return FEFunction(mesh, phi)


def evaluate_at_points(f, points):
    """P1 interpolation P f of a nodal function at the given points."""
    return point_coupling(f.mesh, points) @ f.values
