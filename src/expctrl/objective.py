"""The reduced objective, its adjoint-based gradient, the reduced K x K
Hessian, and Taylor-remainder diagnostics.

With m the lumped mass diagonal of the state equation and Y the nodal
state, J(u) = (1/2) sum_i m_i (Y_i - Y_d,i)^2 + (nu/2) sum u_i^2.  The
gradient d = P phi + nu u is exact for this discrete value, because the
point load P' u and the point evaluation P phi are adjoint.  With Z the
linearized states of the K unit point masses, the Hessian is the one
weighted Gram product H = Z' diag(m (1 - e^y phi)) Z + nu I: the
tracking term and the exponential's curvature carry the same lumped
weights, so H is again exact, and D2J[h, k] = h' H k.  A caller that
reads H only on a block index x index solves only those columns of Z.

J, d and H read a state y_u and an adjoint phi_u that the caller has
solved, so all three at one control share one state solve and one
adjoint; evaluate_DJ solves that adjoint and returns it with d.  Only
taylor_remainder_test solves states itself.
"""

import numpy as np

from .fem import exp_remainder
from .pde import (_CG_TOL, nodal_field, operators, point_coupling,
                  solve_adjoint, solve_linearized, solve_state)
from .sequences import below_four_pi

#: default probe grid, rho = 10^-1 .. 10^-3 in half-decade steps
DEFAULT_RHO_GRID = tuple(10.0 ** e for e in
                         (-1.0, -1.5, -2.0, -2.5, -3.0))

# remainders below this relative floor are solver noise, not signal
_SLOPE_FLOOR = 1e-14
# the Taylor table's Newton test, tighter than pde._NEWTON_TOL
_TAYLOR_TOL = 1e-12


class DerivativeReport:
    """Taylor table at a control: objective value, gradient entries,
    the second-order form value along the direction, the remainder rows
    (a skipped probe carries its note) and fitted log-log slopes.  The
    report writers refuse a value that is not finite, a numeric fault."""

    def __init__(self, value, gradient, second_order, rows, slopes):
        self.value = float(value)
        self.gradient = np.asarray(gradient, dtype=float).reshape(-1)
        self.second_order = second_order
        self.rows = list(rows)
        self.slopes = dict(slopes)


def evaluate_J(instance, u, state):
    """Objective value at a control u, a (K,) float array, read from
    its solved state; inf without a warning where it overflows."""
    diff = state.y - nodal_field(state.mesh, instance.y_d)
    with np.errstate(over="ignore"):
        return 0.5 * float(diff @ (operators(state.mesh).lumped * diff)) \
            + 0.5 * instance.nu * float(np.dot(u, u))


def evaluate_DJ(instance, u, state):
    """Gradient d = P phi + nu u at a control u, a (K,) float array,
    from its solved state, returned as (d, phi) with the adjoint phi it
    was read from."""
    phi = solve_adjoint(state, instance.y_d)
    d = point_coupling(state.mesh, instance.points.points) @ phi \
        + instance.nu * u
    return d, phi


def reduced_hessian(instance, state, adjoint, index=None, tol=_CG_TOL):
    """The K x K Hessian of the discrete J at the control of the solved
    state and adjoint, symmetrized against roundoff; column i of Z is
    the linearized state of the unit point mass at x_i, solved to the
    relative residual tol.

    Only the columns in index (default: all K) are solved, one
    linearized solve each; the others stay zero, so H[index, index]
    holds the bits of the full H and every other entry is exactly 0.
    """
    K = instance.points.count
    solved = np.zeros(K, dtype=bool)
    solved[slice(None) if index is None else index] = True
    eye = np.eye(K)
    Z = np.zeros((state.y.size, K))
    for i in np.flatnonzero(solved):
        Z[:, i] = solve_linearized(state, eye[i], instance.points, tol=tol)
    weight = operators(state.mesh).lumped * (1.0 - np.exp(state.y) * adjoint)
    H = Z.T @ (weight[:, None] * Z) + instance.nu * np.diag(solved)
    return 0.5 * (H + H.T)


def taylor_remainder_test(instance, u, mesh, h, rho_grid=None):
    """Tabulate Taylor remainders of J at u along h, both (K,) float
    arrays, over a grid of step sizes and fit their log-log slopes.

    Each row holds rho, the first and second objective remainders
    R1 = |J(u + rho h) - J - rho DJ.h| and
    R2 = |R1 argument - (rho^2/2) D2J[h,h]|, and the state-level
    remainders: with w = y_{u + rho h} - y_u, the lumped integrals of
    |e^w - 1 - w| / rho and |e^w - 1 - w - w^2/2| / rho^2, the states
    solved to _TAYLOR_TOL.  Probes the state solver cannot take are
    skipped with a note in their row, and a slope needs two distinct rho.
    """
    if rho_grid is None:
        rho_grid = DEFAULT_RHO_GRID
    state = solve_state(instance, u, mesh, tol=_TAYLOR_TOL)
    base = evaluate_J(instance, u, state)
    grad, adjoint = evaluate_DJ(instance, u, state)
    dj_h = float(np.dot(grad, h))
    # h vanishes off its support, so H is needed only there
    H = reduced_hessian(instance, state, adjoint, np.flatnonzero(h))
    # a huge direction overflows these to inf, which the report writer
    # refuses as a numeric fault
    with np.errstate(over="ignore"):
        d2_hh = float(h @ H @ h)
    lumped = operators(mesh).lumped
    rows = []
    for rho in rho_grid:
        rho = float(rho)
        with np.errstate(over="ignore"):
            probe = u + rho * h
        row = {"rho": rho, "r1": 0.0, "r2": 0.0,
               "state_r1": 0.0, "state_r2": 0.0, "note": ""}
        if not below_four_pi(probe):
            row["note"] = "skipped: probe control reaches 4*pi"
        else:
            try:
                probe_state = solve_state(instance, probe, mesh,
                                          tol=_TAYLOR_TOL)
            except RuntimeError as exc:
                row["note"] = "skipped: %s" % exc
            else:
                value = evaluate_J(instance, probe, probe_state)
                linear = value - base - rho * dj_h
                row["r1"] = abs(linear)
                row["r2"] = abs(linear - 0.5 * rho * rho * d2_hh)
                w = probe_state.y - state.y
                row["state_r1"] = (lumped @ np.abs(exp_remainder(w, 2))
                                   / rho)
                row["state_r2"] = (lumped @ np.abs(exp_remainder(w, 3))
                                   / rho ** 2)
        rows.append(row)
    slopes = {key: _loglog_slope(rows, key, base)
              for key in ("r1", "r2", "state_r1", "state_r2")}
    return DerivativeReport(base, grad, d2_hh, rows, slopes)


def _loglog_slope(rows, key, base):
    floor = _SLOPE_FLOOR * (1.0 + abs(base))
    pts = [(row["rho"], row[key]) for row in rows
           if not row["note"] and row[key] > floor]
    if len({rho for rho, _ in pts}) < 2:
        return None
    x = np.log(np.array([p[0] for p in pts]))
    y = np.log(np.array([p[1] for p in pts]))
    return float(np.polyfit(x, y, 1)[0])
