"""Numerical certification of the solver's explicit inequalities:
scalar exponential-remainder monotonicity, exponential integrability of
point-mass Poisson and semilinear solutions, the L1 Lipschitz family of
the exponential of the state, and the mollified point-source bounds on
a disk.

Every check produces an EstimateReport with the measured left-hand
side, the closed-form right-hand side, and their margin.  The point-
mass estimates evaluate integrals of exponentials of P1 functions with
the per-triangle closed form, so the only discretization error left is
the finite element approximation itself; the discrete left-hand side
underestimates the continuum integral near the source singularities,
which makes a pass a necessary consistency check rather than a proof.
"""

import random

import numpy as np

from .fem import assemble_mollified_load, exp_remainder, integrate_exp_linear
from .pde import (field_load, nodal_field, operators, point_coupling,
                  solve_semilinear, solve_state)
from .sequences import FOUR_PI, L_functional

#: relative slack of the discrete L1 Lipschitz checks, calibrated for
#: meshes at resolution 64 and finer
LIPSCHITZ_SLACK = 0.05

_TINY = 1e-300


def _uniform(rng, n):
    """(n,) float array of the next n draws rng.random() in [0, 1) of
    the random.Random rng, in draw order."""
    return np.array([rng.random() for _ in range(n)])


class EstimateReport:
    """One verified inequality: name, measured LHS, closed-form RHS,
    margin = RHS - LHS, the defining parameters, and a pass flag.

    The default pass rule tolerates a relative deficit of 1e-8; checks
    carrying an extra discretization allowance widen it through slack
    and record the allowance among their parameters.  A skipped check
    verified nothing: it is flagged skipped and never passes.  A side
    that is not finite is a numeric fault, not a bad input: it raises
    RuntimeError naming the check.
    """

    def __init__(self, name, lhs, rhs, parameters, slack=1e-8,
                 skipped=False):
        lhs = float(lhs)
        rhs = float(rhs)
        if not (np.isfinite(lhs) and np.isfinite(rhs)):
            raise RuntimeError("estimate %s: sides must be finite, "
                               "lhs=%r rhs=%r" % (name, lhs, rhs))
        self.name = str(name)
        self.lhs = lhs
        self.rhs = rhs
        self.margin = rhs - lhs
        self.parameters = dict(parameters)
        self.slack = float(slack)
        self.skipped = bool(skipped)
        self.passed = not self.skipped \
            and self.margin >= -self.slack * abs(rhs)


def _point_mass_bound(points, omega, alpha, mesh):
    """Data shared by the integrability certificates: the point-mass
    load P' omega, the bound (4 pi^2 R^2 / alpha) (2R)^(c s / wmax)
    exp[c L / wmax] with R = diam(domain)/2, c = 2 - alpha/(2 pi),
    s = |omega|_1, wmax = max omega_i and L from the radii of points,
    the canonical ones in the mesh's domain, then wmax and the report
    parameters."""
    domain = mesh.domain
    R = 0.5 * domain.diameter()
    wmax = float(np.max(omega))
    c = 2.0 - alpha / (2.0 * np.pi)
    L = L_functional(omega, points)
    rhs = (4.0 * np.pi ** 2 * R ** 2 / alpha) \
        * (2.0 * R) ** (c * float(np.sum(np.abs(omega))) / wmax) \
        * np.exp(c * L / wmax)
    params = {"alpha": float(alpha), "omega": omega.tolist(), "R": R,
              "rho": points.radii.tolist(), "L": L, "domain": domain.name,
              "vertices": mesh.num_vertices}
    return (point_coupling(mesh, points.points).rmatvec(omega), rhs, wmax,
            params)


def verify_poisson_exponential(points, omega, alpha, mesh):
    """Exponential integrability of the point-mass Poisson solution.

    Solves -Laplace y = sum omega_i delta_i (nonlinearity off) on mesh,
    then compares the exact integral of exp[(4 pi - alpha)|y_h| /
    omega_max] against the closed-form bound built from
    R = diam(mesh.domain)/2 and the separation radii of points.  The
    CLI checks the hypotheses: omega > 0 and 0 < alpha < 4 pi.
    """
    load, rhs, wmax, params = _point_mass_bound(points, omega, alpha, mesh)
    y = solve_semilinear(mesh, load, linear=True)
    lhs = integrate_exp_linear(mesh, np.abs(y.y),
                               coeff=(FOUR_PI - alpha) / wmax)
    return EstimateReport("poisson-exponential", lhs, rhs, params)


def verify_semilinear_exponential(points, omega, alpha, f0, mesh):
    """Exponential integrability of the semilinear solution with source
    f0 + sum omega_i delta_i on mesh, in the mesh's domain.

    The bound is certified constructively by comparison: y <= y_0 +
    y_1, with y_0 the state of f0 alone and y_1 the Poisson state of
    the point masses, so y^+ <= max(y_0)^+ + y_1 and, with
    k = (4 pi - alpha) / omega_max,

        int exp(k y^+) <= exp(k max(y_0)^+) int exp(k y_1).

    The measure-free solve gives the shift max(y_0)^+, and the
    right-hand side multiplies the point-mass bound of the last
    integral by exp(k shift).  The left-hand side integrates exp(k y^+)
    over the mesh.  The CLI checks the weights: nonnegative, one
    positive, and below 4 pi, where the equation loses solvability.
    """
    load, rhs, wmax, params = _point_mass_bound(points, omega, alpha, mesh)
    k = (FOUR_PI - alpha) / wmax
    base_load = field_load(mesh, f0)
    y = solve_semilinear(mesh, base_load + load)
    y0 = solve_semilinear(mesh, base_load)
    params["shift"] = max(float(np.max(y0.y)), 0.0)
    with np.errstate(over="ignore"):
        rhs *= np.exp(k * params["shift"])
    lhs = integrate_exp_linear(mesh, np.maximum(y.y, 0.0), coeff=k)
    return EstimateReport("semilinear-exponential", lhs, rhs, params)


def verify_lipschitz_family(instance, mesh, trials, seed):
    """L1 bounds for the exponential of states at random admissible
    pairs: size of e^y - 1 against the f0 norm plus |u|_1, the positive
    part of differences against the one-sided component sums, and
    absolute differences against |u - v|_1.

    The pairs are drawn uniformly in the box, u then v for each trial,
    from Python's random.Random(seed) (MT19937, whose random() sequence
    for a given seed Python keeps across versions).  Integrals are
    lumped nodal sums, f0's L2 norm too, the form in which the bounds
    hold exactly where the interior stiffness has no positive
    off-diagonal entry, as on rectangles; the slack factor 1 + 0.05
    covers meshes with positive couplings, such as disks and graded
    meshes.
    A failed state solve skips the trial: one skipped report, which
    does not pass, with the solver's message as its error parameter.
    """
    rng = random.Random(seed)
    lo, up = instance.bounds.lower, instance.bounds.upper
    lumped = operators(mesh).lumped
    f0 = nodal_field(mesh, instance.f0)
    with np.errstate(over="ignore"):
        f0_term = np.sqrt(instance.domain.area()) \
            * float(np.sqrt(f0 @ (lumped * f0)))
    factor = 1.0 + LIPSCHITZ_SLACK
    reports = []
    for k in range(int(trials)):
        u = lo + (up - lo) * _uniform(rng, lo.size)
        v = lo + (up - lo) * _uniform(rng, lo.size)
        pair = {"trial": k, "u": u.tolist(), "v": v.tolist()}
        try:
            yu = solve_state(instance, u, mesh)
            yv = solve_state(instance, v, mesh)
        except RuntimeError as exc:
            reports.append(EstimateReport(
                "lipschitz-skipped", 0.0, 0.0, dict(pair, error=str(exc)),
                skipped=True))
            continue
        eu = np.expm1(yu.y)
        ev = np.expm1(yv.y)
        reports.append(EstimateReport(
            "exp-minus-one-l1",
            lumped @ np.abs(eu),
            (f0_term + float(np.sum(np.abs(u)))) * factor, pair))
        reports.append(EstimateReport(
            "exp-difference-positive-part",
            lumped @ np.maximum(eu - ev, 0.0),
            float(np.sum(np.maximum(u - v, 0.0))) * factor,
            pair))
        reports.append(EstimateReport(
            "exp-difference-l1",
            lumped @ np.abs(eu - ev),
            float(np.sum(np.abs(u - v))) * factor, pair))
    return reports


def verify_scalar_exponential(samples, seed):
    """Monotonicity of the scaled exponential remainders.

    For random (a, t, t0) with a in [-10, 10) and 0 < t < t0 <= 10,
    drawn from Python's random.Random(seed) as a, then t0, then t / t0,
    checks 0 <= (e^{at}-1-at)/t <= (e^{at0}-1-at0)/t0 and the same
    monotonicity for |e^{at}-1-at-(at)^2/2| / (t^2/2), both evaluated
    through the cancellation-free remainder kernels.  The report's LHS
    is the worst relative excess over all samples and its RHS the
    tolerance 1e-12, so the margin is the headroom of the whole suite.
    """
    rng = random.Random(seed)
    a = -10.0 + 20.0 * _uniform(rng, samples)
    t0 = 10.0 * (1.0 - _uniform(rng, samples))
    frac = np.clip(_uniform(rng, samples), 1e-12, 1.0 - 1e-12)
    t = t0 * frac
    with np.errstate(over="ignore"):
        r1_t = exp_remainder(a * t, 2) / t
        r1_t0 = exp_remainder(a * t0, 2) / t0
        r2_t = np.abs(exp_remainder(a * t, 3)) / (0.5 * t * t)
        r2_t0 = np.abs(exp_remainder(a * t0, 3)) / (0.5 * t0 * t0)
    excess = np.maximum.reduce([
        (r1_t - r1_t0) / np.maximum(r1_t0, _TINY),
        (r2_t - r2_t0) / np.maximum(r2_t0, _TINY),
        -r1_t / np.maximum(r1_t0, _TINY),
    ])
    tolerance = 1e-12
    worst = float(np.max(excess))
    violations = int(np.sum(excess > tolerance))
    return EstimateReport(
        "scalar-exponential", worst, tolerance,
        {"samples": samples, "seed": int(seed), "violations": violations})


def verify_mollified_poisson(x0, rho0, epsilon, m, mesh):
    """Pointwise and integral exponential bounds for the mollified unit
    point source on the disk that mesh triangulates, of radius R.

    Solves -Laplace y0 = (mollifier at x0, width epsilon), then checks
    (a) exp[m y0] <= (2R/(rho0 - epsilon))^(m/2pi) at every node
    outside the ball B(x0, rho0), and (b) the integral of exp[m y0]
    over the triangles meeting that ball (a region at least as large
    as the ball, so the measured side is conservative) against
    2 pi (eps + rho0)^2 / (2 - m/2pi) * (2R/(eps + rho0))^(m/2pi).
    Both reports carry a relative slack of 1e-6 plus an m h^2
    interpolation allowance.  Returns the (pointwise, integral) pair.
    The CLI checks the hypotheses: 0 < epsilon < rho0, the ball
    B(x0, rho0) inside the disk, and 0 < m < 4 pi.
    """
    x0 = np.asarray(x0, dtype=float).reshape(2)
    R = mesh.domain.params[2]
    y0 = solve_semilinear(mesh, assemble_mollified_load(mesh, x0, epsilon),
                          linear=True)
    allowance = m * mesh.h ** 2
    slack = 1e-6 + allowance
    params = {"R": R, "x0": x0.tolist(), "rho0": float(rho0),
              "epsilon": float(epsilon), "m": float(m),
              "allowance": allowance, "vertices": mesh.num_vertices}
    dist = np.hypot(mesh.vertices[:, 0] - x0[0],
                    mesh.vertices[:, 1] - x0[1])
    outside = dist > rho0
    lhs_point = float(np.exp(m * np.max(y0.y[outside])))
    rhs_point = (2.0 * R / (rho0 - epsilon)) ** (m / (2.0 * np.pi))
    pointwise = EstimateReport("mollified-pointwise", lhs_point, rhs_point,
                               params, slack=slack)
    corner_dist = dist[mesh.triangles]
    ball_tris = np.nonzero(corner_dist.min(axis=1) <= rho0)[0]
    lhs_int = integrate_exp_linear(mesh, y0.y, coeff=m,
                                   tri_subset=ball_tris)
    rhs_int = 2.0 * np.pi * (epsilon + rho0) ** 2 \
        / (2.0 - m / (2.0 * np.pi)) \
        * (2.0 * R / (epsilon + rho0)) ** (m / (2.0 * np.pi))
    integral = EstimateReport("mollified-integral", lhs_int, rhs_int,
                              params, slack=slack)
    return pointwise, integral
