"""End-to-end acceptance suite.

Ten checks, one per guaranteed behavior, each printing a single
PASS/FAIL line so a plain pytest run doubles as a certification
report.  Tolerances are stated inline next to each check.
"""
import time

import numpy as np
import pytest

from expctrl.estimates import (verify_lipschitz_family,
                               verify_mollified_poisson,
                               verify_poisson_exponential,
                               verify_scalar_exponential)
from expctrl.mesh import Domain, build_mesh
from expctrl.objective import (evaluate_DJ, reduced_hessian,
                               taylor_remainder_test)
from expctrl.optimizer import projected_gradient
from expctrl.pde import (ProblemInstance, point_coupling,
                         solve_linearized, solve_state)
from expctrl.sequences import BoundsPair, compute_separation_radii
from helpers import DJ, J, certify, reference_mass, truncate

TWO_PI = 2.0 * np.pi


def _report(index, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print("[acceptance %2d/10] %-28s %s  (%s)" % (index, name, verdict,
                                                  detail))
    assert ok, "%s: %s" % (name, detail)


@pytest.fixture(scope="module")
def square_mesh64():
    return build_mesh(Domain.unit_square(), 64)


@pytest.fixture(scope="module")
def two_point_instance():
    domain = Domain.unit_square()
    points = compute_separation_radii([[0.3, 0.4], [0.7, 0.6]], domain)
    bounds = BoundsPair([-2.0, -2.0], [2.0, 2.0])
    return ProblemInstance(domain, points, bounds, 0.1, f0=1.0, y_d=0.4,
                           resolution=64)


def test_scalar_remainder_monotonicity():
    # 10^4 seeded (a, t, t0) samples, zero violations at rtol 1e-12
    report = verify_scalar_exponential(samples=10 ** 4, seed=2026)
    violations = report.parameters["violations"]
    ok = report.passed and violations == 0 \
        and report.parameters["samples"] == 10 ** 4
    _report(1, "scalar-remainders", ok,
            "violations=%d worst=%.3g" % (violations, report.lhs))


def test_disk_fundamental_solution_convergence():
    # unit point mass at the disk center against (1/2pi) ln(R/|x|) on
    # the ring |x| = R/2: error <= 2e-3 at resolution 64, observed
    # order >= 0.9 across resolutions {16, 32, 64}
    domain = Domain.disk(0.0, 0.0, 1.0)
    points = compute_separation_radii([[0.0, 0.0]], domain)
    instance = ProblemInstance(domain, points, BoundsPair([0.0], [2.0]), 0.0)
    angles = np.linspace(0.0, TWO_PI, 8, endpoint=False)
    ring = 0.5 * np.column_stack([np.cos(angles), np.sin(angles)])
    exact = np.log(2.0) / TWO_PI
    errors = []
    for n in (16, 32, 64):
        mesh = build_mesh(domain, n)
        y = solve_state(instance, np.array([1.0]), mesh, linear=True)
        values = point_coupling(mesh, ring) @ y.y
        errors.append(float(np.max(np.abs(values - exact))))
    order = float(np.polyfit(np.log([1.0 / 16, 1.0 / 32, 1.0 / 64]),
                             np.log(errors), 1)[0])
    ok = errors[-1] <= 2e-3 and order >= 0.9
    _report(2, "fundamental-solution", ok,
            "ring error=%.3g at n=64, order=%.2f" % (errors[-1], order))


def test_gradient_matches_central_differences(two_point_instance,
                                              square_mesh64):
    # max relative component error < 1e-4 at rho = 1e-4
    instance, mesh = two_point_instance, square_mesh64
    u = np.array([0.5, -0.3])
    grad = DJ(instance, u, mesh, tol=1e-10)
    rho = 1e-4
    worst = 0.0
    for i in range(2):
        e = np.zeros(2)
        e[i] = rho
        fd = (J(instance, u + e, mesh, tol=1e-10)
              - J(instance, u - e, mesh, tol=1e-10)) \
            / (2.0 * rho)
        worst = max(worst, abs(grad[i] - fd) / max(abs(fd), 1e-14))
    ok = worst < 1e-4
    _report(3, "gradient-consistency", ok, "max rel error=%.3g" % worst)


def test_taylor_remainder_orders(two_point_instance, square_mesh64):
    # log-log slopes over rho in [1e-3, 1e-1]: R1 >= 1.9, R2 >= 2.5
    report = taylor_remainder_test(two_point_instance, np.array([0.5, -0.3]),
                                   square_mesh64, np.array([1.0, -0.5]))
    s1, s2 = report.slopes["r1"], report.slopes["r2"]
    ok = s1 is not None and s2 is not None and s1 >= 1.9 and s2 >= 2.5
    _report(4, "taylor-remainders", ok,
            "slope R1=%.2f R2=%.2f" % (s1, s2))


def test_exponential_integrability_certificates():
    # closed-form disk case: LHS -> 2 pi, RHS = 4 pi, both within 1e-3
    # relative; then 10 random configurations all certified
    start = time.perf_counter()
    domain = Domain.disk(0.0, 0.0, 1.0)
    points = compute_separation_radii([[0.0, 0.0]], domain)
    mesh = build_mesh(domain, 96, points, 12)
    report = verify_poisson_exponential(points, np.array([1.0]), TWO_PI,
                                        mesh)
    lhs_err = abs(report.lhs - TWO_PI) / TWO_PI
    rhs_err = abs(report.rhs - 2.0 * TWO_PI) / (2.0 * TWO_PI)
    ok = report.passed and lhs_err <= 1e-3 and rhs_err <= 1e-3
    square = Domain.unit_square()
    rng = np.random.default_rng(314159)
    failures = 0
    for _ in range(10):
        count = int(rng.integers(1, 4))
        pts = []
        while len(pts) < count:
            p = rng.uniform(0.25, 0.75, 2)
            if all(np.hypot(*(p - q)) >= 0.2 for q in pts):
                pts.append(p)
        sp = compute_separation_radii(pts, square)
        omega = rng.uniform(0.1, 3.0, count)
        alpha = float(rng.choice([np.pi, TWO_PI, 3.0 * np.pi]))
        rmesh = build_mesh(square, 64, sp, 1)
        if not verify_poisson_exponential(sp, omega, alpha, rmesh).passed:
            failures += 1
    ok = ok and failures == 0
    _report(5, "integrability-certificates", ok,
            "disk lhs err=%.2g rhs err=%.2g, random failures=%d, %.1fs"
            % (lhs_err, rhs_err, failures, time.perf_counter() - start))


def test_exponential_lipschitz_family(square_mesh64):
    # 20 seeded admissible pairs, slack factor 1.05, resolution 64
    domain = Domain.unit_square()
    points = compute_separation_radii([[0.3, 0.4], [0.7, 0.6]], domain)
    instance = ProblemInstance(domain, points,
                               BoundsPair([-1.0, -1.0], [2.0, 2.0]),
                               0.1, f0=1.0)
    reports = verify_lipschitz_family(instance, square_mesh64, trials=20,
                                      seed=7)
    failed = [r.name for r in reports if not r.passed]
    _report(6, "lipschitz-family", not failed,
            "%d reports, failed=%d" % (len(reports), len(failed)))


def test_comparison_principle(two_point_instance, square_mesh64):
    # 10 seeded ordered pairs u <= v: nodal y_u <= y_v + 1e-8
    instance, mesh = two_point_instance, square_mesh64
    rng = np.random.default_rng(99)
    worst = -np.inf
    for _ in range(10):
        u = rng.uniform(-1.5, 1.5, 2)
        v = np.minimum(u + rng.uniform(0.0, 1.0, 2), 2.0)
        yu = solve_state(instance, u, mesh).y
        yv = solve_state(instance, v, mesh).y
        worst = max(worst, float(np.max(yu - yv)))
    ok = worst <= 1e-8
    _report(7, "comparison-principle", ok, "max(y_u - y_v)=%.3g" % worst)


def test_optimizer_end_to_end():
    # manufactured optimum: tracking target generated at zero control,
    # mixed active/inactive box; projected gradient reaches first-order
    # residual <= 1e-6 within 200 iterations, the per-index trichotomy
    # holds, and the exact minimum of D2J[h, h] over the critical cone
    # (|h|_1 = 1) is >= -1e-8
    start = time.perf_counter()
    domain = Domain.unit_square()
    points = compute_separation_radii(
        [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]], domain)
    bounds = BoundsPair([0.0, -1.0, 0.0, -1.0], [1.0, 1.0, 2.0, 2.0])
    mesh = build_mesh(domain, 32)
    plain = ProblemInstance(domain, points, bounds, 0.1, f0=4.0,
                            resolution=32)
    target = solve_state(plain, np.zeros(4), mesh).y
    instance = ProblemInstance(domain, points, bounds, 0.1, f0=4.0,
                               y_d=target, resolution=32)
    u, kkt = projected_gradient(instance, mesh,
                                np.array([0.5, 0.5, -0.5, 0.8]),
                                max_iters=200, tol=1e-6)
    converged = kkt.aggregate <= 1e-6 and kkt.iterations <= 200
    trichotomy = bool(np.all(kkt.residuals <= 1e-6))
    for i, label in enumerate(kkt.classification):
        lo, hi = bounds.lower[i], bounds.upper[i]
        if label == "lower-active":
            trichotomy &= abs(u[i] - lo) <= 1e-8
        elif label == "upper-active":
            trichotomy &= abs(u[i] - hi) <= 1e-8
        elif label == "interior":
            trichotomy &= lo < u[i] < hi
    second = certify(instance, u, mesh)
    curvature = second.minimum >= -1e-8
    ok = converged and trichotomy and curvature
    _report(8, "optimizer-end-to-end", ok,
            "kkt=%.2g in %d iters, min D2J=%.3g, %.1fs"
            % (kkt.aggregate, kkt.iterations, second.minimum,
               time.perf_counter() - start))


def test_mollified_source_certificates():
    # canonical case R=1, rho0=0.5, eps=0.1, m=2pi: pointwise bound 5
    # and integral bound 2.4 pi, both exact to 1e-12 relative; then 5
    # random parameter sets pass both bounds
    domain = Domain.disk(0.0, 0.0, 1.0)
    mesh = build_mesh(domain, 64)
    pw, integ = verify_mollified_poisson((0.0, 0.0), 0.5, 0.1,
                                         TWO_PI, mesh)
    rhs_ok = (abs(pw.rhs - 5.0) <= 1e-12 * 5.0
              and abs(integ.rhs - 2.4 * np.pi) <= 1e-12 * 2.4 * np.pi)
    ok = pw.passed and integ.passed and rhs_ok
    rng = np.random.default_rng(271828)
    rmesh = build_mesh(domain, 48)
    failures = 0
    for _ in range(5):
        radius = rng.uniform(0.0, 0.2)
        angle = rng.uniform(0.0, TWO_PI)
        x0 = (radius * np.cos(angle), radius * np.sin(angle))
        rho0 = rng.uniform(0.35, 0.55)
        eps = rng.uniform(0.1, 0.4 * rho0)
        m = rng.uniform(1.0, 10.0)
        a, b = verify_mollified_poisson(x0, rho0, eps, m, rmesh)
        if not (a.passed and b.passed):
            failures += 1
    ok = ok and failures == 0
    _report(9, "mollified-certificates", ok,
            "pointwise rhs=%.12g integral rhs=%.12g, random failures=%d"
            % (pw.rhs, integ.rhs, failures))


def test_truncation_limits():
    # support-8 direction h_i = 0.8^i: the truncated directional state
    # derivative, directional derivative, and second-order form all
    # approach their full-support values monotonically, and each
    # distance is at most a proven constant times the dropped tail
    # |h - h^(k)|_1, to a relative 1e-12.  S'(u)h = sum_i h_i z_i with
    # z_i the linearized state of point i, so C_DS = max_i |z_i|, in the
    # consistent mass norm the distance is measured in; C_DJ = |d|_inf;
    # and h'Hh - h^(k)'Hh^(k) = (h - h^(k))'H(h + h^(k)), so the D2J
    # constant at k is |H(h + h^(k))|_inf
    domain = Domain.unit_square()
    grid = [[x, y] for y in (0.35, 0.65) for x in (0.2, 0.4, 0.6, 0.8)]
    points = compute_separation_radii(grid, domain)
    bounds = BoundsPair([0.0] * 8, [4.0] * 8)
    instance = ProblemInstance(domain, points, bounds, 0.1, f0=2.0,
                               y_d=0.0, resolution=32)
    mesh = build_mesh(domain, 32)
    u = np.array([0.5] * 8)
    h = np.array([0.8 ** i for i in range(1, 9)])
    state = solve_state(instance, u, mesh)
    d, phi = evaluate_DJ(instance, u, state)
    mass = reference_mass(mesh)

    def norm(z):
        return float(np.sqrt(z @ (mass @ z)))
    c_ds = max(norm(solve_linearized(state, e, points)) for e in np.eye(8))
    c_dj = float(np.max(np.abs(d)))
    z_full = solve_linearized(state, h, points)
    dj_full = float(np.dot(d, h))
    H = reduced_hessian(instance, state, phi)
    q_full = float(h @ H @ h)
    ds_dist, dj_dist, q_dist, tails, c_q = [], [], [], [], []
    for k in range(1, 9):
        hk = truncate(h, k)
        zk = solve_linearized(state, hk, points)
        ds_dist.append(norm(zk - z_full))
        dj_dist.append(abs(float(np.dot(d, hk)) - dj_full))
        q_dist.append(abs(float(hk @ H @ hk) - q_full))
        tails.append(float(np.sum(np.abs(h - hk))))
        c_q.append(float(np.max(np.abs(H @ (h + hk)))))
    ok = True
    ratios = []
    for dist, constants in ((ds_dist, [c_ds] * 8), (dj_dist, [c_dj] * 8),
                            (q_dist, c_q)):
        drops = np.diff(dist)
        ok &= bool(np.all(drops <= 1e-12)) and dist[-1] == 0.0
        bounds_k = [c * tail for c, tail in zip(constants, tails)]
        ok &= all(dist[k] <= bounds_k[k] * (1.0 + 1e-12) for k in range(8))
        ratios.append(max(dist[k] / bounds_k[k] for k in range(7)))
    _report(10, "truncation-limits", ok,
            "proven C: DS=%.3g DJ=%.3g D2J<=%.3g, dist/bound <= "
            "%.2f %.2f %.2f" % ((c_ds, c_dj, max(c_q)) + tuple(ratios)))
