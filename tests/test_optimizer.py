import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from expctrl import optimizer
from expctrl.mesh import Domain
from expctrl.objective import evaluate_DJ, reduced_hessian
from expctrl.optimizer import (KKTReport, critical_cone_minimum,
                               kkt_residual, projected_gradient,
                               second_order_check)
from expctrl.pde import _CG_TOL, _ETA_MAX, ProblemInstance, solve_state
from expctrl.sequences import BoundsPair, compute_separation_radii
from helpers import (D2J, DJ, J, certify, count_linearized,
                     reference_critical_cone_minimum)


def make_instance(nu=0.1, resolution=20, lower=(-1.0, -1.0),
                  upper=(1.0, 1.0), f0=None, y_d=None):
    dom = Domain.unit_square()
    pts = compute_separation_radii([[0.3, 0.4], [0.7, 0.6]], dom)
    return ProblemInstance(dom, pts, BoundsPair(list(lower), list(upper)),
                           nu, f0=f0, y_d=y_d, resolution=resolution)


def test_kkt_classification_trichotomy():
    bounds = BoundsPair([0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0])
    u = np.array([0.0, 0.5, 1.0, 1.0])
    d = np.array([0.3, 0.0, 0.3, 0.7])
    rep = kkt_residual(u, d, bounds)
    assert rep.classification == ["lower-active", "interior",
                                  "upper-active", "degenerate"]
    # lower-active with d >= 0 satisfies the sign condition
    assert rep.residuals[0] == 0.0
    # interior stationarity
    assert rep.residuals[1] == 0.0
    # upper-active with d > 0 violates it by exactly d
    assert_allclose(rep.residuals[2], 0.3)
    # pinned interval carries no residual by convention
    assert rep.residuals[3] == 0.0
    assert_allclose(rep.aggregate, 0.3)


def test_kkt_lower_active_with_negative_gradient_is_flagged():
    bounds = BoundsPair([0.0], [1.0])
    rep = kkt_residual(np.array([0.0]), np.array([-0.4]), bounds)
    assert_allclose(rep.residuals, [0.4])
    rep2 = kkt_residual(np.array([0.5]), np.array([-0.4]), bounds)
    assert rep2.classification == ["interior"]
    assert_allclose(rep2.residuals, [0.4])


def test_kkt_projected_residual_agrees_for_interior_points():
    bounds = BoundsPair([-5.0], [5.0])
    rep = kkt_residual(np.array([0.3]), np.array([0.8]), bounds)
    assert_allclose(rep.projected_aggregate, 0.8)


@settings(max_examples=100)
@given(st.floats(-2.0, 2.0), st.floats(-3.0, 3.0))
def test_kkt_residual_zero_iff_sign_conditions_hold(u_val, d_val):
    bounds = BoundsPair([-1.0], [1.0])
    u = np.array([np.clip(u_val, -1.0, 1.0)])
    rep = kkt_residual(u, np.array([d_val]), bounds)
    r = rep.residuals[0]
    assert r >= 0.0
    uu = u[0]
    if uu <= -1.0 + 1e-10:
        assert np.isclose(r, max(-d_val, 0.0))
    elif uu >= 1.0 - 1e-10:
        assert np.isclose(r, max(d_val, 0.0))
    else:
        assert np.isclose(r, abs(d_val))


def test_kkt_report_validation():
    rep = KKTReport(["interior"], [0.2], [0.1], [0.2])
    assert rep.aggregate == 0.2
    # kkt_residual, the report's maker, gives one nonnegative residual
    # per classified component
    rep = kkt_residual(np.array([0.0, 0.5, 1.0]), np.array([-0.5, 0.3, 0.2]),
                       BoundsPair([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]))
    assert rep.classification == ["lower-active", "interior", "upper-active"]
    assert_allclose(rep.residuals, [0.5, 0.3, 0.2])


def test_projected_gradient_finds_the_manufactured_optimum():
    # y_d = state at u* = 0 and nu > 0 makes u* = 0 stationary
    inst0 = make_instance(f0=lambda x: 2.0 * np.ones(len(x)))
    mesh = inst0.make_mesh()
    ystar = solve_state(inst0, np.array([0.0, 0.0]), mesh)
    inst = make_instance(f0=lambda x: 2.0 * np.ones(len(x)), y_d=ystar.y)
    u, rep = projected_gradient(inst, mesh, np.array([0.7, -0.5]),
                                max_iters=100, tol=1e-8)
    assert rep.aggregate <= 1e-8
    assert np.max(np.abs(u)) < 1e-6
    assert rep.iterations < 100


def test_projected_gradient_respects_pinned_components():
    inst = make_instance(lower=(0.25, -1.0), upper=(0.25, 1.0), f0=1.0)
    mesh = inst.make_mesh()
    u, rep = projected_gradient(inst, mesh, np.array([0.25, 0.5]),
                                max_iters=60, tol=1e-7)
    assert u[0] == 0.25
    assert rep.classification[0] == "degenerate"


def test_projected_gradient_keeps_iterates_feasible_and_J_monotone():
    inst = make_instance(f0=1.0, y_d=0.4)
    mesh = inst.make_mesh()
    u, rep = projected_gradient(inst, mesh, np.array([0.9, -0.9]),
                                max_iters=50, tol=1e-9)
    assert np.all(u >= inst.bounds.lower - 1e-15)
    assert np.all(u <= inst.bounds.upper + 1e-15)
    J_hist = [row[0] for row in rep.history]
    assert all(a >= b - 1e-12 for a, b in zip(J_hist, J_hist[1:]))


def test_projected_gradient_with_fully_pinned_bounds_stops_at_once():
    inst = make_instance(lower=(0.3, -0.2), upper=(0.3, -0.2), f0=1.0)
    mesh = inst.make_mesh()
    u, rep = projected_gradient(inst, mesh, np.array([0.3, -0.2]),
                                max_iters=10, tol=1e-8)
    assert rep.iterations == 0
    assert rep.aggregate == 0.0
    assert rep.classification == ["degenerate", "degenerate"]


def test_projected_gradient_projects_an_infeasible_start():
    inst = make_instance(f0=1.0)
    mesh = inst.make_mesh()
    u, rep = projected_gradient(inst, mesh, np.array([5.0, -5.0]),
                                max_iters=40, tol=1e-6)
    assert np.all(u <= 1.0 + 1e-15)
    assert np.all(u >= -1.0 - 1e-15)


def spy_on_cholesky(monkeypatch):
    """Record the shape of every block handed to np.linalg.cholesky."""
    blocks = []
    cholesky = np.linalg.cholesky

    def spy(a):
        blocks.append(a.shape)
        return cholesky(a)
    monkeypatch.setattr(np.linalg, "cholesky", spy)
    return blocks


def test_projected_newton_falls_back_on_an_indefinite_hessian(monkeypatch):
    inst = make_instance(f0=1.0, y_d=0.4)
    mesh = inst.make_mesh()
    u0 = np.array([0.9, -0.9])
    d0 = DJ(inst, u0, mesh)
    # the iterates, one gradient each; the Hessian at the first is faked
    at = []

    def gradient(instance, u, state):
        at.append(u.copy())
        return evaluate_DJ(instance, u, state)

    def hessian(instance, state, adjoint, index=None, tol=_CG_TOL):
        if len(at) == 1:
            return np.diag([3.0, -3.0])
        return reduced_hessian(instance, state, adjoint, index, tol=tol)
    monkeypatch.setattr(optimizer, "evaluate_DJ", gradient)
    monkeypatch.setattr(optimizer, "reduced_hessian", hessian)
    u, rep = projected_gradient(inst, mesh, u0, max_iters=50, tol=1e-9)
    assert rep.aggregate <= 1e-9
    # the fallback runs along -d from s = 1 / |H|_2 = 1/3, halving
    s = rep.history[1][2]
    halvings = np.log2(1.0 / (3.0 * s))
    assert halvings >= 0.0 and halvings == round(halvings)
    assert np.array_equal(at[1], np.clip(u0 - s * d0,
                                         inst.bounds.lower,
                                         inst.bounds.upper))
    J_hist = [row[0] for row in rep.history]
    assert all(a >= b for a, b in zip(J_hist, J_hist[1:]))


def test_a_clipped_newton_step_lowers_J():
    # the target lies above the box: the full Newton step from 0 lands
    # past both upper bounds, and the clamp cuts it back to them
    inst = make_instance(f0=1.0, y_d=3.0)
    mesh = inst.make_mesh()
    u0 = np.array([0.0, 0.0])
    state = solve_state(inst, u0, mesh)
    d0, phi = evaluate_DJ(inst, u0, state)
    H = reduced_hessian(inst, state, phi)
    newton = u0 - np.linalg.solve(H, d0)
    assert np.all(newton > inst.bounds.upper)
    u, rep = projected_gradient(inst, mesh, u0, max_iters=1, tol=1e-9)
    assert rep.iterations == 1
    assert rep.history[1][2] == 1.0
    assert rep.history[1][0] < rep.history[0][0]
    assert np.array_equal(u, inst.bounds.upper)
    # both components are free, so the Armijo bound is the Newton
    # decrement, which the clamped step meets
    decrement = float(d0 @ np.linalg.solve(H, d0))
    assert rep.history[0][0] - rep.history[1][0] >= 1e-4 * decrement


def test_a_pinned_interval_never_enters_the_newton_block(monkeypatch):
    # with d_0 = 0 no bound test holds the pinned component, and its
    # negative curvature would fail the Cholesky if it entered H_FF
    inst = make_instance(lower=(0.25, -1.0), upper=(0.25, 1.0), f0=1.0)
    mesh = inst.make_mesh()

    def gradient(*args, **kwargs):
        d, phi = evaluate_DJ(*args, **kwargs)
        d[0] = 0.0
        return d, phi

    def hessian(*args, **kwargs):
        H = reduced_hessian(*args, **kwargs)
        H[0, :] = H[:, 0] = 0.0
        H[0, 0] = -1.0
        return H
    monkeypatch.setattr(optimizer, "evaluate_DJ", gradient)
    monkeypatch.setattr(optimizer, "reduced_hessian", hessian)
    blocks = spy_on_cholesky(monkeypatch)
    u, rep = projected_gradient(inst, mesh, np.array([0.25, 0.5]),
                                max_iters=20, tol=1e-9)
    assert rep.aggregate <= 1e-9
    assert blocks == [(1, 1)] * rep.iterations
    assert all(row[2] == 1.0 for row in rep.history[1:])
    assert u[0] == 0.25


def test_an_empty_free_set_takes_the_gradient_step(monkeypatch):
    # both components sit 1e-4 below the upper bound that d pushes
    # against, within eps = min(1e-3, 1e-4): both are held, F is empty
    # and the step is clamp(u - d) from s = 1
    inst = make_instance(f0=1.0, y_d=3.0)
    mesh = inst.make_mesh()
    u0 = np.array([1.0 - 1e-4] * 2)
    d0 = DJ(inst, u0, mesh)
    assert np.all(d0 < -1e-4)
    blocks = spy_on_cholesky(monkeypatch)
    calls = count_linearized(monkeypatch)
    u, rep = projected_gradient(inst, mesh, u0, max_iters=5, tol=1e-9)
    assert blocks == [(0, 0)]
    # the step reads no Hessian entry, so none is solved for
    assert calls == []
    assert rep.iterations == 1
    assert rep.history[1][2] == 1.0
    assert np.array_equal(u, np.clip(u0 - d0, inst.bounds.lower,
                                     inst.bounds.upper))


def mixed_four_point_instance():
    """A mixed active set on four points: the target's control lies
    above the box at x_0, below it at x_1 and inside at x_2 and x_3."""
    dom = Domain.unit_square()
    pts = compute_separation_radii(
        [[0.3, 0.3], [0.7, 0.3], [0.3, 0.7], [0.7, 0.7]], dom)
    inst = ProblemInstance(dom, pts, BoundsPair([-1.0] * 4, [2.0] * 4),
                           1e-3, resolution=24)
    mesh = inst.make_mesh()
    inst.y_d = solve_state(inst, np.array([2.75, -1.75, 0.3, 0.8]), mesh).y
    return inst, mesh


def test_newton_and_certificate_solve_only_the_columns_they_read(
        monkeypatch):
    inst, mesh = mixed_four_point_instance()
    blocks = spy_on_cholesky(monkeypatch)
    calls = count_linearized(monkeypatch)
    u, rep = projected_gradient(inst, mesh, np.array([0.0] * 4), tol=1e-6)
    assert rep.classification == ["upper-active", "lower-active",
                                  "interior", "interior"]
    # one successful Cholesky of H_FF per iterate, |F_k| solves each
    assert len(blocks) == rep.iterations
    newton = sum(m for m, _ in blocks)
    assert len(calls) == newton
    report = second_order_check(inst, rep)
    unblocked = sum(c != "degenerate" and abs(d) <= 1e-6
                    for c, d in zip(rep.classification, rep.gradient))
    assert unblocked == 2
    assert len(calls) == newton + unblocked
    # K solves per Hessian would make (iterations + 1) K
    assert len(calls) < (rep.iterations + 1) * inst.points.count
    # the certificate of the whole Hessian, to the bit
    H = reduced_hessian(inst, rep.state, rep.adjoint)
    minimum, direction = critical_cone_minimum(H, rep)
    assert report.minimum == minimum
    assert np.array_equal(report.direction, direction)


def test_iterate_hessians_are_solved_to_the_forcing_tolerance(monkeypatch):
    # the Newton step reads H at eta_k = max(_CG_TOL, min(_ETA_MAX,
    # residual_k)); the certificate reads it at _CG_TOL
    inst, mesh = mixed_four_point_instance()
    blocks = spy_on_cholesky(monkeypatch)
    calls = count_linearized(monkeypatch)
    u, rep = projected_gradient(inst, mesh, np.array([0.0] * 4), tol=1e-6)
    etas = [max(_CG_TOL, min(_ETA_MAX, row[1])) for row in rep.history]
    assert calls == [eta for (m, _), eta in zip(blocks, etas)
                     for _ in range(m)]
    # every iterate that steps is far enough from stationary that its
    # columns are solved more loosely than the certificate's
    assert all(_CG_TOL < eta < _ETA_MAX for eta in etas[:-1])
    newton = len(calls)
    second_order_check(inst, rep)
    assert len(calls) > newton
    assert calls[newton:] == [_CG_TOL] * (len(calls) - newton)


# per component: (u, lower, upper, d, nonzero signs the cone allows);
# u is a first-order point for every choice, since only an active bound
# with d of the right sign or a pinned interval carries a nonzero d,
# and a component that allows no sign is blocked
_COMPONENTS = {
    "lower": (-1.0, -1.0, 1.0, 0.0, (1.0,)),
    "lower-blocked": (-1.0, -1.0, 1.0, 0.5, ()),
    "upper": (1.0, -1.0, 1.0, 0.0, (-1.0,)),
    "upper-blocked": (1.0, -1.0, 1.0, -0.5, ()),
    "interior": (0.0, -1.0, 1.0, 0.0, (1.0, -1.0)),
    "interior-small-d": (0.0, -1.0, 1.0, 1e-8, (1.0, -1.0)),
    "pinned": (0.0, 0.0, 0.0, 0.3, ()),
}


def cone_problem(kinds):
    u, lower, upper, d, allowed = zip(*(_COMPONENTS[k] for k in kinds))
    return np.array(u), np.array(d), BoundsPair(lower, upper), allowed


def in_cone(h, allowed):
    return all(h[i] == 0.0 or np.sign(h[i]) in signs
               for i, signs in enumerate(allowed))


def assert_same_minimum(batched, loop):
    # the same value and direction, bit for bit (signed zeros included)
    assert batched[0] == loop[0]
    assert batched[1].tobytes() == loop[1].tobytes()


@settings(max_examples=200)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.lists(st.sampled_from(sorted(_COMPONENTS)), min_size=k, max_size=k),
    st.lists(st.floats(-2.0, 2.0), min_size=k * k, max_size=k * k))))
def test_critical_cone_minimum_is_below_every_cone_direction(case):
    kinds, entries = case
    K = len(kinds)
    A = np.array(entries).reshape(K, K)
    H = 0.5 * (A + A.T)
    u, d, bounds, allowed = cone_problem(kinds)
    kkt = kkt_residual(u, d, bounds)
    value, h = critical_cone_minimum(H, kkt)
    assert_same_minimum((value, h), reference_critical_cone_minimum(H, kkt))
    assert in_cone(h, allowed)
    assert value == float(h @ H @ h)
    if not any(allowed):
        assert value == 0.0 and not np.any(h)
        return
    assert_allclose(np.sum(np.abs(h)), 1.0, rtol=1e-12)
    # room for the rounding of h' H h itself
    slack = 1e-12 * (1.0 + np.abs(H).max())
    for i, signs in enumerate(allowed):
        for sign in signs:
            e = np.zeros(K)
            e[i] = sign
            assert value <= float(e @ H @ e) + slack
    rng = np.random.default_rng(0)
    for _ in range(300):
        g = rng.standard_normal(K)
        for i, signs in enumerate(allowed):
            if len(signs) < 2:   # blocked, or a single sign allowed
                g[i] = abs(g[i]) * sum(signs)
        if np.any(g):
            g /= np.sum(np.abs(g))
            assert value <= float(g @ H @ g) + slack


@pytest.mark.parametrize("kinds, definite, seed", [
    (["interior"] * 10, False, 0),
    (["interior"] * 8, True, 1),
    (["interior", "lower", "upper", "interior-small-d"] * 2
     + ["lower-blocked", "pinned"], False, 2),
    (["lower", "upper", "interior", "upper-blocked", "interior", "lower",
      "interior", "upper", "pinned", "interior"], True, 3),
    (["lower"] * 6 + ["upper"] * 4, False, 4),
    # every minimizer of an all-interior cone has its mirror -h
    (["interior"] * 10, True, 5),
    # the minimizer's first sign is -, on an upper-active component,
    # so no mirror of its face is a pattern
    (["upper", "interior", "lower", "interior", "upper", "interior"], True,
     6),
])
def test_critical_cone_minimum_matches_the_face_loop(kinds, definite, seed):
    # the stacked solves give the loop's minimum and direction to the
    # bit, at m = 10 unblocked components too, with the mirrored faces
    # of all-interior supports skipped; equal values keep the loop's
    # first pattern
    K = len(kinds)
    A = np.random.default_rng(seed).standard_normal((K, K))
    H = A @ A.T + 0.1 * np.eye(K) if definite else 0.5 * (A + A.T)
    u, d, bounds, _ = cone_problem(kinds)
    kkt = kkt_residual(u, d, bounds)
    assert_same_minimum(critical_cone_minimum(H, kkt),
                        reference_critical_cone_minimum(H, kkt))


def test_critical_cone_minimum_skips_a_singular_face_like_the_loop():
    # on face (+, +) of the first two components the bordered system
    # [[1, 1, 1], [1, 1, 1], [1, 1, 0]] is singular, so its stacked
    # solve falls back to one solve per face and skips just that one
    H = np.ones((3, 3))
    H[2, 2] = 2.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0],
                         [1.0, 1.0, 0.0]], [0.0, 0.0, 1.0])
    x = optimizer._face_solutions(
        np.stack([H[:2, :2], H[1:, 1:]]), np.ones((2, 2)))
    assert np.all(np.isnan(x[0]))
    assert np.all(np.isfinite(x[1]))
    u, d, bounds, _ = cone_problem(["interior"] * 3)
    kkt = kkt_residual(u, d, bounds)
    value, h = critical_cone_minimum(H, kkt)
    assert_same_minimum((value, h), reference_critical_cone_minimum(H, kkt))
    # h' H h = (h_1 + h_2 + h_3)^2 + h_3^2 vanishes at (1/2, -1/2, 0)
    assert value == 0.0
    assert np.array_equal(h, [0.5, -0.5, 0.0])


def test_critical_cone_requires_a_first_order_point():
    bounds = BoundsPair([-1.0], [1.0])
    with pytest.raises(ValueError, match="first-order"):
        critical_cone_minimum(
            np.eye(1), kkt_residual(np.array([0.0]), np.array([0.5]), bounds))


def test_critical_cone_minimum_vanishes_on_blocked_components():
    bounds = BoundsPair([0.0, -1.0, 0.0], [1.0, 1.0, 1.0])
    u = np.array([0.0, 0.2, 0.0])
    d = np.array([0.5, 0.0, 0.0])   # aggregate 0: sign conditions hold
    # the blocked component has the most negative curvature
    H = np.diag([-5.0, 2.0, 3.0])
    value, h = critical_cone_minimum(H, kkt_residual(u, d, bounds))
    assert h[0] == 0.0                 # |d| > KKT_TOL blocks it
    assert h[2] >= 0.0                 # lower-active keeps it >= 0
    assert float(np.dot(h, d)) == 0.0
    # min of 2 a^2 + 3 b^2 over |a| + b = 1, b >= 0: a = 0.6, b = 0.4
    assert_allclose(h, [0.0, 0.6, 0.4], rtol=1e-14)
    assert_allclose(value, 1.2, rtol=1e-14)


def test_critical_cone_empty_cone_is_flagged():
    bounds = BoundsPair([0.0, 0.0], [1.0, 1.0])
    u = np.array([0.0, 1.0])
    d = np.array([0.5, -0.5])
    value, h = critical_cone_minimum(-np.eye(2), kkt_residual(u, d, bounds))
    assert value == 0.0
    assert np.array_equal(h, np.zeros(2))


def test_critical_cone_minimum_is_deterministic():
    # h' h is minimal at all four (+-1/2, +-1/2); the first sign
    # pattern visited wins, on every call
    bounds = BoundsPair([-1.0, -1.0], [1.0, 1.0])
    u = np.array([0.1, -0.2])
    d = np.zeros(2)
    kkt = kkt_residual(u, d, bounds)
    value, h = critical_cone_minimum(np.eye(2), kkt)
    assert value == 0.5
    assert np.array_equal(h, [0.5, 0.5])
    again = critical_cone_minimum(np.eye(2), kkt)
    assert again[0] == value and np.array_equal(again[1], h)


def test_second_order_check_rejects_a_thin_negative_region(monkeypatch):
    # h' H h < 0 only within about 1.8 degrees of +-v: a seeded sample
    # of 64 cone directions misses it, the exact minimum does not
    v = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
    H = np.eye(3) - 1.001 * np.outer(v, v)
    monkeypatch.setattr(optimizer, "reduced_hessian",
                        lambda *args, **kwargs: H)
    kkt = kkt_residual(np.array([0.0] * 3), np.zeros(3),
                       BoundsPair([-1.0] * 3, [1.0] * 3))
    # J = 0 sets tol = 1e-8
    kkt.history = [(0.0, kkt.aggregate, 0.0)]
    report = second_order_check(object(), kkt)
    assert not report.passed
    assert not report.empty
    assert report.minimum < 0.0
    assert_allclose(report.minimum, -0.001 / 3.0, rtol=1e-12)
    direction = v / np.sum(np.abs(v))
    assert_allclose(report.direction * np.sign(report.direction[0]),
                    direction, rtol=1e-12)


def test_second_order_check_at_a_convex_point():
    inst = make_instance(nu=0.5, f0=1.0)
    mesh = inst.make_mesh()
    ystar = solve_state(inst, np.array([0.0, 0.0]), mesh)
    inst.y_d = ystar.y
    u, rep = projected_gradient(inst, mesh, np.array([0.2, 0.2]),
                                max_iters=80, tol=1e-9)
    report = certify(inst, u, mesh)
    assert report.passed
    assert not report.empty
    # nu-strong convexity at the manufactured point: nu * sum h^2 > 0.09
    assert report.minimum > 0.05
    H = D2J(inst, u, mesh)
    h = report.direction
    assert report.minimum == float(h @ H @ h)
    assert_allclose(np.sum(np.abs(h)), 1.0, rtol=1e-12)


def test_second_order_check_reuses_the_optimizer_state():
    # the final state, adjoint and J of the optimizer's report are those
    # of a fresh solve at its control, and certify the same
    inst = make_instance(nu=0.5, f0=1.0, y_d=0.2)
    mesh = inst.make_mesh()
    u, rep = projected_gradient(inst, mesh, np.array([0.2, 0.2]),
                                max_iters=80, tol=1e-9)
    assert np.array_equal(rep.state.y, solve_state(inst, u, mesh).y)
    assert rep.history[-1][0] == J(inst, u, mesh)
    fresh = certify(inst, u, mesh)
    reused = second_order_check(inst, rep)
    assert reused.minimum == fresh.minimum
    assert np.array_equal(reused.direction, fresh.direction)
    assert reused.passed == fresh.passed


def test_second_order_check_zero_direction_scores_zero():
    # pinned intervals block every component: only the zero direction
    # is left, and it scores zero
    inst = make_instance(lower=(0.3, -0.2), upper=(0.3, -0.2), f0=1.0,
                         y_d=0.1)
    mesh = inst.make_mesh()
    u = np.array([0.3, -0.2])
    report = certify(inst, u, mesh)
    assert report.empty
    assert report.minimum == 0.0
    assert np.array_equal(report.direction, np.zeros(2))
    assert report.passed
