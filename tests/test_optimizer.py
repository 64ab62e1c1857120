import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from expctrl import optimizer
from expctrl.mesh import Domain
from expctrl.objective import evaluate_DJ
from expctrl.optimizer import (CriticalDirection, KKTReport, kkt_residual,
                               projected_gradient, sample_critical_cone,
                               second_order_check)
from expctrl.pde import ProblemInstance, solve_state
from expctrl.sequences import BoundsPair, Control, compute_separation_radii


def make_instance(nu=0.1, resolution=20, lower=(-1.0, -1.0),
                  upper=(1.0, 1.0), f0=None, y_d=None):
    dom = Domain.unit_square()
    pts = compute_separation_radii([[0.3, 0.4], [0.7, 0.6]], dom)
    return ProblemInstance(dom, pts, BoundsPair(list(lower), list(upper)),
                           nu, f0=f0, y_d=y_d, resolution=resolution)


def test_kkt_classification_trichotomy():
    bounds = BoundsPair([0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0])
    u = Control([0.0, 0.5, 1.0, 1.0])
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
    rep = kkt_residual(Control([0.0]), np.array([-0.4]), bounds)
    assert_allclose(rep.residuals, [0.4])
    rep2 = kkt_residual(Control([0.5]), np.array([-0.4]), bounds)
    assert rep2.classification == ["interior"]
    assert_allclose(rep2.residuals, [0.4])


def test_kkt_projected_residual_agrees_for_interior_points():
    bounds = BoundsPair([-5.0], [5.0])
    rep = kkt_residual(Control([0.3]), np.array([0.8]), bounds)
    assert_allclose(rep.projected, [0.8])
    assert_allclose(rep.projected_aggregate, 0.8)


@settings(max_examples=100)
@given(st.floats(-2.0, 2.0), st.floats(-3.0, 3.0))
def test_kkt_residual_zero_iff_sign_conditions_hold(u_val, d_val):
    bounds = BoundsPair([-1.0], [1.0])
    u = Control([np.clip(u_val, -1.0, 1.0)])
    rep = kkt_residual(u, np.array([d_val]), bounds)
    r = rep.residuals[0]
    assert r >= 0.0
    uu = u.values[0]
    if uu <= -1.0 + 1e-10:
        assert np.isclose(r, max(-d_val, 0.0))
    elif uu >= 1.0 - 1e-10:
        assert np.isclose(r, max(d_val, 0.0))
    else:
        assert np.isclose(r, abs(d_val))


def test_kkt_report_validation():
    with pytest.raises(ValueError):
        KKTReport(["interior"], [-0.1], [0.1], [0.1])
    rep = KKTReport(["interior"], [0.2], [0.1], [0.2], iterations=3,
                    history=[(1.0, 0.5, 1.0)])
    assert rep.aggregate == 0.2


def test_projected_gradient_finds_the_manufactured_optimum():
    # y_d = state at u* = 0 and nu > 0 makes u* = 0 stationary
    inst0 = make_instance(f0=lambda x: 2.0 * np.ones(len(x)))
    mesh = inst0.make_mesh()
    ystar = solve_state(inst0, Control([0.0, 0.0]), mesh)
    inst = make_instance(f0=lambda x: 2.0 * np.ones(len(x)), y_d=ystar.y)
    u, rep = projected_gradient(inst, mesh, Control([0.7, -0.5]),
                                max_iters=100, tol=1e-8)
    assert rep.aggregate <= 1e-8
    assert np.max(np.abs(u.values)) < 1e-6
    assert rep.iterations < 100


def test_projected_gradient_respects_pinned_components():
    inst = make_instance(lower=(0.25, -1.0), upper=(0.25, 1.0), f0=1.0)
    mesh = inst.make_mesh()
    u, rep = projected_gradient(inst, mesh, Control([0.25, 0.5]),
                                max_iters=60, tol=1e-7)
    assert u.values[0] == 0.25
    assert rep.classification[0] == "degenerate"


def test_projected_gradient_keeps_iterates_feasible_and_J_monotone():
    inst = make_instance(f0=1.0, y_d=0.4)
    mesh = inst.make_mesh()
    u, rep = projected_gradient(inst, mesh, Control([0.9, -0.9]),
                                max_iters=50, tol=1e-9)
    assert np.all(u.values >= inst.bounds.lower - 1e-15)
    assert np.all(u.values <= inst.bounds.upper + 1e-15)
    J_hist = [row[0] for row in rep.history]
    assert all(a >= b - 1e-12 for a, b in zip(J_hist, J_hist[1:]))


def test_projected_gradient_with_fully_pinned_bounds_stops_at_once():
    inst = make_instance(lower=(0.3, -0.2), upper=(0.3, -0.2), f0=1.0)
    mesh = inst.make_mesh()
    u, rep = projected_gradient(inst, mesh, Control([0.3, -0.2]),
                                max_iters=10, tol=1e-8)
    assert rep.iterations == 0
    assert rep.aggregate == 0.0
    assert rep.classification == ["degenerate", "degenerate"]


def test_projected_gradient_projects_an_infeasible_start():
    inst = make_instance(f0=1.0)
    mesh = inst.make_mesh()
    u, rep = projected_gradient(inst, mesh, Control([5.0, -5.0]),
                                max_iters=40, tol=1e-6)
    assert np.all(u.values <= 1.0 + 1e-15)
    assert np.all(u.values >= -1.0 - 1e-15)


def test_critical_direction_validation():
    with pytest.raises(ValueError, match="blocked"):
        CriticalDirection([1.0], [True], [False], [False])
    with pytest.raises(ValueError, match="lower-active"):
        CriticalDirection([-1.0], [False], [True], [False])
    with pytest.raises(ValueError, match="upper-active"):
        CriticalDirection([1.0], [False], [False], [True])
    d = CriticalDirection([0.5], [False], [False], [False])
    assert not d.empty


def test_sample_critical_cone_requires_first_order_point():
    bounds = BoundsPair([-1.0], [1.0])
    with pytest.raises(ValueError, match="first-order"):
        sample_critical_cone(Control([0.0]), np.array([0.5]), bounds)


def test_sample_critical_cone_blocks_nonzero_gradient_components():
    bounds = BoundsPair([0.0, -1.0, 0.0], [1.0, 1.0, 1.0])
    u = Control([0.0, 0.2, 0.0])
    d = np.array([0.5, 0.0, 0.0])   # aggregate 0: sign conditions hold
    dirs = sample_critical_cone(u, d, bounds, count=12, seed=3)
    assert len(dirs) == 12
    for h in dirs:
        assert h.values[0] == 0.0          # |d| > tol_grad blocks it
        assert h.values[2] >= 0.0          # lower-active keeps it >= 0
        assert_allclose(np.sum(np.abs(h.values)), 1.0, rtol=1e-12)
        assert float(np.dot(h.values, d)) == 0.0


def test_sample_critical_cone_empty_cone_is_flagged():
    bounds = BoundsPair([0.0, 0.0], [1.0, 1.0])
    u = Control([0.0, 1.0])
    d = np.array([0.5, -0.5])
    dirs = sample_critical_cone(u, d, bounds, count=6, seed=1)
    assert len(dirs) == 1
    assert dirs[0].empty
    assert abs(dirs[0].values).max() == 0.0


def test_sample_critical_cone_is_deterministic():
    bounds = BoundsPair([-1.0, -1.0], [1.0, 1.0])
    u = Control([0.1, -0.2])
    d = np.zeros(2)
    a = sample_critical_cone(u, d, bounds, count=5, seed=9)
    b = sample_critical_cone(u, d, bounds, count=5, seed=9)
    for x, y in zip(a, b):
        assert_allclose(x.values, y.values, rtol=0, atol=0)


def test_second_order_check_at_a_convex_point():
    inst = make_instance(nu=0.5, f0=1.0)
    mesh = inst.make_mesh()
    ystar = solve_state(inst, Control([0.0, 0.0]), mesh)
    inst.y_d = ystar.y
    u, rep = projected_gradient(inst, mesh, Control([0.2, 0.2]),
                                max_iters=80, tol=1e-9)
    d = evaluate_DJ(inst, u, mesh).gradient
    dirs = sample_critical_cone(u, d, inst.bounds, tol_grad=1e-6,
                                count=10, seed=42)
    report = second_order_check(inst, mesh, u, dirs)
    assert report.passed
    # nu-strong convexity at the manufactured point: nu * sum h^2 > 0.09
    assert report.minimum > 0.05
    assert len(report.values) == len(dirs)
    assert report.minimum == min(report.values)


def test_second_order_check_reuses_the_optimizer_state(monkeypatch):
    inst = make_instance(nu=0.5, f0=1.0, y_d=0.2)
    mesh = inst.make_mesh()
    u, rep = projected_gradient(inst, mesh, Control([0.2, 0.2]),
                                max_iters=80, tol=1e-9)
    assert np.array_equal(rep.state.y.values,
                          solve_state(inst, u, mesh).y.values)
    dirs = sample_critical_cone(u, rep.gradient, inst.bounds,
                                tol_grad=1e-6, count=10, seed=42)
    fresh = second_order_check(inst, mesh, u, dirs)

    def no_state_solve(*args, **kwargs):
        raise AssertionError("state solved again")
    monkeypatch.setattr(optimizer, "solve_state", no_state_solve)
    reused = second_order_check(inst, mesh, u, dirs, state=rep.state)
    assert reused.values == fresh.values
    assert reused.passed == fresh.passed


def test_second_order_check_zero_direction_scores_zero():
    inst = make_instance(f0=1.0, y_d=0.1)
    mesh = inst.make_mesh()
    zero = CriticalDirection([0.0, 0.0], [False, False], [False, False],
                             [False, False], empty=True)
    report = second_order_check(inst, mesh, Control([0.0, 0.0]), [zero])
    assert report.values == [0.0]
    assert report.passed
