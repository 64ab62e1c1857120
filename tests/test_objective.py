import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from expctrl.cli import _write_summary
from expctrl.fem import Multigrid, solve_spd
from expctrl.mesh import Domain, build_mesh
from expctrl.objective import (DerivativeReport, evaluate_DJ, evaluate_J,
                               reduced_hessian, taylor_remainder_test)
from expctrl.pde import (ProblemInstance, operators, point_coupling,
                         solve_adjoint, solve_state)
from expctrl.sequences import BoundsPair, compute_separation_radii
from helpers import (D2J, DJ, J, count_linearized, free_block,
                     full_stiffness, to_scipy)


def make_instance(nu=0.1, f0=None, y_d=None, resolution=24,
                  upper=(3.0, 3.0)):
    dom = Domain.unit_square()
    pts = compute_separation_radii([[0.3, 0.4], [0.7, 0.6]], dom)
    bounds = BoundsPair([-2.0, -2.0], list(upper))
    return ProblemInstance(dom, pts, bounds, nu, f0=f0, y_d=y_d,
                           resolution=resolution)


def test_J_vanishes_when_tracking_and_penalty_vanish():
    inst = make_instance(nu=0.0)
    mesh = inst.make_mesh()
    u = np.array([1.0, 2.0])
    st = solve_state(inst, u, mesh)
    inst.y_d = st.y
    assert abs(evaluate_J(inst, u, st)) < 1e-20


def test_J_reduces_to_the_penalty_on_a_matched_target():
    inst = make_instance(nu=1.0)
    mesh = inst.make_mesh()
    u = np.array([1.0, 2.0])
    inst.y_d = solve_state(inst, u, mesh).y
    # tracking term vanishes, leaving (1/2)(1 + 4)
    assert_allclose(J(inst, u, mesh), 2.5, atol=1e-12)


def test_gradient_vanishes_at_a_matched_target_without_penalty():
    inst = make_instance(nu=0.0)
    mesh = inst.make_mesh()
    u = np.array([0.8, -0.3])
    inst.y_d = solve_state(inst, u, mesh).y
    assert np.max(np.abs(DJ(inst, u, mesh))) < 1e-10


def test_gradient_matches_central_differences():
    inst = make_instance(f0=lambda x: np.ones(len(x)), y_d=0.5)
    mesh = inst.make_mesh()
    u = np.array([0.5, -0.3])
    d = DJ(inst, u, mesh)
    rho = 1e-4
    for i in range(2):
        e = np.zeros(2)
        e[i] = rho
        fd = (J(inst, u + e, mesh)
              - J(inst, u - e, mesh)) / (2.0 * rho)
        rel = abs(fd - d[i]) / max(1.0, abs(fd))
        assert rel < 1e-4


def test_gradient_includes_the_penalty_term():
    inst = make_instance(nu=0.7)
    mesh = inst.make_mesh()
    u = np.array([1.0, -2.0])
    st = solve_state(inst, u, mesh)
    inst.y_d = st.y
    d, _ = evaluate_DJ(inst, u, st)
    # phi = 0, so the gradient is exactly nu * u
    assert_allclose(d, 0.7 * u, atol=1e-10)


def test_second_order_form_zero_direction_and_symmetry():
    inst = make_instance(f0=1.0, y_d=0.2)
    mesh = inst.make_mesh()
    H = D2J(inst, np.array([0.5, 0.5]), mesh)
    z = np.zeros(2)
    assert z @ H @ z == 0.0
    h = np.array([1.0, -0.5])
    k = np.array([0.3, 0.9])
    assert abs(h @ H @ k - k @ H @ h) < 1e-10


def test_second_order_form_is_bilinear():
    inst = make_instance(f0=1.0, y_d=0.2)
    mesh = inst.make_mesh()
    H = D2J(inst, np.array([0.2, -0.1]), mesh)
    h1 = np.array([1.0, 0.0])
    h2 = np.array([0.0, 1.0])
    k = np.array([0.4, -0.7])
    lhs = (2.0 * h1 + 3.0 * h2) @ H @ k
    rhs = 2.0 * (h1 @ H @ k) + 3.0 * (h2 @ H @ k)
    assert abs(lhs - rhs) < 1e-9


def test_second_order_form_against_finite_differences():
    inst = make_instance(f0=1.0, y_d=0.5)
    mesh = inst.make_mesh()
    u = np.array([0.5, -0.3])
    h = np.array([1.0, -0.5])
    d2 = h @ D2J(inst, u, mesh, tol=1e-12) @ h
    rho = 1e-4
    jp = J(inst, u + rho * h, mesh, tol=1e-12)
    jm = J(inst, u - rho * h, mesh, tol=1e-12)
    j0 = J(inst, u, mesh, tol=1e-12)
    fd = (jp - 2.0 * j0 + jm) / rho ** 2
    assert abs(d2 - fd) < 1e-5 * (1.0 + abs(d2))


def per_direction_D2J(instance, mesh, state, phi, h):
    """Reference D2J[h, h] from one linearized solve on P' h."""
    ops = operators(mesh)
    rhs = point_coupling(mesh, instance.points.points).T @ h
    H = to_scipy(full_stiffness(mesh)) \
        + sp.diags(ops.lumped * np.exp(state.y))
    H = free_block(mesh, H)
    z = solve_spd(H, rhs, mesh.boundary, 1e-12, Multigrid(H))
    weight = ops.lumped * (1.0 - np.exp(state.y) * phi)
    return float(np.sum(weight * z * z)) + instance.nu * float(np.dot(h, h))


def four_point_instance():
    # the manufactured-optimum setup of the end-to-end optimizer check
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
    return instance, mesh, np.array([0.5, 0.5, -0.5, 0.8])


@pytest.mark.parametrize("setup", ["two-point", "four-point"])
def test_reduced_hessian_matches_the_per_direction_form(setup):
    if setup == "two-point":
        inst = make_instance(f0=1.0, y_d=0.5)
        mesh = inst.make_mesh()
        u = np.array([0.5, -0.3])
    else:
        inst, mesh, u = four_point_instance()
    state = solve_state(inst, u, mesh)
    phi = solve_adjoint(state, inst.y_d)
    H = reduced_hessian(inst, state, phi)
    K = inst.points.count
    rng = np.random.default_rng(5)
    directions = list(np.eye(K)) + list(rng.standard_normal((6, K)))
    for h in directions:
        ref = per_direction_D2J(inst, mesh, state, phi, h)
        assert abs(h @ H @ h - ref) <= 1e-10 * abs(ref)


def test_reduced_hessian_is_symmetric_and_matches_gradient_differences():
    inst = make_instance(f0=1.0, y_d=0.5)
    mesh = inst.make_mesh()
    u = np.array([0.5, -0.3])
    H = D2J(inst, u, mesh, tol=1e-12)
    assert np.array_equal(H, H.T)
    rho = 1e-4
    for j in range(2):
        e = np.zeros(2)
        e[j] = rho
        fd = (DJ(inst, u + e, mesh, tol=1e-12)
              - DJ(inst, u - e, mesh, tol=1e-12)) \
            / (2.0 * rho)
        rel = np.max(np.abs(fd - H[:, j])) / max(1.0, np.max(np.abs(fd)))
        assert rel < 1e-4


def test_reduced_hessian_reuses_the_gradient_adjoint(monkeypatch):
    inst = make_instance(f0=1.0, y_d=0.5)
    mesh = inst.make_mesh()
    u = np.array([0.4, -0.3])
    state = solve_state(inst, u, mesh)
    d, phi = evaluate_DJ(inst, u, state)
    assert np.array_equal(phi, solve_adjoint(state, inst.y_d))
    # the Hessian reads that adjoint and adds the K linearized solves
    calls = count_linearized(monkeypatch)
    H = reduced_hessian(inst, state, phi)
    assert len(calls) == inst.points.count
    assert np.array_equal(H, H.T)


@pytest.mark.parametrize("index", [
    [], [2], [0, 3], [1, 2, 3], [0, 1, 2, 3],
    np.array([True, False, True, False])],
    ids=["empty", "one", "two", "three", "all", "mask"])
def test_a_hessian_block_has_the_bits_of_the_full_hessian(index,
                                                           monkeypatch):
    inst, mesh, u = four_point_instance()
    state = solve_state(inst, u, mesh)
    phi = solve_adjoint(state, inst.y_d)
    full = reduced_hessian(inst, state, phi)
    calls = count_linearized(monkeypatch)
    H = reduced_hessian(inst, state, phi, index)
    inside = np.zeros(full.shape, dtype=bool)
    inside[np.ix_(index, index)] = True
    # one linearized solve per column of the block, and its exact bits
    assert len(calls) == np.arange(4)[index].size
    assert np.array_equal(H[inside], full[inside])
    assert np.all(H[~inside] == 0.0)


def test_taylor_solves_the_hessian_only_on_the_direction_support(
        monkeypatch):
    inst = make_instance(f0=1.0, y_d=0.5)
    mesh = inst.make_mesh()
    u, h = np.array([0.5, -0.3]), np.array([1.0, 0.0])
    H = D2J(inst, u, mesh, tol=1e-12)
    calls = count_linearized(monkeypatch)
    rep = taylor_remainder_test(inst, u, mesh, h, rho_grid=[1e-2])
    assert len(calls) == 1
    assert rep.second_order == float(h @ H @ h)


def test_taylor_zero_direction_gives_a_zero_table():
    inst = make_instance(f0=1.0, y_d=0.2)
    mesh = inst.make_mesh()
    rep = taylor_remainder_test(inst, np.array([0.5, 0.5]), mesh,
                                np.array([0.0, 0.0]))
    for row in rep.rows:
        assert row["r1"] == 0.0
        assert row["r2"] == 0.0
        assert row["state_r1"] == 0.0
        assert row["state_r2"] == 0.0


def test_taylor_slopes_show_the_remainder_orders():
    inst = make_instance(f0=1.0, y_d=0.5)
    mesh = inst.make_mesh()
    rep = taylor_remainder_test(inst, np.array([0.5, -0.3]), mesh,
                                np.array([1.0, -0.5]))
    assert rep.slopes["r1"] > 1.9
    assert rep.slopes["r2"] > 2.5
    # the rho-normalized state remainders vanish linearly
    assert 0.8 < rep.slopes["state_r1"] < 1.3
    assert 0.8 < rep.slopes["state_r2"] < 1.3


def test_taylor_custom_grid_and_row_contents():
    inst = make_instance(f0=1.0, y_d=0.2)
    mesh = inst.make_mesh()
    grid = [1e-1, 1e-2]
    rep = taylor_remainder_test(inst, np.array([0.2, 0.2]), mesh,
                                np.array([1.0, 1.0]), rho_grid=grid)
    assert [row["rho"] for row in rep.rows] == grid
    for row in rep.rows:
        assert row["note"] == ""
        assert row["r1"] >= 0.0 and row["r2"] >= 0.0


def test_taylor_flags_infeasible_probes():
    # u + rho h crosses the 4*pi solvability limit at the largest rho
    inst = make_instance(upper=(12.56, 12.56))
    mesh = inst.make_mesh()
    u = np.array([12.0, 0.0])
    h = np.array([8.0, 0.0])
    rep = taylor_remainder_test(inst, u, mesh, h, rho_grid=[0.1, 1e-3])
    notes = [row["note"] for row in rep.rows]
    assert "skipped" in notes[0]
    assert notes[1] == ""


def test_derivative_report_validates_finiteness(tmp_path):
    rep = DerivativeReport(1.0, [0.5], 2.0, [], {})
    assert rep.value == 1.0
    assert rep.second_order == 2.0
    # the writer of the Taylor summary refuses a value that is not
    # finite, a numeric fault
    for pairs, key in (([("J", np.nan)], "J"),
                       ([("J", 1.0), ("directional_derivative", np.inf)],
                        "directional_derivative")):
        with pytest.raises(RuntimeError, match="%s is not finite" % key):
            _write_summary(tmp_path / "taylor_summary.txt", pairs)
