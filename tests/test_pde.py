import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from expctrl import pde
from expctrl.cli import ConfigError, RunConfig, cmd_solve, parse_field
from expctrl.fem import _jacobi_weights, solve_spd
from expctrl.mesh import Domain, build_mesh, locate_point
from expctrl.pde import (ProblemInstance, field_load,
                         nodal_field, operators, point_coupling,
                         solve_adjoint, solve_linearized, solve_semilinear,
                         solve_state)
from expctrl.sequences import (FOUR_PI, BoundsPair, SourcePoints,
                               compute_separation_radii)
from helpers import (count_vcycles, free_block, full_stiffness,
                     reference_mass, to_scipy)


def two_point_instance(resolution=24, nu=0.1, f0=None, y_d=None):
    dom = Domain.unit_square()
    pts = compute_separation_radii([[0.3, 0.4], [0.7, 0.6]], dom)
    bounds = BoundsPair([-2.0, -2.0], [3.0, 3.0])
    return ProblemInstance(dom, pts, bounds, nu, f0=f0, y_d=y_d,
                           resolution=resolution)


ONE_POINT = {"domain": {"kind": "unit_square"}, "points": [[0.5, 0.5]],
             "lower": [0.0], "upper": [1.0], "nu": 0.1,
             "mesh": {"resolution": 8}}


def test_instance_validation():
    # an instance's one maker, cli.RunConfig, checks its values
    inst = RunConfig.from_dict(ONE_POINT).instance
    assert (inst.points.count, len(inst.bounds), inst.nu) == (1, 1, 0.1)
    for extra, field in (({"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
                          "lower"), ({"nu": -0.5}, "nu")):
        with pytest.raises(ConfigError, match="field '%s'" % field):
            RunConfig.from_dict(dict(ONE_POINT, **extra))


def test_operator_cache_reuses_per_mesh():
    inst = two_point_instance(8)
    mesh = inst.make_mesh()
    assert operators(mesh) is operators(mesh)
    other = build_mesh(Domain.unit_square(), 8)
    assert operators(mesh) is not operators(other)


def test_the_operator_cache_holds_its_mesh_weakly():
    mesh = build_mesh(Domain.unit_square(), 8)
    operators(mesh)
    # the cache entry must not keep its own key alive
    entries = len(pde._OPERATORS)
    alive = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert alive() is None
    assert len(pde._OPERATORS) < entries


def test_nodal_field_forms():
    inst = two_point_instance(8)
    mesh = inst.make_mesh()
    assert abs(nodal_field(mesh, None)).max() == 0.0
    assert_allclose(nodal_field(mesh, 2.5), 2.5)
    lin = nodal_field(mesh, lambda x: x[:, 0] + 2.0 * x[:, 1])
    assert_allclose(lin, mesh.vertices[:, 0] + 2.0 * mesh.vertices[:, 1])
    assert np.array_equal(nodal_field(mesh, lin), lin)


def test_nodal_field_rejects_wrong_size_and_nonfinite_arrays():
    # a nodal array reaches nodal_field only as a state_of target, solved
    # on the run's mesh for one value per source point, and the numbers
    # of a field are checked finite where the config is read
    with pytest.raises(ConfigError, match="field 'y_d'"):
        RunConfig.from_dict(dict(ONE_POINT, y_d="state_of(1.0, 2.0)"))
    for text in ("constant nan", "gaussian(0.5, 0.5, 0.2, inf)",
                 "state_of(inf)"):
        with pytest.raises(ConfigError, match="field 'y_d'"):
            parse_field(text, "y_d")


def test_zero_data_gives_zero_state():
    inst = two_point_instance(16)
    mesh = inst.make_mesh()
    st = solve_state(inst, np.array([0.0, 0.0]), mesh)
    assert st.newton_iterations == 0
    assert abs(st.y).max() == 0.0


def test_state_rejects_controls_at_the_four_pi_limit():
    # the CLI checks a config's control before any state is solved
    for control, message in (([13.0], "below 4 pi"),
                             ([1.0, 0.0], "expected 1 numbers"),
                             ([float("nan")], "finite numbers"),
                             ([-float("inf")], "finite numbers")):
        config = RunConfig.from_dict(dict(ONE_POINT, control=control))
        with pytest.raises(ConfigError, match="field 'control': .*%s"
                           % message):
            cmd_solve(config)


@pytest.mark.parametrize("domain,sites,resolution,levels", [
    (Domain.unit_square(), [[0.5, 0.5]], 64, 0),
    (Domain.disk(0.0, 0.0, 1.0), [[0.0, 0.0]], 8, 12),
    (Domain.unit_square(), [[0.3, 0.4], [0.7, 0.6]], 16, 8),
], ids=["square", "graded-disk", "graded-square"])
def test_state_solves_next_to_four_pi(domain, sites, resolution, levels):
    # every weight 4 pi - g with f0 = 0: Newton holds its step count up
    # to g = 1e-6, and the states are nonnegative and, by the comparison
    # principle, nondecreasing entrywise as g shrinks
    points = compute_separation_radii(sites, domain)
    K = points.count
    inst = ProblemInstance(domain, points,
                           BoundsPair([0.0] * K, [FOUR_PI - 1e-9] * K), 0.0,
                           resolution=resolution, refine_levels=levels)
    mesh = inst.make_mesh()
    previous = np.zeros(mesh.num_vertices)
    for g in (1.0, 0.1, 1e-3, 1e-6):
        st = solve_state(inst, np.full(K, FOUR_PI - g), mesh)
        assert st.newton_iterations <= 8
        assert np.all(st.y >= previous)
        previous = st.y


def _center_state(levels, u):
    """The state of the point mass u at the center vertex of the n = 16
    unit disk graded `levels` levels toward it, f0 = 0, and the masses
    m_i (e^{y_i} - 1) of its vertices."""
    disk = Domain.disk(0.0, 0.0, 1.0)
    mesh = build_mesh(disk, 16, refine_levels=levels,
                      refine_points=compute_separation_radii([[0.0, 0.0]],
                                                             disk))
    state = solve_semilinear(
        mesh, u * point_coupling(mesh, [[0.0, 0.0]]).rmatvec(np.ones(1)))
    assert state.newton_iterations <= 12
    return mesh, operators(mesh).lumped * np.expm1(state.y)


@pytest.mark.parametrize("u", [6.0, 10.0])
def test_below_four_pi_the_center_mass_falls_at_the_continuum_rate(u):
    # the discrete equation is solvable for every u; below 4 pi the
    # continuum state behaves like |x|^(-u / 2 pi), so on a ball of
    # radius h its mass m (e^y - 1) falls like h^(2 - u / 2 pi): by
    # 4^(2 - u / 2 pi) per two levels, each of which halves h
    masses = []
    for levels in (8, 10, 12, 14, 16):
        mesh, mass = _center_state(levels, u)
        masses.append(mass[np.argmin(np.hypot(*mesh.vertices.T))])
    rates = np.array(masses[:-1]) / np.array(masses[1:])
    assert_allclose(rates, 4.0 ** (2.0 - u / (2.0 * np.pi)), rtol=0.1)


@pytest.mark.parametrize("u", [16.0, 20.0])
def test_above_four_pi_the_excess_concentrates_at_the_point(u):
    # the continuum equation has no solution above 4 pi: grading shows
    # the excess u - 4 pi lost into the point, as mass in B(0, 1e-4)
    mesh, mass = _center_state(24, u)
    assert mass[np.hypot(*mesh.vertices.T) < 1e-4].sum() >= u - FOUR_PI


@pytest.mark.parametrize("levels", [4, 5, 6])
def test_a_large_source_on_a_graded_disk_starts_below_the_bound(levels):
    # f0 = 300 and a unit mass at (0.1, 0.05) on the n = 8 disk: from
    # the secant start alone Newton took 30 steps
    disk = Domain.disk(0.0, 0.0, 1.0)
    inst = ProblemInstance(disk, compute_separation_radii([[0.1, 0.05]],
                                                          disk),
                           BoundsPair([0.0], [1.0]), 0.0, f0=300.0,
                           resolution=8, refine_levels=levels)
    assert solve_state(inst, np.array([1.0]),
                       inst.make_mesh()).newton_iterations <= 12


def test_linear_mode_reproduces_the_disk_green_function():
    # unit Dirac at the disk center, exponential term off:
    # y = (1/2pi) ln(1/|x|), so y = (ln 2)/(2pi) on the ring |x| = 1/2
    disk = Domain.disk(0.0, 0.0, 1.0)
    pts = compute_separation_radii([[0.0, 0.0]], disk)
    inst = ProblemInstance(disk, pts, BoundsPair([0.0], [1.5]), 0.0,
                           resolution=32)
    mesh = inst.make_mesh()
    st = solve_state(inst, np.array([1.0]), mesh, linear=True)
    assert st.linear
    ring = 0.1103178000763258
    angles = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    vals = point_coupling(
        mesh, [[0.5 * np.cos(a), 0.5 * np.sin(a)] for a in angles]) @ st.y
    assert np.max(np.abs(np.array(vals) - ring)) < 5e-3


def test_unit_square_green_value_with_exponential_off():
    # frozen series value of the square's Green function at (1/4, 1/2)
    dom = Domain.unit_square()
    pts = compute_separation_radii([[0.5, 0.5]], dom)
    inst = ProblemInstance(dom, pts, BoundsPair([0.0], [1.5]), 0.0,
                           resolution=32)
    mesh = inst.make_mesh()
    st = solve_state(inst, np.array([1.0]), mesh, linear=True)
    value = (point_coupling(mesh, [[0.25, 0.5]]) @ st.y)[0]
    assert abs(value - 0.12163980885096219) < 1e-3


def test_newton_converges_fast_and_residuals_decrease():
    inst = two_point_instance(24, f0=lambda x: 3.0 * np.ones(len(x)))
    mesh = inst.make_mesh()
    st = solve_state(inst, np.array([2.0, 1.0]), mesh, tol=1e-12)
    assert st.newton_iterations <= 8
    hist = st.history
    assert all(a > b for a, b in zip(hist, hist[1:]))


def test_semilinear_lies_below_the_linear_solution():
    # e^y - 1 is an absorption term for y >= 0
    inst = two_point_instance(24)
    mesh = inst.make_mesh()
    u = np.array([1.5, 0.5])
    y_semi = solve_state(inst, u, mesh).y
    y_lin = solve_state(inst, u, mesh, linear=True).y
    assert np.max(y_semi - y_lin) < 1e-10
    assert np.min(y_semi) > -1e-12


def test_comparison_principle_on_ordered_controls():
    inst = two_point_instance(24, f0=1.0)
    mesh = inst.make_mesh()
    rng = np.random.default_rng(5)
    for _ in range(4):
        u = rng.uniform(-2.0, 2.0, size=2)
        v = u + rng.uniform(0.0, 1.0, size=2)
        yu = solve_state(inst, u, mesh).y
        yv = solve_state(inst, v, mesh).y
        assert np.max(yu - yv) <= 1e-8


def test_state_solution_history_and_flags():
    inst = two_point_instance(16)
    mesh = inst.make_mesh()
    st = solve_state(inst, np.array([1.0, -1.0]), mesh)
    assert np.all(np.isfinite(np.exp(st.y)))


def test_linearized_solution_is_linear_in_the_direction():
    inst = two_point_instance(16)
    mesh = inst.make_mesh()
    st = solve_state(inst, np.array([1.0, 0.5]), mesh)
    z1 = solve_linearized(st, np.array([1.0, 0.0]), inst.points)
    z2 = solve_linearized(st, np.array([0.0, 1.0]), inst.points)
    z12 = solve_linearized(st, np.array([2.0, -3.0]), inst.points)
    assert np.max(np.abs(2.0 * z1 - 3.0 * z2 - z12)) < 1e-10
    z0 = solve_linearized(st, np.array([0.0, 0.0]), inst.points)
    assert abs(z0).max() == 0.0


def test_linearized_operator_matches_mode():
    # the linearized solve uses A + M_L diag(e^y) at a semilinear state;
    # no derivative of the Poisson problem is taken, so a state solved
    # with the nonlinearity off is refused by both derivative solves
    inst = two_point_instance(8)
    mesh = inst.make_mesh()
    st_lin = solve_state(inst, np.array([0.5, 0.5]), mesh, linear=True)
    st_non = solve_state(inst, np.array([0.5, 0.5]), mesh)
    ops = operators(mesh)
    free = ~mesh.boundary
    h = np.array([1.0, -0.5])
    rhs = (point_coupling(mesh, inst.points.points).T @ h)[free]
    H = to_scipy(full_stiffness(mesh)) \
        + sp.diags(ops.lumped * np.exp(st_non.y))
    z = solve_linearized(st_non, h, inst.points)
    res = H.tocsr()[free][:, free] @ z[free] - rhs
    assert np.linalg.norm(res) <= 1e-11 * np.linalg.norm(rhs)
    with pytest.raises(ValueError, match="linear=True"):
        solve_linearized(st_lin, h, inst.points)
    with pytest.raises(ValueError, match="linear=True"):
        solve_adjoint(st_lin, None)


@pytest.mark.parametrize("kind", ["square", "graded-disk"])
def test_cached_operator_is_the_sliced_scipy_matrix(kind):
    if kind == "square":
        mesh = build_mesh(Domain.unit_square(), 16)
    else:
        dom = Domain.disk(0.0, 0.0, 1.0)
        pts = compute_separation_radii([[0.0, 0.0], [0.4, 0.3]], dom)
        mesh = build_mesh(dom, 16, refine_points=pts, refine_levels=4)
    ops = operators(mesh)
    A = to_scipy(full_stiffness(mesh))
    free = ~mesh.boundary
    rng = np.random.default_rng(19)
    y = rng.normal(size=mesh.num_vertices)
    zero = np.zeros(mesh.num_vertices)
    cases = [(ops.newton_operator(zero), A + sp.diags(ops.lumped)),
             (ops.newton_operator(y), A + sp.diags(ops.lumped * np.exp(y))),
             (ops.stiffness, A)]
    for op, full in cases:
        sliced = full.tocsr()[free][:, free]
        # the weights of the sliced scipy matrix as solve_spd computed
        # them when it took full-size matrices
        weights = (4.0 / 3.0) / (abs(sliced) @ np.ones(sliced.shape[0]))
        assert np.array_equal(_jacobi_weights(op), weights)
        got = to_scipy(op)
        got.eliminate_zeros()
        sliced.eliminate_zeros()
        assert got.shape == sliced.shape
        assert np.array_equal(got.indptr, sliced.indptr)
        assert np.array_equal(got.indices, sliced.indices)
        assert np.array_equal(got.data, sliced.data)


def test_adjoint_vanishes_when_target_equals_state():
    inst = two_point_instance(16)
    mesh = inst.make_mesh()
    st = solve_state(inst, np.array([1.0, -0.5]), mesh)
    phi = solve_adjoint(st, st.y)
    assert abs(phi).max() < 1e-12


def test_adjoint_sign_follows_the_data():
    inst = two_point_instance(16)
    mesh = inst.make_mesh()
    st = solve_state(inst, np.array([1.0, 0.5]), mesh)
    # y >= 0 here, so y - 0 >= 0 and the maximum principle gives phi >= 0
    phi = solve_adjoint(st, None)
    assert np.min(phi) >= -1e-10


def test_adjoint_duality_identity():
    # dot(d(h), phi) = dot(M_L (y - y_d), z(h))
    inst = two_point_instance(24, f0=1.0, y_d=0.3)
    mesh = inst.make_mesh()
    st = solve_state(inst, np.array([1.2, -0.4]), mesh, tol=1e-12)
    h = np.array([0.7, -1.1])
    phi = solve_adjoint(st, inst.y_d)
    z = solve_linearized(st, h, inst.points, tol=1e-12)
    d = point_coupling(mesh, inst.points.points).T @ h
    lhs = float(np.dot(d, phi))
    rhs = float(np.dot(operators(mesh).lumped
                       * (st.y - nodal_field(mesh, inst.y_d)), z))
    assert abs(lhs - rhs) < 1e-8 * (1.0 + abs(lhs))


def test_point_coupling_matches_interpolation():
    inst = two_point_instance(16)
    mesh = inst.make_mesh()
    f = mesh.vertices[:, 0] - 0.5 * mesh.vertices[:, 1]
    vals = point_coupling(mesh, inst.points.points) @ f
    expect = [p[0] - 0.5 * p[1] for p in inst.points.points]
    assert_allclose(vals, expect, atol=1e-12)
    one = SourcePoints([mesh.vertices[10]], [0.05])
    assert_allclose(point_coupling(mesh, one.points) @ f, [f[10]],
                    atol=1e-12)


def test_a_coupling_locates_all_its_points_in_one_call(monkeypatch):
    # pde binds locate_point by name, so wrapping that name counts the
    # calls of every coupling; a cache hit locates nothing
    calls = []

    def counted(mesh, points):
        calls.append(len(points))
        return locate_point(mesh, points)
    monkeypatch.setattr(pde, "locate_point", counted)
    mesh = build_mesh(Domain.unit_square(), 8)
    pts = [[0.2, 0.3], [0.5, 0.5], [0.7, 0.1], mesh.vertices[10]]
    P = point_coupling(mesh, pts)
    assert calls == [4]
    assert point_coupling(mesh, np.array(pts)) is P
    assert calls == [4]
    assert P.shape == (4, mesh.num_vertices)


def test_lipschitz_l2_stability_of_the_state_map():
    inst = two_point_instance(24)
    mesh = inst.make_mesh()
    M = reference_mass(mesh)
    rng = np.random.default_rng(9)
    ratios = []
    for _ in range(5):
        u = rng.uniform(-2.0, 2.5, size=2)
        v = rng.uniform(-2.0, 2.5, size=2)
        if np.allclose(u, v):
            continue
        yu = solve_state(inst, u, mesh).y
        yv = solve_state(inst, v, mesh).y
        diff = yu - yv
        dist = np.sqrt(diff @ (M @ diff))
        ratios.append(dist / np.sum(np.abs(u - v)))
    assert max(ratios) < 1.0


def test_field_load_of_zero_is_zero():
    inst = two_point_instance(8)
    mesh = inst.make_mesh()
    assert abs(field_load(mesh, None)).max() == 0.0
    b = field_load(mesh, 1.0)
    assert abs(b.sum() - 1.0) < 1e-12


def test_solve_semilinear_linear_flag_solves_poisson():
    mesh = build_mesh(Domain.unit_square(), 16)
    load = field_load(mesh, 1.0)
    sol = solve_semilinear(mesh, load, linear=True)
    assert sol.linear
    assert sol.newton_iterations == 0
    value = (point_coupling(mesh, [[0.5, 0.5]]) @ sol.y)[0]
    assert abs(value - 0.073671353281513816) < 3e-4


def test_field_load_of_a_callable_is_assembled_once_per_mesh(monkeypatch):
    mesh = build_mesh(Domain.unit_square(), 8)
    calls = []

    def counted_assembly(m, f):
        calls.append(f)
        return np.ones(m.num_vertices)
    monkeypatch.setattr(pde, "assemble_load", counted_assembly)

    def f0(x):
        return np.ones(len(x))
    first = field_load(mesh, f0)
    second = field_load(mesh, f0)
    assert second is first and calls == [f0]
    assert not first.flags.writeable
    field_load(build_mesh(Domain.unit_square(), 8), f0)
    assert len(calls) == 2


def _reference_newton(mesh, load, tol=1e-10):
    """Damped Newton of solve_semilinear with every linear solve at
    1e-12: the exact-inner loop the forcing terms replace."""
    ops = operators(mesh)
    A = to_scipy(full_stiffness(mesh))
    free = ~mesh.boundary
    scale = 1.0 + np.linalg.norm(load[free])

    def residual(y):
        return A @ y + ops.lumped * np.expm1(y) - load
    y = solve_spd(free_block(mesh, A + sp.diags(ops.lumped)), load,
                  mesh.boundary, tol=1e-12, multigrid=ops.multigrid)
    fres = residual(y)
    rnorm = np.linalg.norm(fres[free])
    for steps in range(50):
        if rnorm <= tol * scale:
            return y, steps
        H = free_block(mesh, A + sp.diags(ops.lumped * np.exp(y)))
        step = solve_spd(H, -fres, mesh.boundary, tol=1e-12,
                         multigrid=ops.multigrid)
        t = 1.0
        for _ in range(40):
            fc = residual(y + t * step)
            cn = np.linalg.norm(fc[free])
            if cn <= (1.0 - 1e-4 * t) * rnorm:
                break
            t *= 0.5
        y, fres, rnorm = y + t * step, fc, cn
    raise AssertionError("reference Newton did not converge")


@pytest.fixture(scope="module")
def near_four_pi_runs():
    """20 states at controls up to 12.5 (4 pi = 12.566) at 8 points on
    the n = 64 square, each solved by solve_state and by the reference
    loop, with the V-cycles of each side counted."""
    sites = [(x, y) for y in (0.25, 0.5, 0.75) for x in (0.25, 0.5, 0.75)
             if (x, y) != (0.5, 0.5)]
    pts = compute_separation_radii([[x + 0.003, y + 0.004]
                                    for x, y in sites], Domain.unit_square())
    inst = ProblemInstance(
        Domain.unit_square(), pts, BoundsPair([0.0] * 8, [12.5] * 8), 0.0,
        f0=lambda x: np.exp(-((x[:, 0] - 0.5) ** 2 + (x[:, 1] - 0.5) ** 2)
                            / (2.0 * 0.15 ** 2)),
        resolution=64)
    mesh = inst.make_mesh()
    rng = np.random.default_rng(11)
    controls = [12.5 * rng.random(8) for _ in range(20)]
    with pytest.MonkeyPatch.context() as mp:
        cycles = count_vcycles(mp)
        states = [solve_state(inst, u, mesh) for u in controls]
        forced = len(cycles)
        loads = [field_load(mesh, inst.f0)
                 + point_coupling(mesh, pts.points).T @ u
                 for u in controls]
        reference = [_reference_newton(mesh, b) for b in loads]
    vcycles = {"forced": forced, "reference": len(cycles) - forced}
    return mesh, loads, states, reference, vcycles


def test_inexact_newton_matches_exact_inner_solves(near_four_pi_runs):
    _, _, states, reference, _ = near_four_pi_runs
    for st, (y_ref, _) in zip(states, reference):
        err = np.max(np.abs(st.y - y_ref)) / np.max(np.abs(y_ref))
        assert err <= 1e-9


def test_inexact_newton_meets_the_residual_test(near_four_pi_runs):
    mesh, loads, states, _, _ = near_four_pi_runs
    ops = operators(mesh)
    free = ~mesh.boundary
    for st, load in zip(states, loads):
        scale = 1.0 + np.linalg.norm(load[free])
        res = full_stiffness(mesh) @ st.y \
            + ops.lumped * np.expm1(st.y) - load
        assert np.linalg.norm(res[free]) <= 1e-10 * scale
        assert st.final_residual <= 1e-10 * scale
        hist = st.history
        assert all(a > b for a, b in zip(hist, hist[1:]))


def test_secant_start_saves_newton_steps_near_four_pi(near_four_pi_runs):
    # from (A + M_L) y = b the 20 states took 103 steps: the start lay
    # far above the state at the point sources
    _, _, states, _, _ = near_four_pi_runs
    assert sum(st.newton_iterations for st in states) <= 90


def test_forcing_halves_the_vcycles_of_near_four_pi_states(
        near_four_pi_runs):
    _, _, states, reference, vcycles = near_four_pi_runs
    assert 2 * vcycles["forced"] <= vcycles["reference"]
    steps = sum(st.newton_iterations for st in states)
    assert steps <= sum(n for _, n in reference) + len(states)
