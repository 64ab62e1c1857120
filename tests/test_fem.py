import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from expctrl.fem import (FEFunction, MOLLIFIER_C, Multigrid, _cholesky,
                         _inverse_factor, assemble_load,
                         assemble_mollified_load, assemble_stiffness,
                         assemble_weighted_mass, exp_remainder1,
                         exp_remainder2, integrate_exp_linear,
                         integrate_lumped, lumped_mass_diagonal,
                         mollifier_value, point_operator, solve_spd,
                         subdivided_quadrature)
from expctrl.mesh import Domain, build_mesh, locate_point
from expctrl.sequences import (Control, SourcePoints,
                               compute_separation_radii)


def square_mesh(n):
    return build_mesh(Domain.unit_square(), n)


def test_stiffness_kills_constants():
    mesh = square_mesh(5)
    A = assemble_stiffness(mesh)
    r = A @ np.ones(mesh.num_vertices)
    assert np.max(np.abs(r[~mesh.boundary])) < 1e-12


def test_stiffness_exact_on_linears():
    mesh = square_mesh(6)
    A = assemble_stiffness(mesh)
    y = 2.0 * mesh.vertices[:, 0] - 0.7 * mesh.vertices[:, 1]
    r = A @ y
    assert np.max(np.abs(r[~mesh.boundary])) < 1e-10


def test_stiffness_interior_diagonal_is_the_five_point_value():
    # structured P1 stencil on a right-triangle grid
    mesh = square_mesh(2)
    A = assemble_stiffness(mesh).toarray()
    interior = np.nonzero(~mesh.boundary)[0]
    assert interior.size == 1
    assert_allclose(A[interior[0], interior[0]], 4.0, rtol=1e-12)


def test_stiffness_symmetry():
    mesh = build_mesh(Domain.disk(0.0, 0.0, 1.0), 8)
    A = assemble_stiffness(mesh)
    assert abs(A - A.T).max() < 1e-12


def test_lumped_mass_partitions_the_area():
    mesh = square_mesh(7)
    d = lumped_mass_diagonal(mesh)
    assert np.all(d > 0.0)
    assert abs(np.sum(d) - 1.0) < 1e-12


def test_weighted_mass_trace_and_zero_weight():
    mesh = square_mesh(5)
    M = assemble_weighted_mass(mesh, lumped=True)
    assert abs(M.diagonal().sum() - 1.0) < 1e-12
    Z = assemble_weighted_mass(mesh, w=np.zeros(mesh.num_vertices))
    assert abs(Z).max() == 0.0


def test_consistent_mass_quadratic_form_on_constants():
    mesh = square_mesh(6)
    M = assemble_weighted_mass(mesh, lumped=False)
    c = 3.0 * np.ones(mesh.num_vertices)
    assert_allclose(c @ (M @ c), 9.0, rtol=1e-12)


def test_consistent_mass_exact_on_linear_products():
    # edge-midpoint rule integrates quadratics exactly
    mesh = square_mesh(4)
    M = assemble_weighted_mass(mesh, lumped=False)
    x = mesh.vertices[:, 0]
    # int_0^1 int_0^1 x^2 = 1/3
    assert_allclose(x @ (M @ x), 1.0 / 3.0, rtol=1e-12)


def test_weighted_mass_rejects_negative_weight_for_spd():
    mesh = square_mesh(3)
    w = -np.ones(mesh.num_vertices)
    with pytest.raises(ValueError, match="negative weight"):
        assemble_weighted_mass(mesh, w=w, spd=True)
    assemble_weighted_mass(mesh, w=w)  # fine without the SPD claim


def test_load_of_zero_and_constant():
    mesh = square_mesh(6)
    assert abs(assemble_load(mesh, lambda x: np.zeros(len(x)))).max() == 0.0
    b = assemble_load(mesh, lambda x: np.ones(len(x)))
    assert abs(b.sum() - 1.0) < 1e-12


def test_load_exact_for_linear_data():
    mesh = square_mesh(5)
    b = assemble_load(mesh, lambda x: x[:, 0])
    # sum of entries = int x dx = 1/2
    assert abs(b.sum() - 0.5) < 1e-12


def test_dirac_load_at_vertex_is_a_unit_vector():
    mesh = square_mesh(4)
    vid = 12
    b = point_operator(mesh, [mesh.vertices[vid]]).T @ np.array([1.0])
    expect = np.zeros(mesh.num_vertices)
    expect[vid] = 1.0
    assert_allclose(b, expect, atol=1e-12)


def test_dirac_load_at_barycenter():
    mesh = square_mesh(4)
    t = 9
    center = np.mean(mesh.vertices[mesh.triangles[t]], axis=0)
    b = point_operator(mesh, [center]).T @ np.array([3.0])
    assert_allclose(b[mesh.triangles[t]], [1.0, 1.0, 1.0], atol=1e-12)
    mask = np.ones(mesh.num_vertices, dtype=bool)
    mask[mesh.triangles[t]] = False
    assert abs(b[mask]).max() == 0.0


def test_dirac_load_zero_weights_and_mass_conservation():
    mesh = square_mesh(5)
    pts = [[0.31, 0.41], [0.62, 0.58]]
    P = point_operator(mesh, pts)
    assert abs(P.T @ np.array([0.0, 0.0])).max() == 0.0
    b = P.T @ np.array([1.5, 0.25])
    assert np.all(b >= 0.0)
    assert abs(b.sum() - 1.75) < 1e-12


def test_mollifier_normalization_constant():
    # 1 / (2 pi int_0^1 r exp(-1/(1-r^2)) dr), frozen high-order value
    assert_allclose(MOLLIFIER_C, 2.1435657757922364, rtol=1e-12)
    assert_allclose(mollifier_value(np.array([[0.0, 0.0]]), [0.0, 0.0], 1.0),
                    [0.78857377971267715], rtol=1e-12)
    assert mollifier_value(np.array([[1.0, 0.0]]), [0.0, 0.0], 1.0)[0] == 0.0


def test_mollified_load_sums_to_one():
    mesh = square_mesh(16)
    for eps in (0.2, 0.1, 0.05):
        b = assemble_mollified_load(mesh, [0.5, 0.5], eps)
        assert abs(b.sum() - 1.0) < 1e-4


def test_mollified_load_has_compact_support():
    mesh = square_mesh(16)
    eps = 0.1
    b = assemble_mollified_load(mesh, [0.5, 0.5], eps)
    far = np.hypot(mesh.vertices[:, 0] - 0.5,
                   mesh.vertices[:, 1] - 0.5) > eps + mesh.h
    assert abs(b[far]).max() == 0.0


def test_mollified_load_approaches_the_dirac_load():
    mesh = square_mesh(8)
    x0 = [0.52, 0.47]
    d = point_operator(mesh, [x0]).T @ np.array([1.0])
    errs = []
    for eps in (0.2, 0.1, 0.05):
        b = assemble_mollified_load(mesh, x0, eps)
        errs.append(np.abs(b - d).max())
    assert errs[-1] < errs[0]
    assert errs[-1] < 0.05


def test_mollified_load_rejects_support_crossing_the_boundary():
    mesh = square_mesh(8)
    with pytest.raises(ValueError, match="boundary"):
        assemble_mollified_load(mesh, [0.05, 0.5], 0.1)


def test_subdivided_quadrature_preserves_area():
    mesh = square_mesh(4)
    idx = np.arange(5)
    _, w, _, parent = subdivided_quadrature(mesh, idx, 2)
    assert_allclose(np.sum(w), np.sum(mesh.areas[idx]), rtol=1e-12)
    assert set(np.unique(parent)) == set(idx.tolist())


def test_integrate_lumped_of_ones_is_the_area():
    mesh = build_mesh(Domain.rectangle(0.0, 0.0, 2.0, 1.0), 6)
    assert_allclose(integrate_lumped(mesh, np.ones(mesh.num_vertices)), 2.0,
                    rtol=1e-12)


def test_integrate_exp_linear_constant_field():
    mesh = square_mesh(5)
    v = np.full(mesh.num_vertices, 0.7)
    assert_allclose(integrate_exp_linear(mesh, v), np.exp(0.7), rtol=1e-13)
    assert_allclose(integrate_exp_linear(mesh, v, coeff=2.0), np.exp(1.4),
                    rtol=1e-13)


def test_integrate_exp_linear_single_triangle_closed_form():
    # one right triangle, nodal values (0, 1, 2): the exact integral of
    # exp over the triangle is (e - 1)^2 / 2
    from expctrl.mesh import Mesh
    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]), np.array([True, True, True]),
                Domain.unit_square())
    val = integrate_exp_linear(mesh, np.array([0.0, 1.0, 2.0]))
    assert_allclose(val, 1.4762462210062799, rtol=1e-13)


def test_integrate_exp_linear_matches_subdivided_quadrature():
    mesh = square_mesh(6)
    rng = np.random.default_rng(3)
    v = rng.normal(size=mesh.num_vertices)
    exact = integrate_exp_linear(mesh, v)
    from expctrl.fem import interpolate_at_quadrature
    pts, w, bary, parent = subdivided_quadrature(
        mesh, np.arange(mesh.num_triangles), 4)
    vq = interpolate_at_quadrature(mesh, v, bary, parent)
    approx = float(np.sum(w * np.exp(vq)))
    assert_allclose(exact, approx, rtol=1e-9)


def test_integrate_exp_linear_near_equal_values_stable():
    from expctrl.mesh import Mesh
    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]), np.array([True, True, True]),
                Domain.unit_square())
    val = integrate_exp_linear(mesh, np.array([0.0, 1e-9, 2e-9]))
    assert_allclose(val, 0.5, rtol=1e-8)


def test_integrate_exp_linear_subset():
    mesh = square_mesh(4)
    v = np.zeros(mesh.num_vertices)
    sub = np.array([0, 1, 2])
    assert_allclose(integrate_exp_linear(mesh, v, tri_subset=sub),
                    np.sum(mesh.areas[sub]), rtol=1e-13)


def test_exp_remainders_frozen_values():
    assert_allclose(exp_remainder1(1e-8), 5.0000000166666669e-17, rtol=1e-12)
    assert_allclose(exp_remainder1(20.0), 485165174.40979028, rtol=1e-13)
    assert_allclose(exp_remainder2(1e-8), 1.6666666708333334e-25, rtol=1e-12)
    assert_allclose(exp_remainder2(-3.0), -2.4502129316321361, rtol=1e-13)
    assert exp_remainder1(0.0) == 0.0
    assert exp_remainder2(0.0) == 0.0


@settings(max_examples=200)
@given(st.floats(-30.0, 30.0))
def test_exp_remainder1_nonnegative(t):
    assert exp_remainder1(t) >= 0.0


def test_exp_remainders_vectorized():
    t = np.array([-1.0, 0.0, 0.3, 2.0])
    r1 = exp_remainder1(t)
    assert r1.shape == t.shape
    assert_allclose(r1, np.expm1(t) - t, rtol=1e-12, atol=1e-300)


def test_point_value_interpolates_linears_exactly():
    mesh = square_mesh(5)
    f = FEFunction(mesh, 3.0 * mesh.vertices[:, 0] + mesh.vertices[:, 1])
    assert_allclose(point_operator(mesh, [[0.37, 0.59]]) @ f.values,
                    3.0 * 0.37 + 0.59, atol=1e-12)


def test_fefunction_validates_shape_and_finiteness():
    mesh = square_mesh(2)
    with pytest.raises(ValueError):
        FEFunction(mesh, np.ones(3))
    bad = np.ones(mesh.num_vertices)
    bad[0] = np.inf
    with pytest.raises(ValueError):
        FEFunction(mesh, bad)


def test_solve_spd_zero_rhs():
    mesh = square_mesh(4)
    A = assemble_stiffness(mesh)
    x = solve_spd(A, np.zeros(mesh.num_vertices), mesh.boundary)
    assert abs(x).max() == 0.0


def test_solve_spd_center_value_for_unit_load():
    # -Laplace u = 1 on the unit square; u(1/2,1/2) from the frozen
    # series value 0.073671353281513816
    errs = []
    for n in (16, 32):
        mesh = square_mesh(n)
        A = assemble_stiffness(mesh)
        b = assemble_load(mesh, lambda x: np.ones(len(x)))
        y = solve_spd(A, b, mesh.boundary)
        f = FEFunction(mesh, y)
        value = (point_operator(mesh, [[0.5, 0.5]]) @ f.values)[0]
        errs.append(abs(value - 0.073671353281513816))
    assert errs[-1] < 1e-4
    assert errs[-1] < errs[0] / 2.0


def test_solve_spd_recovers_a_prescribed_solution():
    mesh = square_mesh(8)
    A = assemble_stiffness(mesh) + assemble_weighted_mass(mesh)
    rng = np.random.default_rng(11)
    target = rng.normal(size=mesh.num_vertices)
    target[mesh.boundary] = 0.0
    b = A @ target
    x = solve_spd(A, b, mesh.boundary, tol=1e-12)
    assert np.max(np.abs(x - target)) < 1e-9
    assert abs(x[mesh.boundary]).max() == 0.0


def test_solve_spd_matches_dense_oracle():
    mesh = square_mesh(6)
    A = assemble_stiffness(mesh) + assemble_weighted_mass(mesh)
    b = assemble_load(mesh, lambda x: x[:, 0] - x[:, 1] ** 2)
    x = solve_spd(A, b, mesh.boundary, tol=1e-13)
    free = ~mesh.boundary
    dense = np.linalg.solve(A.toarray()[np.ix_(free, free)], b[free])
    assert np.max(np.abs(x[free] - dense)) < 1e-10


def test_solve_spd_discrete_maximum_principle():
    # nonnegative load on a nonobtuse mesh gives a nonnegative solution
    mesh = square_mesh(8)
    A = assemble_stiffness(mesh) + assemble_weighted_mass(mesh)
    b = assemble_load(mesh, lambda x: np.exp(-10 * (x[:, 0] - 0.3) ** 2))
    x = solve_spd(A, b, mesh.boundary)
    assert np.min(x) >= -1e-14


def test_solve_spd_rejects_indefinite_operators():
    mesh = square_mesh(3)
    A = -assemble_weighted_mass(mesh)
    with pytest.raises(RuntimeError, match="not positive definite"):
        solve_spd(A, np.ones(mesh.num_vertices), mesh.boundary)


def test_solve_spd_rejects_a_non_finite_right_hand_side():
    mesh = square_mesh(3)
    b = np.ones(mesh.num_vertices)
    b[~mesh.boundary] = np.nan
    with pytest.raises(RuntimeError, match="not finite"):
        solve_spd(assemble_stiffness(mesh), b, mesh.boundary)


def refined_disk():
    dom = Domain.disk(0.0, 0.0, 1.0)
    pts = compute_separation_radii([[0.0, 0.0], [0.4, 0.3]], dom)
    return build_mesh(dom, 16, refine_points=pts, refine_levels=3)


def free_block(mesh, A):
    free = ~mesh.boundary
    return A.tocsr()[free][:, free]


def shifted_stiffness(mesh):
    return free_block(mesh, assemble_stiffness(mesh)
                      + assemble_weighted_mass(mesh))


def vcycle_contraction(mesh):
    """Asymptotic A-norm contraction of the V-cycle as a stationary
    iteration e <- e - B A e."""
    A = shifted_stiffness(mesh)
    B = Multigrid(A).preconditioner(A)
    e = np.random.default_rng(3).normal(size=A.shape[0])
    rates = []
    for _ in range(15):
        e_next = e - B(A @ e)
        rates.append(np.sqrt(e_next @ (A @ e_next) / (e @ (A @ e))))
        e = e_next
    return max(rates[-5:])


@pytest.mark.parametrize("n", [16, 32, 64])
def test_vcycle_contracts_by_a_mesh_independent_factor(n):
    assert vcycle_contraction(square_mesh(n)) <= 0.5


def test_vcycle_contracts_on_a_refined_disk():
    # the elliptical disk map and the green bisections leave angles
    # above 170 degrees, where Jacobi smoothing is weakest; measured 0.54
    assert vcycle_contraction(refined_disk()) <= 0.65


def test_preconditioner_is_symmetric_positive_with_a_new_finest_level():
    mesh = refined_disk()
    mg = Multigrid(shifted_stiffness(mesh))
    # a Newton-type operator A + M_L diag(e^y): only the finest level
    # differs from the matrix the hierarchy was built from
    y = np.exp(-4.0 * np.sum(mesh.vertices ** 2, axis=1)) * 5.0
    H = free_block(mesh, assemble_stiffness(mesh)
                   + assemble_weighted_mass(mesh, np.exp(y)))
    B = mg.preconditioner(H)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x, v = rng.normal(size=(2, H.shape[0]))
        scale = np.linalg.norm(x) * np.linalg.norm(B(v))
        assert abs(x @ B(v) - v @ B(x)) <= 1e-12 * scale
        assert x @ B(x) > 0.0


def test_amg_pcg_matches_dense_oracle_on_a_refined_disk():
    mesh = refined_disk()
    A = assemble_stiffness(mesh) + assemble_weighted_mass(mesh)
    b = assemble_load(mesh, lambda x: np.cos(3.0 * x[:, 0]) + x[:, 1])
    x = solve_spd(A, b, mesh.boundary, tol=1e-13)
    free = ~mesh.boundary
    dense = np.linalg.solve(A.toarray()[np.ix_(free, free)], b[free])
    assert np.max(np.abs(x[free] - dense)) < 1e-10 * np.max(np.abs(dense))
    assert abs(x[mesh.boundary]).max() == 0.0


def test_solve_spd_on_a_diagonal_operator_needs_no_coarse_level():
    # no strong couplings: every node stays out of the aggregates, the
    # coarse space is empty, and the smoother alone solves the system
    mesh = square_mesh(32)
    d = lumped_mass_diagonal(mesh)
    D = sp.diags(d).tocsr()
    free = ~mesh.boundary
    mg = Multigrid(D[free][:, free])
    assert mg.prolongators[0].shape[1] == 0
    b = np.arange(mesh.num_vertices, dtype=float)
    x = solve_spd(D, b, mesh.boundary, tol=1e-12)
    assert_allclose(x[free], b[free] / d[free], rtol=1e-12)


def test_hand_written_cholesky_factors_and_inverts():
    rng = np.random.default_rng(7)
    G = rng.normal(size=(40, 40))
    A = G @ G.T + 40.0 * np.eye(40)
    L = _cholesky(A)
    assert np.array_equal(L, np.tril(L))
    assert_allclose(L @ L.T, A, rtol=0, atol=1e-12 * np.abs(A).max())
    assert_allclose(_inverse_factor(L) @ L, np.eye(40), atol=1e-13)
    with pytest.raises(RuntimeError, match="not positive definite"):
        _cholesky(-A)


class CountingMultigrid(Multigrid):
    """Multigrid that counts its V-cycles."""

    cycles = 0

    def preconditioner(self, A):
        apply = super().preconditioner(A)

        def counted(r):
            self.cycles += 1
            return apply(r)
        return counted


def test_solve_spd_reports_stagnation_below_the_round_off_floor():
    mesh = square_mesh(32)
    A = assemble_stiffness(mesh) + assemble_weighted_mass(mesh)
    b = assemble_load(mesh, lambda x: np.ones(len(x)))
    mg = CountingMultigrid(free_block(mesh, A))
    with pytest.raises(RuntimeError, match="linear solve stagnated"):
        solve_spd(A, b, mesh.boundary, tol=1e-18, multigrid=mg)
    assert mg.cycles < 300
