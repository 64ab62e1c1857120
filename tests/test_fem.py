import decimal
import math
import tracemalloc
from importlib.machinery import PathFinder

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import expctrl.fem as fem_module
import expctrl.pde as pde_module
from expctrl.cli import ConfigError, RunConfig, _verify_check
from expctrl.fem import (CSR, MOLLIFIER_C, DiagonalShifts, Multigrid,
                         _cholesky, _dd2_exp, _inverse_factor,
                         _jacobi_weights, _subdivided_rule,
                         assemble_mollified_load, assemble_stiffness,
                         exp_remainder, integrate_exp_linear,
                         lumped_mass_diagonal, mollifier_value, solve_spd)
from expctrl.mesh import Domain, build_mesh
from expctrl.pde import (field_load, operators, point_coupling,
                         solve_semilinear)
from expctrl.sequences import compute_separation_radii
from helpers import (count_vcycles, free_block, full_stiffness, graded_disk,
                     mesh_from_arrays, reference_aggregate, reference_dd2_exp,
                     reference_free_block, reference_mass,
                     reference_mollified_load, reference_multigrid,
                     reference_point_operator, reference_solve_spd,
                     reference_stiffness, to_scipy)


def square_mesh(n):
    return build_mesh(Domain.unit_square(), n)


def lumped_mass(mesh):
    return sp.diags(lumped_mass_diagonal(mesh)).tocsr()


def test_stiffness_kills_constants():
    mesh = square_mesh(5)
    A = full_stiffness(mesh)
    r = A @ np.ones(mesh.num_vertices)
    assert np.max(np.abs(r[~mesh.boundary])) < 1e-12


def test_stiffness_exact_on_linears():
    mesh = square_mesh(6)
    A = full_stiffness(mesh)
    y = 2.0 * mesh.vertices[:, 0] - 0.7 * mesh.vertices[:, 1]
    r = A @ y
    assert np.max(np.abs(r[~mesh.boundary])) < 1e-10


def test_stiffness_interior_diagonal_is_the_five_point_value():
    # structured P1 stencil on a right-triangle grid
    mesh = square_mesh(2)
    A = full_stiffness(mesh).toarray()
    interior = np.nonzero(~mesh.boundary)[0]
    assert interior.size == 1
    assert_allclose(A[interior[0], interior[0]], 4.0, rtol=1e-12)


def test_stiffness_symmetry():
    mesh = build_mesh(Domain.disk(0.0, 0.0, 1.0), 8)
    A = to_scipy(full_stiffness(mesh))
    assert abs(A - A.T).max() < 1e-12


def test_lumped_mass_partitions_the_area():
    mesh = square_mesh(7)
    d = lumped_mass_diagonal(mesh)
    assert np.all(d > 0.0)
    assert abs(np.sum(d) - 1.0) < 1e-12


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


_RECT = Domain.rectangle(0.0, 0.0, 2.0, 1.0)
_ASSEMBLY_MESHES = {
    "graded-disk-12": graded_disk,
    "square": lambda: square_mesh(64),
    # right angle at (1, 1), the legs down and left: both products of
    # the off-diagonal entry of the two acute corners are -0.0
    "right-triangle": lambda: mesh_from_arrays(
        np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]), np.ones(3, dtype=bool), Domain.unit_square()),
    # corners at -0.0
    "signed-zero-corners": lambda: mesh_from_arrays(
        np.array([[-0.0, -0.0], [1.0, -0.0], [-0.0, 1.0], [1.0, 1.0]]),
        np.array([[0, 1, 2], [1, 3, 2]]), np.ones(4, dtype=bool),
        Domain.unit_square()),
    "rectangle-three-points": lambda: build_mesh(
        _RECT, 8, refine_points=compute_separation_radii(
            [[0.5, 0.5], [1.2, 0.3], [1.5, 0.7]], _RECT), refine_levels=5),
}


def _nonzero_reference_stiffness(mesh):
    """The einsum stiffness on every vertex without its exact zeros,
    which the assembly drops."""
    return reference_free_block(reference_stiffness(mesh),
                                np.arange(mesh.num_vertices))


@pytest.mark.parametrize("case", sorted(_ASSEMBLY_MESHES))
@pytest.mark.parametrize("assemble, reference",
                         [(full_stiffness, _nonzero_reference_stiffness)],
                         ids=["stiffness"])
def test_assembly_keeps_the_bits_of_the_einsum_kernels(case, assemble,
                                                       reference):
    # the element values are the einsums' to the last bit, and every
    # entry sums them in triangle order, as np.add.at does
    mesh = _ASSEMBLY_MESHES[case]()
    got, want = assemble(mesh), reference(mesh)
    for name in ("indptr", "indices", "data"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name


def _transposed(A):
    """The scipy CSR of the transpose of a CSR, its rows sorted."""
    B = to_scipy(A).T.tocsr()
    B.sort_indices()
    return B


@pytest.mark.parametrize("case", sorted(_ASSEMBLY_MESHES))
def test_assembled_matrices_are_symmetric_and_conservative(case):
    mesh = _ASSEMBLY_MESHES[case]()
    A = full_stiffness(mesh)
    # a_ij and a_ji are one float; the rows come sorted
    assert _same_matrix(A, _transposed(A))
    # every element row of the stiffness sums to zero, so the rows of
    # the matrix do to rounding (0.66 eps max a_ii on the graded disk)
    ones = np.ones(mesh.num_vertices)
    eps = np.finfo(float).eps
    assert np.abs(A @ ones).max() <= 4.0 * eps * A.diagonal().max()


@pytest.mark.parametrize("case", sorted(_ASSEMBLY_MESHES))
def test_lumped_mass_is_the_row_sums_of_the_consistent_mass(case):
    # the patch area over 3 is the integral of each hat, so the load of
    # a constant field, which multiplies it by the lumped mass, is the
    # consistent mass's to rounding
    mesh = _ASSEMBLY_MESHES[case]()
    M = reference_mass(mesh)
    assert abs(M.data.sum() - mesh.areas.sum()) <= 1e-14 * mesh.areas.sum()
    assert_allclose(lumped_mass_diagonal(mesh), M @ np.ones(mesh.num_vertices),
                    rtol=1e-14, atol=0.0)


def test_dd2_exp_keeps_the_bits_of_the_25_term_series():
    rng = np.random.default_rng(16)
    n = 10 ** 6
    mean = rng.uniform(-30.0, 30.0, n)
    spread = rng.uniform(0.0, 0.5, n)
    # corners of each triple spread over [mean, mean + spread]
    t = rng.random((3, n))
    t -= t.min(axis=0)
    t /= np.where(t.max(axis=0) > 0.0, t.max(axis=0), 1.0)
    random = mean + spread * t
    # spread exactly 0.5: the widest triple that takes the series
    grid = rng.integers(-30 * 64, 30 * 64, 1000) / 64.0
    mid = grid + rng.uniform(0.0, 0.5, 1000)
    exact = np.stack([grid, mid, grid + 0.5])
    assert np.all(exact.max(axis=0) - exact.min(axis=0) == 0.5)
    # two equal values, in each position
    pair = rng.uniform(-30.0, 30.0, 3000)
    other = pair + rng.uniform(-0.5, 0.5, 3000)
    equal = np.stack([pair, pair, other])
    equal = np.concatenate([equal, equal[[0, 2, 1]], equal[[2, 0, 1]]],
                           axis=1)
    for a, b, c in (random, exact, equal):
        assert _same_bits(_dd2_exp(a, b, c), reference_dd2_exp(a, b, c))


def decimal_dd2_exp(a, b, c):
    """The second divided difference of exp at three distinct values
    in 60-digit decimal arithmetic, far below double's underflow."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        lo, mid, hi = sorted(decimal.Decimal(float(v)) for v in (a, b, c))
        upper = (hi.exp() - mid.exp()) / (hi - mid)
        lower = (mid.exp() - lo.exp()) / (mid - lo)
        return float((upper - lower) / (hi - lo))


def test_dd2_exp_of_wide_triples_matches_a_decimal_reference():
    # the wide branch shifts each first divided difference by its
    # larger value: finite at every spread, with no warning, where
    # e^mid phi1(hi - mid) overflows expm1 once hi - mid > 709 and
    # multiplies it by exp(lo) = 0
    rng = np.random.default_rng(53)
    for spread in (0.6, 3.0, 40.0, 700.0, 800.0, 1e3, 1e4):
        for top in (rng.uniform(-30.0, 30.0, 40),
                    rng.uniform(-7.5e4, -7.3e4, 10)):
            t = np.sort(rng.random((3, top.size)), axis=0)
            t[0], t[2] = 0.0, 1.0
            hi = top
            mid = top - spread * (1.0 - t[1])
            lo = top - spread
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                got = _dd2_exp(mid, lo, hi)
            ref = np.array([decimal_dd2_exp(*v) for v in zip(lo, mid, hi)])
            assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
            normal = ref >= np.finfo(float).tiny
            assert np.all(np.abs(got[normal] - ref[normal])
                          <= 1e-14 * ref[normal]), spread
            assert np.all(got[~normal] <= 1e-300)


def test_assembly_peak_memory_stays_within_its_budget():
    # traced peaks in bytes on the n = 32 disk graded 12 levels, each
    # about 10 % above the peak of the edge-table assembly and the
    # bounded passes; the build's budget is that of the per-level
    # copies it replaced
    domain = Domain.disk(0.0, 0.0, 1.0)
    points = compute_separation_radii([[0.0, 0.0]], domain)
    budgets = {"build_mesh": 4_461_610, "operators": 2_480_000,
               "multigrid": 2_250_000,
               "integrate_exp_linear": 1_550_000,
               "assemble_mollified_load": 60_000_000}
    peaks = {}

    def traced(name, fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result
    mesh = traced("build_mesh", build_mesh, domain, 32, points, 12)
    ops = traced("operators", operators, mesh)
    # the mesh's own hierarchy, with the A + M_L it is built from: a
    # second copy of the stiffness's pattern held through the setup, or
    # results held at the size of their buffers, peaked at 2.41 MB
    traced("multigrid", lambda: ops.multigrid)
    # a point-source state: -log|x| / 2 pi, cut off at the mesh's
    # smallest scale
    r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    traced("integrate_exp_linear", integrate_exp_linear, mesh,
           -np.log(np.maximum(r, 1e-6)) / (2.0 * np.pi), 4.0 * np.pi)
    # a bump narrow enough for the deepest subdivision, on the n = 64
    # disk: about twice the peak of one quartered reference rule mapped
    # onto its candidates (quartering each candidate in the plane peaks
    # at 189 MB)
    traced("assemble_mollified_load", assemble_mollified_load,
           build_mesh(domain, 64), [0.0, 0.0], 0.005)
    for name, budget in budgets.items():
        assert peaks[name] <= budget, (name, peaks[name])


def test_load_of_zero_and_constant():
    mesh = square_mesh(6)
    assert abs(field_load(mesh, lambda x: np.zeros(len(x)))).max() == 0.0
    b = field_load(mesh, lambda x: np.ones(len(x)))
    assert abs(b.sum() - 1.0) < 1e-12


def test_load_exact_for_linear_data():
    mesh = square_mesh(5)
    b = field_load(mesh, lambda x: x[:, 0])
    # sum of entries = int x dx = 1/2
    assert abs(b.sum() - 0.5) < 1e-12


def test_dirac_load_at_vertex_is_a_unit_vector():
    mesh = square_mesh(4)
    vid = 12
    b = point_coupling(mesh, [mesh.vertices[vid]]).T @ np.array([1.0])
    expect = np.zeros(mesh.num_vertices)
    expect[vid] = 1.0
    assert_allclose(b, expect, atol=1e-12)


def test_dirac_load_at_barycenter():
    mesh = square_mesh(4)
    t = 9
    center = np.mean(mesh.vertices[mesh.triangles[t]], axis=0)
    b = point_coupling(mesh, [center]).T @ np.array([3.0])
    assert_allclose(b[mesh.triangles[t]], [1.0, 1.0, 1.0], atol=1e-12)
    mask = np.ones(mesh.num_vertices, dtype=bool)
    mask[mesh.triangles[t]] = False
    assert abs(b[mask]).max() == 0.0


def test_dirac_load_zero_weights_and_mass_conservation():
    mesh = square_mesh(5)
    pts = [[0.31, 0.41], [0.62, 0.58]]
    P = point_coupling(mesh, pts)
    assert abs(P.T @ np.array([0.0, 0.0])).max() == 0.0
    b = P.T @ np.array([1.5, 0.25])
    assert np.all(b >= 0.0)
    assert abs(b.sum() - 1.75) < 1e-12


def test_mollifier_normalization_constant():
    # 1 / (2 pi int_0^1 r exp(-1/(1-r^2)) dr): the radial normalization
    # pi int_0^1 e^{-1/v} dv by 96-point Gauss-Legendre (the integrand
    # is flat at v = 0) gives the constant's bits
    x, w = np.polynomial.legendre.leggauss(96)
    v = 0.5 * (x + 1.0)
    assert MOLLIFIER_C == 1.0 / (np.pi * 0.5 * float(np.sum(
        w * np.exp(-1.0 / v))))
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
    d = point_coupling(mesh, [x0]).T @ np.array([1.0])
    errs = []
    for eps in (0.2, 0.1, 0.05):
        b = assemble_mollified_load(mesh, x0, eps)
        errs.append(np.abs(b - d).max())
    assert errs[-1] < errs[0]
    assert errs[-1] < 0.05


def test_mollified_load_rejects_support_crossing_the_boundary():
    # the CLI admits a mollifier only inside its separation ball,
    # 0 < epsilon < rho0, and that ball only inside the disk, so no
    # support that crosses the boundary reaches the load
    config = RunConfig.from_dict({
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
        "points": [[0.0, 0.0]], "lower": [0.0], "upper": [1.0]})
    for values, field in (((0.9, 0.2, 0.15), "rho0"),
                          ((0.5, 0.2, 0.3), "epsilon")):
        x, rho0, epsilon = values
        entry = {"check": "mollified", "R": 1.0, "x0": [x, 0.0],
                 "rho0": rho0, "epsilon": epsilon, "m": 1.0}
        with pytest.raises(ConfigError, match="field 'verify.%s'" % field):
            _verify_check(config, entry, {})


def test_mollified_load_matches_the_plane_subdivision():
    # off-grid centers, widths that take every depth from 1 to 6 (two
    # at the cap, each about 0.3 s and 175 MB in the reference)
    square = Domain.unit_square()
    cases = [
        (build_mesh(Domain.disk(0.0, 0.0, 1.0), 16), [0.013, -0.021],
         (0.4, 0.2, 0.1, 0.05, 0.02)),
        (build_mesh(Domain.disk(0.0, 0.0, 1.0), 48), [-0.031, 0.017],
         (0.3, 0.1, 0.05, 0.02, 0.01)),
        (build_mesh(Domain.disk(0.0, 0.0, 1.0), 64), [0.027, 0.009],
         (0.1, 0.05, 0.03, 0.005)),
        (build_mesh(square, 8, refine_points=compute_separation_radii(
            [[0.5, 0.5]], square), refine_levels=4), [0.513, 0.479],
         (0.4, 0.3, 0.1))]
    depths = []
    for mesh, x0, widths in cases:
        for eps in widths:
            b = assemble_mollified_load(mesh, x0, eps)
            ref, depth = reference_mollified_load(mesh, x0, eps)
            depths.append(depth)
            assert np.array_equal(b != 0.0, ref != 0.0)
            scale = np.abs(ref).max()
            assert np.abs(b - ref).max() <= 1e-13 * scale, (eps, depth)
            if depth < 6:
                assert abs(b.sum() - 1.0) <= 1e-4, (eps, depth)
    assert set(depths) == set(range(1, 7)) and depths.count(6) == 2


def test_subdivided_rule_is_exact_to_degree_five():
    # int over the reference triangle of l1^a l2^b l3^c, over its area:
    # 2 a! b! c! / (a + b + c + 2)!
    f = math.factorial
    for depth in range(4):
        bary, w = _subdivided_rule(depth)
        assert bary.shape == (7 * 4 ** depth, 3) and w.shape == (len(bary),)
        assert bary.min() >= 0.0
        assert_allclose(bary.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        assert_allclose(w.sum(), 1.0, rtol=1e-14)
        for a in range(6):
            for b in range(6 - a):
                for c in range(6 - a - b):
                    exact = 2.0 * f(a) * f(b) * f(c) / f(a + b + c + 2)
                    assert_allclose(
                        w @ (bary[:, 0] ** a * bary[:, 1] ** b
                             * bary[:, 2] ** c), exact, rtol=1e-13)


def test_integrate_exp_linear_constant_field():
    mesh = square_mesh(5)
    v = np.full(mesh.num_vertices, 0.7)
    assert_allclose(integrate_exp_linear(mesh, v), np.exp(0.7), rtol=1e-13)
    assert_allclose(integrate_exp_linear(mesh, v, coeff=2.0), np.exp(1.4),
                    rtol=1e-13)


def test_integrate_exp_linear_single_triangle_closed_form():
    # one right triangle, nodal values (0, 1, 2): the exact integral of
    # exp over the triangle is (e - 1)^2 / 2
    mesh = mesh_from_arrays(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]),
        np.array([True, True, True]), Domain.unit_square())
    val = integrate_exp_linear(mesh, np.array([0.0, 1.0, 2.0]))
    assert_allclose(val, 1.4762462210062799, rtol=1e-13)


def test_integrate_exp_linear_matches_subdivided_quadrature():
    mesh = square_mesh(6)
    rng = np.random.default_rng(3)
    v = rng.normal(size=mesh.num_vertices)
    exact = integrate_exp_linear(mesh, v)
    bary, w = _subdivided_rule(4)
    approx = float(mesh.areas @ (np.exp(v[mesh.triangles] @ bary.T) @ w))
    assert_allclose(exact, approx, rtol=1e-9)


def test_integrate_exp_linear_near_equal_values_stable():
    mesh = mesh_from_arrays(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]),
        np.array([True, True, True]), Domain.unit_square())
    val = integrate_exp_linear(mesh, np.array([0.0, 1e-9, 2e-9]))
    assert_allclose(val, 0.5, rtol=1e-8)


def test_integrate_exp_linear_subset():
    mesh = square_mesh(4)
    v = np.zeros(mesh.num_vertices)
    sub = np.array([0, 1, 2])
    assert_allclose(integrate_exp_linear(mesh, v, tri_subset=sub),
                    np.sum(mesh.areas[sub]), rtol=1e-13)


def test_exp_remainders_frozen_values():
    assert_allclose(exp_remainder(1e-8, 2), 5.0000000166666669e-17,
                    rtol=1e-12)
    assert_allclose(exp_remainder(20.0, 2), 485165174.40979028, rtol=1e-13)
    assert_allclose(exp_remainder(1e-8, 3), 1.6666666708333334e-25,
                    rtol=1e-12)
    assert_allclose(exp_remainder(-3.0, 3), -2.4502129316321361, rtol=1e-13)
    assert exp_remainder(0.0, 2) == 0.0
    assert exp_remainder(0.0, 3) == 0.0


@settings(max_examples=200)
@given(st.floats(-30.0, 30.0))
def test_exp_remainder1_nonnegative(t):
    assert exp_remainder(t, 2) >= 0.0


def decimal_remainder(t, order):
    """e^t - sum_{n < order} t^n / n! in 60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = decimal.Decimal(float(t))
        head = sum(x ** n / math.factorial(n) for n in range(order))
        return float(x.exp() - head)


@pytest.mark.parametrize("order", [2, 3])
def test_exp_remainder_matches_a_decimal_reference(order):
    tiny = np.logspace(-8.0, -1.0, 15)
    t = np.concatenate([np.linspace(-0.349, 0.349, 140), tiny, -tiny,
                        np.linspace(-30.0, -0.35, 100),
                        np.linspace(0.35, 30.0, 100)])
    ref = np.array([decimal_remainder(v, order) for v in t])
    got = exp_remainder(t, order)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14


def test_exp_remainders_vectorized():
    t = np.array([-1.0, 0.0, 0.3, 2.0])
    r1 = exp_remainder(t, 2)
    assert r1.shape == t.shape
    assert_allclose(r1, np.expm1(t) - t, rtol=1e-12, atol=1e-300)


def test_point_value_interpolates_linears_exactly():
    mesh = square_mesh(5)
    f = 3.0 * mesh.vertices[:, 0] + mesh.vertices[:, 1]
    assert_allclose(point_coupling(mesh, [[0.37, 0.59]]) @ f,
                    3.0 * 0.37 + 0.59, atol=1e-12)


def test_solve_spd_zero_rhs():
    mesh = square_mesh(4)
    A = assemble_stiffness(mesh)
    x = solve_spd(A, np.zeros(mesh.num_vertices), mesh.boundary, 1e-10,
                  Multigrid(A))
    assert abs(x).max() == 0.0


def test_solve_spd_center_value_for_unit_load():
    # -Laplace u = 1 on the unit square; u(1/2,1/2) from the frozen
    # series value 0.073671353281513816
    errs = []
    for n in (16, 32):
        mesh = square_mesh(n)
        A = assemble_stiffness(mesh)
        b = lumped_mass_diagonal(mesh)
        y = solve_spd(A, b, mesh.boundary, 1e-10, Multigrid(A))
        value = (point_coupling(mesh, [[0.5, 0.5]]) @ y)[0]
        errs.append(abs(value - 0.073671353281513816))
    assert errs[-1] < 1e-4
    assert errs[-1] < errs[0] / 2.0


def test_solve_spd_recovers_a_prescribed_solution():
    mesh = square_mesh(8)
    A = to_scipy(full_stiffness(mesh)) + lumped_mass(mesh)
    rng = np.random.default_rng(11)
    target = rng.normal(size=mesh.num_vertices)
    target[mesh.boundary] = 0.0
    b = A @ target
    Af = free_block(mesh, A)
    x = solve_spd(Af, b, mesh.boundary, 1e-12, Multigrid(Af))
    assert np.max(np.abs(x - target)) < 1e-9
    assert abs(x[mesh.boundary]).max() == 0.0


def test_solve_spd_matches_dense_oracle():
    mesh = square_mesh(6)
    A = to_scipy(full_stiffness(mesh)) + lumped_mass(mesh)
    b = field_load(mesh, lambda x: x[:, 0] - x[:, 1] ** 2)
    Af = free_block(mesh, A)
    x = solve_spd(Af, b, mesh.boundary, 1e-13, Multigrid(Af))
    free = ~mesh.boundary
    dense = np.linalg.solve(A.toarray()[np.ix_(free, free)], b[free])
    assert np.max(np.abs(x[free] - dense)) < 1e-10


def test_solve_spd_discrete_maximum_principle():
    # nonnegative load on a nonobtuse mesh gives a nonnegative solution
    mesh = square_mesh(8)
    A = to_scipy(full_stiffness(mesh)) + lumped_mass(mesh)
    b = field_load(mesh, lambda x: np.exp(-10 * (x[:, 0] - 0.3) ** 2))
    Af = free_block(mesh, A)
    x = solve_spd(Af, b, mesh.boundary, 1e-10, Multigrid(Af))
    assert np.min(x) >= -1e-14


def test_solve_spd_rejects_indefinite_operators():
    mesh = square_mesh(3)
    A = free_block(mesh, -lumped_mass(mesh))
    with pytest.raises(RuntimeError, match="not positive definite"):
        solve_spd(A, np.ones(mesh.num_vertices), mesh.boundary, 1e-10,
                  Multigrid(A))
    # a positive diagonal passes the smoother's check, but the shift 100
    # lies above the lowest eigenvalue 2 pi^2 of the Laplacian, so a CG
    # step meets a nonpositive curvature
    mesh = square_mesh(16)
    A = to_scipy(full_stiffness(mesh)) + lumped_mass(mesh)
    shifted = to_scipy(full_stiffness(mesh)) - 100.0 * lumped_mass(mesh)
    with pytest.raises(RuntimeError, match="not positive definite"):
        solve_spd(free_block(mesh, shifted), np.ones(mesh.num_vertices),
                  mesh.boundary, 1e-10, Multigrid(free_block(mesh, A)))


def test_solve_spd_rejects_a_non_finite_right_hand_side():
    mesh = square_mesh(3)
    b = np.ones(mesh.num_vertices)
    b[~mesh.boundary] = np.nan
    A = assemble_stiffness(mesh)
    with pytest.raises(RuntimeError, match="not finite"):
        solve_spd(A, b, mesh.boundary, 1e-10, Multigrid(A))


def refined_disk():
    dom = Domain.disk(0.0, 0.0, 1.0)
    pts = compute_separation_radii([[0.0, 0.0], [0.4, 0.3]], dom)
    return build_mesh(dom, 16, refine_points=pts, refine_levels=3)


def shifted_stiffness(mesh):
    return free_block(mesh, to_scipy(full_stiffness(mesh))
                      + lumped_mass(mesh))


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
    # above 170 degrees, where smoothing is weakest; measured 0.44
    assert vcycle_contraction(refined_disk()) <= 0.65


def test_vcycle_contracts_on_a_disk_as_on_a_square():
    # the obtuse triangles of the elliptical disk map carry positive
    # couplings, which the aggregation counts as weak; measured 0.55
    # (0.78 when they counted as strong, under damped-Jacobi smoothing)
    assert vcycle_contraction(build_mesh(Domain.disk(0, 0, 1), 64)) <= 0.65


def test_unit_point_solve_on_a_disk_takes_few_vcycles(monkeypatch):
    # 21 V-cycles for 1e-12 at n = 128, where a square takes 15 (35
    # under damped-Jacobi smoothing and strength by |a_ij|)
    mesh = build_mesh(Domain.disk(0.0, 0.0, 1.0), 128)
    ops = operators(mesh)
    b = point_coupling(mesh, [[0.3, 0.2]]).rmatvec(np.ones(1))
    cycles = count_vcycles(monkeypatch)
    solve_spd(ops.stiffness, b, mesh.boundary, 1e-12, ops.multigrid)
    assert len(cycles) <= 24


def test_preconditioner_is_symmetric_positive_with_a_new_finest_level():
    mesh = refined_disk()
    mg = Multigrid(shifted_stiffness(mesh))
    # a Newton-type operator A + M_L diag(e^y): only the finest level
    # differs from the matrix the hierarchy was built from
    y = np.exp(-4.0 * np.sum(mesh.vertices ** 2, axis=1)) * 5.0
    H = free_block(mesh, to_scipy(full_stiffness(mesh))
                   + sp.diags(lumped_mass_diagonal(mesh) * np.exp(y)))
    B = mg.preconditioner(H)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x, v = rng.normal(size=(2, H.shape[0]))
        scale = np.linalg.norm(x) * np.linalg.norm(B(v))
        assert abs(x @ B(v) - v @ B(x)) <= 1e-12 * scale
        assert x @ B(x) > 0.0
    # the premise of the SPD argument, on an operator that is no
    # M-matrix: the eigenvalues lam of diag(1 / sum_j |h_ij|) H, those
    # of its symmetric similar W^1/2 H W^1/2, lie in (0, 1], where the
    # smoother's error polynomial 1 - 4 lam + 3.2 lam^2 lies in (-1, 1)
    dense = H.toarray()
    assert np.any(dense[~np.eye(H.shape[0], dtype=bool)] > 0.0)
    root = 1.0 / np.sqrt(np.abs(dense).sum(axis=1))
    lam = np.linalg.eigvalsh(root[:, None] * dense * root[None, :])
    assert lam.min() > 0.0 and lam.max() <= 1.0
    error = 1.0 - 4.0 * lam + 3.2 * lam ** 2
    assert np.all(np.abs(error) < 1.0)


def test_amg_pcg_matches_dense_oracle_on_a_refined_disk():
    mesh = refined_disk()
    A = to_scipy(full_stiffness(mesh)) + lumped_mass(mesh)
    b = field_load(mesh, lambda x: np.cos(3.0 * x[:, 0]) + x[:, 1])
    Af = free_block(mesh, A)
    x = solve_spd(Af, b, mesh.boundary, 1e-13, Multigrid(Af))
    free = ~mesh.boundary
    dense = np.linalg.solve(A.toarray()[np.ix_(free, free)], b[free])
    assert np.max(np.abs(x[free] - dense)) < 1e-10 * np.max(np.abs(dense))
    assert abs(x[mesh.boundary]).max() == 0.0


def test_solve_spd_on_a_diagonal_operator_needs_no_coarse_level():
    # no strong couplings: every node stays out of the aggregates, the
    # coarse space is empty, and the smoother alone solves the system
    mesh = square_mesh(32)
    d = lumped_mass_diagonal(mesh)
    D = free_block(mesh, sp.diags(d))
    free = ~mesh.boundary
    mg = Multigrid(D)
    assert mg.restrictions[0].shape[0] == 0
    b = np.arange(mesh.num_vertices, dtype=float)
    x = solve_spd(D, b, mesh.boundary, 1e-12, mg)
    assert_allclose(x[free], b[free] / d[free], rtol=1e-12)


def test_csr_apply_is_the_scipy_product_bit_for_bit():
    # the kernel is reached through scipy's private _sparsetools module;
    # this pins it to what a scipy CSR product returns
    dom = Domain.disk(0.0, 0.0, 1.0)
    pts = compute_separation_radii([[0.0, 0.0], [0.4, 0.3]], dom)
    mesh = build_mesh(dom, 24, refine_points=pts, refine_levels=4)
    ops = operators(mesh)
    rng = np.random.default_rng(17)
    y = rng.normal(size=mesh.num_vertices)
    mg = ops.multigrid
    assert len(mg.levels) >= 2
    checked = [ops.stiffness, ops.newton_operator(y)]
    for (A, *_), R in zip(mg.levels, mg.restrictions):
        checked += [A, R, R.T]
        # the V-cycle prolongates by R' on R's arrays: the same bits as
        # scipy's product with the transposed view of R
        e = rng.normal(size=R.shape[0])
        assert np.array_equal(R.rmatvec(e), to_scipy(R).T @ e)
    for op in checked:
        x = rng.normal(size=op.shape[1])
        assert np.array_equal(op @ x, to_scipy(op) @ x)
    with pytest.raises(ValueError, match="does not match"):
        ops.stiffness @ np.ones(ops.stiffness.shape[1] + 1)


_SQUARE = Domain.unit_square()
_DISK = Domain.disk(0.0, 0.0, 1.0)
_CSR_MESHES = {
    "disk-32-graded-12": lambda: build_mesh(
        _DISK, 32, refine_points=compute_separation_radii([[0.0, 0.0]],
                                                          _DISK),
        refine_levels=12),
    # exact zeros across the diagonals of right-angled cells
    "square-64": lambda: square_mesh(64),
    # green bisections toward two points
    "square-64-graded-1": lambda: build_mesh(
        _SQUARE, 64, refine_points=compute_separation_radii(
            [[0.3, 0.4], [0.7, 0.6]], _SQUARE), refine_levels=1),
}


def _same_matrix(got, want):
    """A CSR and a scipy CSR matrix with the same arrays, bit for bit."""
    return got.shape == want.shape and all(
        _same_bits(getattr(got, name), getattr(want, name))
        for name in ("indptr", "indices", "data"))


@pytest.mark.parametrize("case", sorted(_CSR_MESHES))
def test_csr_operations_keep_the_bits_of_the_scipy_matrices(case):
    # every CSR operation calls the kernels of the scipy operation it
    # replaces, so each stored array is the scipy one to the last bit
    mesh = _CSR_MESHES[case]()
    ops = operators(mesh)
    # a vertex, whose zero weights are stored, and two inner points
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    pts = [mesh.vertices[np.flatnonzero(~mesh.boundary)[0]],
           0.3 * lo + 0.7 * hi, 0.6 * lo + 0.4 * hi]
    P = point_coupling(mesh, pts)
    P_ref = reference_point_operator(mesh, pts)
    assert _same_matrix(P, P_ref)
    rng = np.random.default_rng(29)
    u = rng.normal(size=len(pts))
    assert _same_bits(P.rmatvec(u), P_ref.T @ u)
    A = ops.newton_operator(np.zeros(mesh.num_vertices))
    mg = Multigrid(A)
    levels, coarse = reference_multigrid(A)
    assert len(mg.levels) == len(levels) >= 2
    for (level, w, w2), R, (level_ref, P_ref, R_ref, w_ref) in zip(
            mg.levels, mg.restrictions, levels):
        assert _same_matrix(level, level_ref)
        # P is read through R's transpose, whose rows are sorted; the
        # reference's rows keep the order of scipy's product with a
        # diagonal matrix
        P_ref.sort_indices()
        assert _same_matrix(R.T, P_ref)
        assert _same_matrix(R, R_ref)
        assert _same_bits(w, w_ref)
        assert _same_bits(w2, 1.8 * w_ref)
    assert _same_bits(mg._coarse, coarse)


_INTERIOR_MESHES = dict(_CSR_MESHES, **{"graded-disk-12": graded_disk})


@pytest.mark.parametrize("case", sorted(_INTERIOR_MESHES))
def test_stiffness_is_the_interior_block_of_the_einsum_matrix(case):
    # the Dirichlet condition is imposed at assembly: the block is
    # scipy's slice of the reference without its exact zeros, and the
    # cached operator finds its diagonal in it
    mesh = _INTERIOR_MESHES[case]()
    A = assemble_stiffness(mesh)
    free = np.flatnonzero(~mesh.boundary)
    assert _same_matrix(A, reference_free_block(reference_stiffness(mesh),
                                                free))
    ops = operators(mesh)
    assert _same_matrix(ops.stiffness, to_scipy(A))
    rows = np.repeat(np.arange(free.size), np.diff(A.indptr))
    diagonal = ops._shifts._diagonal
    assert diagonal.size == free.size
    assert np.array_equal(A.indices[diagonal], rows[diagonal])
    assert _same_bits(A.data[diagonal], A.diagonal())


_WEIGHT_MESHES = {
    "square-16": lambda: square_mesh(16),
    "disk-16": lambda: build_mesh(_DISK, 16),
    "disk-16-graded-4": lambda: build_mesh(
        _DISK, 16, refine_points=compute_separation_radii([[0.0, 0.0]],
                                                          _DISK),
        refine_levels=4),
}


@pytest.mark.parametrize("case", sorted(_WEIGHT_MESHES))
def test_shifted_operators_bring_the_weights_of_a_pass_over_them(case):
    # 4/3 / (s + diag(A)) from the cached off-diagonal row sums s is
    # the pass over A's entries summed in another order: the stiffness,
    # A + M_L, a Newton operator and the secant start
    mesh = _WEIGHT_MESHES[case]()
    ops = operators(mesh)
    S = ops.stiffness
    free = ~mesh.boundary
    y = np.random.default_rng(37).normal(size=mesh.num_vertices)
    shifts = DiagonalShifts(S)
    checked = [shifts(np.zeros(S.shape[0])), shifts(ops.lumped_free),
               shifts(ops.lumped_free * np.exp(y[free])),
               ops.newton_operator(y), ops.start_operator]
    for A in checked:
        assert A.indptr is S.indptr and A.indices is S.indices
        assert_allclose(A.weights, _jacobi_weights(A), rtol=1e-14, atol=0)
    d = np.zeros(S.shape[0])
    d[S.shape[0] // 2] = -S.diagonal()[S.shape[0] // 2]
    with pytest.raises(RuntimeError, match="not positive definite"):
        shifts(d)


def test_an_operator_not_made_by_the_shifts_takes_the_full_pass(
        monkeypatch):
    # the same index arrays with other off-diagonal values must not
    # reach the cached row sums
    ops = operators(square_mesh(16))
    A = ops.newton_operator(np.zeros(ops.lumped.size))
    other = CSR(A.indptr, A.indices, 2.0 * A.data, A.shape)
    mg = ops.multigrid
    passes = []

    def counted(B):
        passes.append(B)
        return _jacobi_weights(B)
    monkeypatch.setattr(fem_module, "_jacobi_weights", counted)
    mg.preconditioner(A)
    assert passes == []
    mg.preconditioner(other)
    assert passes == [other]


@pytest.mark.parametrize("case", sorted(_WEIGHT_MESHES))
def test_a_poisson_solve_builds_no_shifts_and_keeps_the_hierarchy_bits(
        case, monkeypatch):
    # the hierarchy's A + M_L, formed on the stiffness's arrays, is bit
    # for bit the shift of the stiffness by M_L, and only the Newton and
    # secant-start operators build the DiagonalShifts
    made = []

    class Counted(DiagonalShifts):
        def __init__(self, S):
            made.append(S)
            super().__init__(S)
    monkeypatch.setattr(pde_module, "DiagonalShifts", Counted)
    mesh = _WEIGHT_MESHES[case]()
    ops = operators(mesh)
    solve_semilinear(mesh, np.ones(mesh.num_vertices), linear=True)
    assert made == []
    got = ops.multigrid
    want = Multigrid(DiagonalShifts(ops.stiffness)(ops.lumped_free))
    assert len(got.levels) == len(want.levels) >= 1
    for (A, w, w2), (A_ref, w_ref, w2_ref) in zip(got.levels, want.levels):
        assert _same_matrix(A, A_ref)
        assert _same_bits(w, w_ref) and _same_bits(w2, w2_ref)
    assert len(got.restrictions) == len(want.restrictions)
    for R, R_ref in zip(got.restrictions, want.restrictions):
        assert _same_matrix(R, R_ref)
    assert _same_bits(got._coarse, want._coarse)
    ops.newton_operator(np.zeros(mesh.num_vertices))
    assert made == [ops.stiffness]


def test_the_hierarchy_holds_exactly_its_entries(monkeypatch):
    # A + M_L is the stiffness's data shifted on its own index arrays,
    # and each R and coarse level holds buffers of exactly its entries:
    # no result keeps the bound its kernel was sized by, and no level
    # keeps P beside R
    finest = []

    class Recorded(Multigrid):
        def __init__(self, A):
            finest.append(A)
            super().__init__(A)
    monkeypatch.setattr(pde_module, "Multigrid", Recorded)
    domain = Domain.disk(0.0, 0.0, 1.0)
    mesh = build_mesh(domain, 32, compute_separation_radii([[0.0, 0.0]],
                                                           domain), 12)
    ops = operators(mesh)
    mg = ops.multigrid
    (A,) = finest
    S = ops.stiffness
    assert A.indptr is S.indptr and A.indices is S.indices
    assert np.shares_memory(A.indices, S.indices)
    assert not np.shares_memory(A.data, S.data)
    assert _same_bits(A.diagonal(), S.diagonal() + ops.lumped_free)
    assert sorted(vars(mg)) == ["_coarse", "levels", "restrictions"]
    matrices = [level[0] for level in mg.levels] + mg.restrictions
    assert len(matrices) >= 3
    for M in matrices:
        nnz = int(M.indptr[-1])
        for a in (M.indices, M.data):
            held = a if a.base is None else a.base
            assert held.size == a.size == nnz


@pytest.mark.parametrize("case", sorted(_CSR_MESHES))
def test_coarse_levels_are_symmetric_galerkin_products(case):
    mesh = _CSR_MESHES[case]()
    A = operators(mesh).newton_operator(np.zeros(mesh.num_vertices))
    mg = Multigrid(A)
    eps = np.finfo(float).eps
    for (coarse, *_), R in zip(mg.levels, mg.restrictions):
        assert _same_matrix(coarse, _transposed(coarse))
        # P' A P in scipy, P = R', to rounding: each entry of a product
        # of three sums of at most m terms is within 2 m eps of the sum
        # of the absolute values of its terms
        P, fine = to_scipy(R.T), to_scipy(A)
        product = (P.T @ (fine @ P)).toarray()
        size = (abs(P).T @ (abs(fine) @ abs(P))).toarray()
        m = max(np.diff(fine.indptr).max(), np.diff(P.indptr).max(),
                np.diff(P.tocsc().indptr).max())
        assert np.all(np.abs(coarse.toarray() - product)
                      <= 2 * m * eps * size)
        A = coarse


def test_the_graded_disk_solves_take_the_pinned_work(monkeypatch):
    # the hierarchy's transfers change the V-cycle's bits, not its
    # work: a unit point load at the center of the 9,129-vertex disk
    # graded 12 levels, solved as Poisson and as the semilinear state
    # of 3 delta
    mesh = _CSR_MESHES["disk-32-graded-12"]()
    b = point_coupling(mesh, [[0.0, 0.0]]).rmatvec(np.ones(1))
    cycles = count_vcycles(monkeypatch)
    solve_semilinear(mesh, b, linear=True)
    assert len(cycles) == 21
    del cycles[:]
    state = solve_semilinear(mesh, 3.0 * b)
    assert (len(cycles), state.newton_iterations) == (20, 4)


@pytest.mark.parametrize("case", sorted(_CSR_MESHES))
def test_operators_that_reach_the_aggregation_have_sorted_rows(case):
    # the aggregation reads each row's strong neighbours in column
    # order and sorts nothing itself: the free block keeps the sorted
    # pattern of the assembly, a Newton operator shares it, and every
    # coarse level is sorted once by _galerkin
    mesh = _CSR_MESHES[case]()
    ops = operators(mesh)
    y = np.random.default_rng(31).normal(size=mesh.num_vertices)
    checked = [ops.stiffness, ops.newton_operator(y)]
    checked += [A for A, *_ in ops.multigrid.levels]
    assert len(checked) >= 4
    for A in checked:
        assert fem_module._sparsetools.csr_has_sorted_indices(
            A.shape[0], A.indptr, A.indices)


@pytest.mark.parametrize("missing", ["scipy", "scipy.sparse._sparsetools"])
def test_kernel_loader_names_the_module_it_cannot_find(missing,
                                                       monkeypatch):
    find = PathFinder.find_spec

    def finder(name, path=None, target=None):
        return None if name == missing else find(name, path, target)
    monkeypatch.setattr(PathFinder, "find_spec", staticmethod(finder))
    with pytest.raises(ImportError,
                       match=r"scipy\.sparse\._sparsetools") as info:
        fem_module._load_kernels()
    assert info.value.name == "scipy.sparse._sparsetools"


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


def test_solve_spd_reports_stagnation_below_the_round_off_floor(
        monkeypatch):
    mesh = square_mesh(32)
    A = free_block(mesh, to_scipy(full_stiffness(mesh))
                   + lumped_mass(mesh))
    b = lumped_mass_diagonal(mesh)
    mg = Multigrid(A)
    cycles = count_vcycles(monkeypatch)
    with pytest.raises(RuntimeError, match="linear solve stagnated"):
        solve_spd(A, b, mesh.boundary, 1e-18, mg)
    assert len(cycles) < 300


@pytest.mark.parametrize("tol,passes", [(1e-1, 1), (1e-12, 1), (1e-13, 2)],
                         ids=["loose", "tight", "restarting"])
def test_solve_spd_takes_the_reference_iterates_in_a_vcycle_per_step(
        tol, passes, monkeypatch):
    # at 1e-13 the recursive residual passes before the true one, so the
    # solve confirms on a second pass from the true residual
    mesh = square_mesh(64)
    A = free_block(mesh, to_scipy(full_stiffness(mesh)) + lumped_mass(mesh))
    b = lumped_mass_diagonal(mesh)
    mg = Multigrid(A)
    cycles = count_vcycles(monkeypatch)
    reference, steps = reference_solve_spd(A, b, mesh.boundary, tol, mg)
    # the reference applies one V-cycle per pass that it never reads
    assert len(cycles) == steps + passes
    del cycles[:]
    x = solve_spd(A, b, mesh.boundary, tol, mg)
    assert np.array_equal(x, reference)
    assert len(cycles) == steps


@pytest.mark.parametrize("kind", ["square", "graded-disk"])
def test_aggregation_matches_the_loop_reference_on_every_level(
        kind, monkeypatch):
    mesh = square_mesh(96) if kind == "square" else graded_disk()
    aggregate = fem_module._aggregate
    sizes = []

    def checked(A, theta):
        agg, count = aggregate(A, theta)
        ref_agg, ref_count = reference_aggregate(to_scipy(A), theta)
        assert count == ref_count
        assert np.array_equal(agg, ref_agg)
        sizes.append(A.shape[0])
        return agg, count
    monkeypatch.setattr(fem_module, "_aggregate", checked)
    mg = Multigrid(operators(mesh).newton_operator(
        np.zeros(mesh.num_vertices)))
    # every level but the coarsest, which is factored
    assert len(sizes) == len(mg.levels) >= 2
