import numpy as np
import pytest
from numpy.testing import assert_allclose

from expctrl.cli import ConfigError, RunConfig, _verify_check
from expctrl.estimates import (EstimateReport, verify_lipschitz_family,
                               verify_mollified_poisson,
                               verify_poisson_exponential,
                               verify_scalar_exponential,
                               verify_semilinear_exponential)
from expctrl.mesh import Domain, build_mesh
from expctrl.pde import ProblemInstance
from expctrl.sequences import BoundsPair, compute_separation_radii


def test_report_margin_and_pass_rule():
    r = EstimateReport("demo", 1.0, 2.0, {"a": 1})
    assert r.margin == 1.0
    assert r.passed
    tight = EstimateReport("demo", 2.0 + 1e-9, 2.0, {})
    assert tight.passed          # within the 1e-8 * RHS allowance
    fail = EstimateReport("demo", 2.1, 2.0, {})
    assert not fail.passed
    generous = EstimateReport("demo", 2.05, 2.0, {}, slack=0.1)
    assert generous.passed
    with pytest.raises(RuntimeError, match="estimate demo"):
        EstimateReport("demo", np.inf, 1.0, {})


def test_scalar_suite_runs_clean():
    r = verify_scalar_exponential(samples=10000, seed=42)
    assert r.passed
    assert r.parameters["violations"] == 0
    assert r.lhs <= r.rhs


def test_scalar_suite_spot_value():
    # a = 1, t = 0.5, t0 = 1: (e^0.5 - 1.5)/0.5 against e - 2
    lhs = (np.exp(0.5) - 1.5) / 0.5
    rhs = np.exp(1.0) - 2.0
    assert_allclose(lhs, 0.29744254140025629, rtol=1e-14)
    assert_allclose(rhs, 0.71828182845904524, rtol=1e-14)
    assert lhs <= rhs


def test_scalar_suite_deterministic_across_runs():
    a = verify_scalar_exponential(samples=500, seed=7)
    b = verify_scalar_exponential(samples=500, seed=7)
    assert a.lhs == b.lhs
    assert a.rhs == b.rhs


def disk_center_setup(resolution=48, levels=4):
    disk = Domain.disk(0.0, 0.0, 1.0)
    pts = compute_separation_radii([[0.0, 0.0]], disk)
    mesh = build_mesh(disk, resolution, refine_points=pts,
                      refine_levels=levels)
    return pts, mesh


def test_poisson_certificate_closed_form_disk():
    # single unit Dirac at the disk center, alpha = 2 pi:
    # continuum LHS = 2 pi, RHS = 4 pi exactly
    pts, mesh = disk_center_setup()
    r = verify_poisson_exponential(pts, np.array([1.0]),
                                   2.0 * np.pi, mesh)
    assert r.passed
    assert_allclose(r.rhs, 4.0 * np.pi, rtol=1e-12)
    assert r.lhs < 2.0 * np.pi          # interpolant under-resolves the peak
    assert r.lhs > 2.0 * np.pi - 0.25
    assert_allclose(r.parameters["rho"], [1.0])
    assert r.parameters["L"] == 0.0


def test_poisson_certificate_lhs_grows_under_refinement():
    disk = Domain.disk(0.0, 0.0, 1.0)
    pts = compute_separation_radii([[0.0, 0.0]], disk)
    lhs = []
    for levels in (0, 2, 4):
        mesh = build_mesh(disk, 24, refine_points=pts, refine_levels=levels)
        r = verify_poisson_exponential(pts, np.array([1.0]),
                                       2.0 * np.pi, mesh)
        assert r.passed
        lhs.append(r.lhs)
    assert lhs[0] < lhs[1] < lhs[2]


def test_poisson_certificate_near_four_pi_alpha():
    # alpha -> 4 pi: integrand exponent -> 0, LHS -> area
    pts, mesh = disk_center_setup(32, 2)
    r = verify_poisson_exponential(pts, np.array([1.0]),
                                   4.0 * np.pi - 1e-6, mesh)
    assert r.passed
    assert abs(r.lhs - np.pi) < 0.01
    assert r.rhs >= np.pi


#: a run on the unit disk with its center as the one source point
DISK_CENTER = {"domain": {"kind": "disk", "center": [0.0, 0.0],
                          "radius": 1.0},
               "points": [[0.0, 0.0]], "lower": [0.0], "upper": [1.0],
               "mesh": {"resolution": 16}}


def rejected(entry, message):
    """The CLI reads a verify entry's hypotheses before any mesh is
    built and rejects the entry naming the field."""
    with pytest.raises(ConfigError, match=message):
        _verify_check(RunConfig.from_dict(DISK_CENTER), entry, {})


def test_poisson_certificate_rejects_bad_hypotheses():
    rejected({"check": "poisson", "omega": [-1.0], "alpha": np.pi},
             "'verify.omega': .*positive")
    for alpha in (13.0, 0.0):
        rejected({"check": "poisson", "omega": [1.0], "alpha": alpha},
                 "'verify.alpha'")


def test_semilinear_certificate_with_source_term():
    pts, mesh = disk_center_setup(32, 3)
    r = verify_semilinear_exponential(pts, np.array([1.0]),
                                      2.0 * np.pi, 1.0, mesh)
    assert r.passed
    assert r.parameters["shift"] > 0.0


def test_semilinear_without_f0_reduces_toward_poisson():
    pts, mesh = disk_center_setup(32, 3)
    rs = verify_semilinear_exponential(pts, np.array([1.0]),
                                       2.0 * np.pi, None, mesh)
    rp = verify_poisson_exponential(pts, np.array([1.0]),
                                    2.0 * np.pi, mesh)
    assert rs.passed
    # absorption only lowers the state, and the shift term is zero
    assert rs.lhs <= rp.lhs + 1e-10
    assert rs.parameters["shift"] == 0.0
    assert_allclose(rs.rhs, rp.rhs, rtol=1e-12)


def test_semilinear_rejects_all_zero_weights():
    for weight in (0.0, -0.5):
        rejected({"check": "semilinear", "omega": [weight], "alpha": np.pi},
                 "'verify.omega': .*nonnegative, one positive")


@pytest.mark.parametrize("weight", [4.0 * np.pi, 13.0])
def test_semilinear_rejects_weights_at_or_above_4pi(weight):
    # the state equation loses solvability there, as for a control
    rejected({"check": "semilinear", "omega": [weight], "alpha": np.pi},
             "'verify.omega': .*ill-posed")


def lipschitz_instance(resolution=32):
    dom = Domain.unit_square()
    pts = compute_separation_radii([[0.35, 0.45], [0.65, 0.55]], dom)
    return ProblemInstance(dom, pts, BoundsPair([-2.0, -2.0], [2.0, 2.0]),
                           0.1, f0=1.0, resolution=resolution)


def test_lipschitz_family_reports_three_bounds_per_trial():
    inst = lipschitz_instance()
    mesh = inst.make_mesh()
    reports = verify_lipschitz_family(inst, mesh, trials=4, seed=42)
    names = [r.name for r in reports]
    assert names.count("exp-minus-one-l1") == 4
    assert names.count("exp-difference-positive-part") == 4
    assert names.count("exp-difference-l1") == 4
    assert all(r.passed for r in reports)


def test_lipschitz_family_is_seed_deterministic():
    inst = lipschitz_instance(24)
    mesh = inst.make_mesh()
    a = verify_lipschitz_family(inst, mesh, trials=2, seed=5)
    b = verify_lipschitz_family(inst, mesh, trials=2, seed=5)
    assert [r.lhs for r in a] == [r.lhs for r in b]
    assert [r.rhs for r in a] == [r.rhs for r in b]
    # every drawn pair lies in the box [lower, upper), and another seed
    # draws other pairs
    lo, up = inst.bounds.lower, inst.bounds.upper
    pairs = [np.array(r.parameters[key]) for r in a for key in ("u", "v")]
    assert all(np.all(lo <= p) and np.all(p < up) for p in pairs)
    c = verify_lipschitz_family(inst, mesh, trials=2, seed=6)
    assert [(r.parameters["u"], r.parameters["v"]) for r in a] != \
        [(r.parameters["u"], r.parameters["v"]) for r in c]


def test_mollified_certificates_closed_form_parameters():
    mesh = build_mesh(Domain.disk(0.0, 0.0, 1.0), 64)
    pw, integ = verify_mollified_poisson((0.0, 0.0), 0.5, 0.1,
                                         2.0 * np.pi, mesh)
    # pointwise RHS (2R/(rho0 - eps))^(m/2pi) = 5, integral RHS = 2.4 pi
    assert_allclose(pw.rhs, 5.0, rtol=1e-12)
    assert_allclose(integ.rhs, 2.4 * np.pi, rtol=1e-12)
    assert pw.passed and integ.passed
    assert pw.lhs < 2.1          # frozen run value is about 2.0
    assert integ.lhs < 3.5


def test_mollified_limit_of_small_exponent():
    mesh = build_mesh(Domain.disk(0.0, 0.0, 1.0), 32)
    pw, integ = verify_mollified_poisson((0.0, 0.0), 0.5, 0.1,
                                         1e-9, mesh)
    assert_allclose(pw.rhs, 1.0, rtol=1e-6)
    assert_allclose(integ.rhs, np.pi * 0.36, rtol=1e-6)
    assert pw.passed and integ.passed


def test_mollified_geometry_validation():
    def entry(x0=(0.0, 0.0), rho0=0.5, epsilon=0.1, m=np.pi, R=1.0):
        return {"check": "mollified", "R": R, "x0": list(x0), "rho0": rho0,
                "epsilon": epsilon, "m": m, "resolution": 8}
    rejected(entry(rho0=0.1, epsilon=0.2), "'verify.epsilon'")
    rejected(entry(rho0=1.5), "'verify.rho0'")
    rejected(entry(m=14.0), "'verify.m'")
    rejected(entry(x0=(0.6, 0.0)), "'verify.rho0'")
    rejected(entry(R=0.0), "'verify.R'")
    # the check builds its own disk of radius R, whatever the run's mesh
    disks = {}
    run = _verify_check(RunConfig.from_dict(DISK_CENTER), entry(R=2.0),
                        disks)
    pointwise, integral = run(build_mesh(Domain.unit_square(), 8))
    assert disks[2.0, 8].domain.kind == "disk"
    assert pointwise.parameters["R"] == integral.parameters["R"] == 2.0


def test_mollified_off_center_ball():
    mesh = build_mesh(Domain.disk(0.0, 0.0, 1.0), 48)
    pw, integ = verify_mollified_poisson((0.3, 0.1), 0.3, 0.05,
                                         np.pi, mesh)
    assert pw.passed and integ.passed
