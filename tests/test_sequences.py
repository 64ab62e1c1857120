import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from expctrl.cli import ConfigError, RunConfig, _verify_check
from expctrl.mesh import Domain
from expctrl.sequences import (FOUR_PI, L_functional, SourcePoints,
                               below_four_pi, compute_separation_radii)
from helpers import truncate

ONE_POINT = {"domain": {"kind": "unit_square"}, "points": [[0.5, 0.5]],
             "lower": [0.0], "upper": [1.0]}
TWO_POINTS = dict(ONE_POINT, points=[[0.3, 0.5], [0.7, 0.5]],
                  lower=[0.0, 0.0], upper=[1.0, 1.0])


def rejected(message, **values):
    with pytest.raises(ConfigError, match=message):
        RunConfig.from_dict(dict(TWO_POINTS, **values))


def test_bounds_ordering_checked_per_component():
    # the CLI checks the box where it enters and names the field
    rejected(r"^field 'lower': component 1 exceeds upper \(2.0 > 1.0\)$",
             lower=[0.0, 2.0])
    bounds = RunConfig.from_dict(dict(TWO_POINTS, lower=[1.0, 0.0])) \
        .instance.bounds
    assert list(bounds.lower) == [1.0, 0.0]


def test_bounds_upper_must_stay_below_four_pi():
    # one rule for every weight: at most 4*pi - 1e-12
    assert below_four_pi([0.0, FOUR_PI - 1e-12])
    assert not below_four_pi([FOUR_PI - 1e-13, 0.0])
    assert not below_four_pi(np.array([1.0, np.inf]))
    for upper, component in (([1.0, FOUR_PI], 1),
                             ([FOUR_PI - 1e-13, 1.0], 0),
                             ([1.0, 13.0], 1)):
        rejected("^field 'upper': values must be below 4 pi, at most "
                 "4 pi - 1e-12, .*; component %d is" % component,
                 upper=upper)
    bounds = RunConfig.from_dict(dict(TWO_POINTS,
                                      upper=[1.0, FOUR_PI - 1e-6])) \
        .instance.bounds
    assert bounds.upper[1] == FOUR_PI - 1e-6


def test_bounds_length_mismatch():
    # the CLI reads one bound per source point before it makes the pair
    with pytest.raises(ConfigError, match="field 'upper': expected 1"):
        RunConfig.from_dict(dict(ONE_POINT, upper=[1.0, 2.0]))


def test_source_points_require_disjoint_balls():
    # compute_separation_radii, the one maker, makes the balls disjoint
    pts = np.array([[0.3, 0.5], [0.7, 0.5]])
    sp = compute_separation_radii(pts, Domain.unit_square())
    assert_allclose(sp.radii, [0.2, 0.2])
    assert sp.radii[0] + sp.radii[1] <= np.hypot(*(pts[0] - pts[1]))


def test_source_points_reject_duplicates_and_bad_radii():
    # the CLI refuses a repeated point and a point without a positive
    # radius, one on the boundary, naming the point; the maker only
    # computes, and gives each of them a radius <= 0
    rejected(r"^field 'points': point 1 repeats point 0$",
             points=[[0.5, 0.5], [0.5, 0.5]])
    rejected(r"^field 'points': point 1 at \(1.0, 0.5\) is not inside the "
             r"domain$", points=[[0.5, 0.5], [1.0, 0.5]])
    radii = compute_separation_radii([[0.5, 0.5], [0.5, 0.5], [1.0, 0.5]],
                                     Domain.unit_square()).radii
    assert_allclose(radii, [0.0, 0.0, 0.0])


def test_truncate_zeroes_the_tail():
    h = np.array([1.0, -2.0, 3.0])
    t = truncate(h, 2)
    assert_allclose(t, [1.0, -2.0, 0.0])
    assert len(t) == 3


def test_truncate_beyond_support_is_identity():
    h = np.array([1.0, -2.0, 3.0])
    assert_allclose(truncate(h, 7), h)


def test_truncate_shrinks_l1_norm():
    h = np.array([0.5, 0.5, 0.5])
    assert np.sum(np.abs(truncate(h, 1))) == 0.5
    assert np.sum(np.abs(h)) == 1.5


def test_truncate_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        truncate(np.array([1.0]), 0)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=12),
       st.integers(1, 15))
def test_truncate_idempotent_and_tail_decreasing(values, k):
    h = np.array(values)
    once = truncate(h, k)
    assert_allclose(truncate(once, k), once)
    # tail distance is nonincreasing in k and hits 0 at the support size
    dists = [np.sum(np.abs(h - truncate(h, j)))
             for j in range(1, len(h) + 1)]
    assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))
    assert dists[-1] == 0.0


def test_separation_radii_two_points_unit_square():
    pts = compute_separation_radii([[0.3, 0.5], [0.7, 0.5]],
                                   Domain.unit_square())
    # half of the 0.4 gap beats the 0.3 boundary distance
    assert_allclose(pts.radii, [0.2, 0.2])


def test_separation_radius_single_point_disk_center():
    pts = compute_separation_radii([[0.0, 0.0]], Domain.disk(0.0, 0.0, 1.0))
    assert_allclose(pts.radii, [1.0])


def test_separation_radius_near_edge():
    pts = compute_separation_radii([[0.1, 0.5]], Domain.unit_square())
    assert_allclose(pts.radii, [0.1])


def test_separation_radii_reject_boundary_and_duplicate_points():
    # every point the CLI lets through has a positive separation radius
    rejected(r"^field 'points': point 0 at \(0.0, 0.5\) is not inside",
             points=[[0.0, 0.5], [0.7, 0.5]])
    rejected(r"^field 'points': point 1 at \(1.2, 0.5\) is not inside",
             points=[[0.3, 0.5], [1.2, 0.5]])
    rejected(r"^field 'points': point 2 repeats point 0$",
             points=[[0.4, 0.4], [0.6, 0.6], [0.4, 0.4]],
             lower=[0.0] * 3, upper=[1.0] * 3)
    disk = {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0}
    rejected(r"^field 'points': point 1 at \(0.6, 0.8\) is not inside",
             domain=disk, points=[[0.0, 0.0], [0.6, 0.8]])
    points = RunConfig.from_dict(dict(TWO_POINTS, domain=disk)) \
        .instance.points
    assert np.all(points.radii > 0.0)


def test_separation_balls_disjoint_and_bounded_by_half_diameter():
    square = Domain.unit_square()
    rng = np.random.default_rng(7)
    pts = 0.1 + 0.8 * rng.random((6, 2))
    sp = compute_separation_radii(pts, square)
    R = 0.5 * square.diameter()
    for i in range(sp.count):
        for j in range(i + 1, sp.count):
            gap = np.hypot(*(sp.points[i] - sp.points[j]))
            assert sp.radii[i] + sp.radii[j] <= gap + 1e-12
    assert np.sum(sp.radii ** 2) <= R ** 2 + 1e-12


def test_L_functional_positive_parts_only():
    radii = SourcePoints([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.25])
    val = L_functional(np.array([2.0, -1.0]), radii)
    assert_allclose(val, 2.0 * np.log(2.0), rtol=1e-14)


def test_L_functional_vanishes_without_positive_weights():
    radii = SourcePoints([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.25])
    assert L_functional(np.array([-1.0, -2.0]), radii) == 0.0
    one = SourcePoints([[0.5, 0.5]], [1.0])
    assert L_functional(np.array([1.0]), one) == 0.0


def test_L_functional_monotone_in_positive_part():
    radii = SourcePoints([[0.3, 0.5], [0.7, 0.5]], [0.2, 0.2])
    lo = L_functional(np.array([0.5, 1.0]), radii)
    hi = L_functional(np.array([1.5, 1.0]), radii)
    assert lo <= hi


def test_L_functional_needs_enough_radii():
    # the CLI reads one weight per source point for the certificates
    config = RunConfig.from_dict(ONE_POINT)
    with pytest.raises(ConfigError, match="field 'verify.omega': "
                       "expected 1 numbers"):
        _verify_check(config, {"check": "poisson", "omega": [1.0, 1.0],
                               "alpha": 3.0}, {})
