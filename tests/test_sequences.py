import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from expctrl.cli import ConfigError, RunConfig, _verify_check
from expctrl.mesh import Domain
from expctrl.sequences import (FOUR_PI, BoundsPair, L_functional,
                               SourcePoints, compute_separation_radii)
from helpers import truncate


def test_bounds_ordering_checked_per_component():
    with pytest.raises(ValueError, match="component 1"):
        BoundsPair([0.0, 2.0], [1.0, 1.0])


def test_bounds_upper_must_stay_below_four_pi():
    # strictness guard: 4*pi - 1e-12 is the cutoff
    with pytest.raises(ValueError, match="component 0.*4\\*pi"):
        BoundsPair([0.0], [FOUR_PI])
    with pytest.raises(ValueError, match="component 1"):
        BoundsPair([0.0, 0.0], [1.0, 13.0])
    BoundsPair([0.0], [FOUR_PI - 1e-6])  # fine


ONE_POINT = {"domain": {"kind": "unit_square"}, "points": [[0.5, 0.5]],
             "lower": [0.0], "upper": [1.0]}


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
    # the maker refuses a repeated point and a point without a positive
    # radius, one on the boundary
    with pytest.raises(ValueError, match="coincident"):
        compute_separation_radii([[0.5, 0.5], [0.5, 0.5]],
                                 Domain.unit_square())
    with pytest.raises(ValueError, match="not interior"):
        compute_separation_radii([[0.5, 0.5], [1.0, 0.5]],
                                 Domain.unit_square())


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
    square = Domain.unit_square()
    with pytest.raises(ValueError, match="not interior"):
        compute_separation_radii([[0.0, 0.5]], square)
    with pytest.raises(ValueError, match="not interior"):
        compute_separation_radii([[1.2, 0.5]], square)
    with pytest.raises(ValueError, match="coincident"):
        compute_separation_radii([[0.4, 0.4], [0.4, 0.4]], square)


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
