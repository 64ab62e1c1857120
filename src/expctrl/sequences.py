"""Box bounds, source points, and separation radii.

A control, like a direction, is a plain (K,) float array: entry i is the
weight of the point mass at source point i, and the sequence vanishes
beyond the K points; Control(values) only makes that array.  This module
holds the bounds and the source points; everything in it is plain value
manipulation, independent of the mesh and the PDE solvers.
"""

import numpy as np

FOUR_PI = 4.0 * np.pi

# Guard band for the strict upper-bound condition beta_i < 4*pi.
_BOUND_GUARD = 1e-12


class BoundsPair:
    """Componentwise box bounds alpha_i <= u_i <= beta_i.

    Every upper bound must stay strictly below the 4*pi solvability
    threshold of the exponential state equation; the strictness is
    enforced as beta_i <= 4*pi - 1e-12 to keep the check meaningful in
    floating point.
    """

    def __init__(self, lower, upper):
        lower = np.array(lower, dtype=float).reshape(-1)
        upper = np.array(upper, dtype=float).reshape(-1)
        for i in range(lower.size):
            if lower[i] > upper[i]:
                raise ValueError(
                    "bound component %d has lower > upper (%g > %g)"
                    % (i, lower[i], upper[i]))
            if upper[i] > FOUR_PI - _BOUND_GUARD:
                raise ValueError(
                    "upper bound component %d reaches the 4*pi threshold (%g)"
                    % (i, upper[i]))
        self.lower = lower
        self.upper = upper

    def __len__(self):
        return self.lower.size


class SourcePoints:
    """Source locations x_i, (K, 2), with separation radii rho_i, (K,).

    compute_separation_radii is the one maker: its radii are positive
    and at most half of every pairwise distance, so the balls
    B(x_i, rho_i) are pairwise disjoint by construction.
    """

    def __init__(self, points, radii):
        points = np.array(points, dtype=float).reshape(-1, 2)
        radii = np.array(radii, dtype=float).reshape(-1)
        self.points = points
        self.radii = radii

    @property
    def count(self):
        return self.points.shape[0]


def compute_separation_radii(points, domain):
    """The SourcePoints of the (K, 2) points with their canonical
    separation radii rho_i = min((1/2) min_{j != i} |x_i - x_j|,
    dist(x_i, boundary)): the balls B(x_i, rho_i) are pairwise disjoint
    and inside the domain.  A point outside the domain's interior, or
    one that repeats another, raises ValueError."""
    points = np.array(points, dtype=float).reshape(-1, 2)
    K = points.shape[0]
    radii = np.empty(K)
    for i in range(K):
        bdist = float(domain.boundary_distance(points[i]))
        if bdist <= 0.0:
            raise ValueError("source not interior")
        rho = bdist
        for j in range(K):
            if j == i:
                continue
            d = float(np.hypot(*(points[i] - points[j])))
            if d == 0.0:
                raise ValueError("coincident source points")
            rho = min(rho, 0.5 * d)
        radii[i] = rho
    return SourcePoints(points, radii)


def L_functional(omega, radii):
    """Sum of omega_i^+ * log(1/rho_i) over the (K,) weight array
    omega, one weight per point of the SourcePoints radii."""
    return float(np.sum(np.maximum(omega, 0.0) * np.log(1.0 / radii.radii)))


def Control(values):
    """A control or direction given as K numbers: their (K,) array."""
    return np.asarray(values, dtype=float)
