"""Box bounds, source points, separation radii, and the 4 pi rule.

A control, like a direction, is a plain (K,) float array: entry i is the
weight of the point mass at source point i, and the sequence vanishes
beyond the K points; Control(values) only makes that array.  This module
holds the bounds, the source points and below_four_pi, the one 4 pi
rule; all of it is plain value manipulation, independent of the mesh
and the PDE solvers, and checks no value: the CLI does that, once.
"""

import numpy as np

FOUR_PI = 4.0 * np.pi

# Guard band that keeps the strict condition u_i < 4*pi meaningful in
# floating point
_FOUR_PI_GUARD = 1e-12


def below_four_pi(values):
    """True when every entry of values is at most 4*pi - 1e-12, below
    the 4*pi solvability threshold of the exponential state equation:
    the one rule for bounds, controls, weights and Taylor probes."""
    return bool(np.max(values) <= FOUR_PI - _FOUR_PI_GUARD)


class BoundsPair:
    """Componentwise box bounds alpha_i <= u_i <= beta_i, as two (K,)
    arrays.  The CLI checks lower <= upper and below_four_pi(upper)."""

    def __init__(self, lower, upper):
        self.lower = np.array(lower, dtype=float).reshape(-1)
        self.upper = np.array(upper, dtype=float).reshape(-1)

    def __len__(self):
        return self.lower.size


class SourcePoints:
    """Source locations x_i, (K, 2), with separation radii rho_i, (K,).

    compute_separation_radii is the one maker: its radii, positive for
    the distinct interior points the CLI admits, are at most half of
    every pairwise distance, so the balls B(x_i, rho_i) are disjoint.
    """

    def __init__(self, points, radii):
        self.points = np.array(points, dtype=float).reshape(-1, 2)
        self.radii = np.array(radii, dtype=float).reshape(-1)

    @property
    def count(self):
        return self.points.shape[0]


def compute_separation_radii(points, domain):
    """The SourcePoints of the (K, 2) points with their canonical
    separation radii rho_i = min((1/2) min_{j != i} |x_i - x_j|,
    dist(x_i, boundary)): the balls B(x_i, rho_i) are pairwise disjoint
    and inside the domain.  A point outside the domain's interior, or
    one that repeats another, gets a radius <= 0; the CLI refuses both
    before it calls this."""
    points = np.array(points, dtype=float).reshape(-1, 2)
    K = points.shape[0]
    radii = np.empty(K)
    for i in range(K):
        rho = float(domain.boundary_distance(points[i]))
        for j in range(K):
            if j != i:
                rho = min(rho, 0.5 * float(np.hypot(*(points[i] - points[j]))))
        radii[i] = rho
    return SourcePoints(points, radii)


def L_functional(omega, radii):
    """Sum of omega_i^+ * log(1/rho_i) over the (K,) weight array
    omega, one weight per point of the SourcePoints radii."""
    return float(np.sum(np.maximum(omega, 0.0) * np.log(1.0 / radii.radii)))


def Control(values):
    """A control or direction given as K numbers: their (K,) array."""
    return np.asarray(values, dtype=float)
