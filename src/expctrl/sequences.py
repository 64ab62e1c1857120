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
        if lower.size != upper.size:
            raise ValueError("lower and upper bounds differ in length")
        if lower.size < 1:
            raise ValueError("bounds need at least one component")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("bound entries must be finite")
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
    """Source locations x_i with separation radii rho_i.

    The balls B(x_i, rho_i) must be pairwise disjoint; the canonical
    radii come from compute_separation_radii, but any smaller positive
    radii are admissible (shrinking preserves disjointness).
    """

    def __init__(self, points, radii):
        points = np.array(points, dtype=float).reshape(-1, 2)
        radii = np.array(radii, dtype=float).reshape(-1)
        if points.shape[0] != radii.size:
            raise ValueError("one radius per point required")
        if points.shape[0] < 1:
            raise ValueError("at least one source point required")
        if not np.all(np.isfinite(points)):
            raise ValueError("source coordinates must be finite")
        if np.any(radii <= 0.0):
            raise ValueError("separation radii must be positive")
        for i in range(points.shape[0]):
            for j in range(i + 1, points.shape[0]):
                d = float(np.hypot(*(points[i] - points[j])))
                if d == 0.0:
                    raise ValueError("coincident source points")
                if d < radii[i] + radii[j] - 1e-12:
                    raise ValueError(
                        "balls around points %d and %d overlap" % (i, j))
        self.points = points
        self.radii = radii

    @property
    def count(self):
        return self.points.shape[0]


def compute_separation_radii(points, domain):
    """Canonical separation radii for a family of interior points.

    rho_i = min( (1/2) min_{j != i} |x_i - x_j|, dist(x_i, boundary) );
    for a single point only the boundary distance enters.  The resulting
    balls B(x_i, rho_i) are pairwise disjoint and contained in the domain.

    Parameters
    ----------
    points : (K, 2) array-like
        Pairwise distinct, strictly interior locations.
    domain : Domain
        Provides the signed boundary distance.

    Returns
    -------
    SourcePoints
    """
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
    """Sum of omega_i^+ * log(1/rho_i) over the support of the (K,)
    weight array omega."""
    if radii.count < omega.size:
        raise ValueError(
            "radii cover %d components, omega has support %d"
            % (radii.count, omega.size))
    rho = radii.radii[:omega.size]
    if np.any(rho <= 0.0):
        raise ValueError("separation radii must be positive")
    pos = np.maximum(omega, 0.0)
    return float(np.sum(pos * np.log(1.0 / rho)))


def Control(values):
    """A control or direction given as K numbers: their (K,) array."""
    return np.asarray(values, dtype=float)
