"""Projected-gradient descent over the box, first-order residuals with
activity classification, critical-cone sampling, and the sampled
second-order necessary check against the reduced Hessian.
"""

import numpy as np

from .objective import evaluate_DJ, evaluate_J, reduced_hessian
from .pde import solve_state
from .sequences import Control, project_box

_BB_MIN = 1e-6
_BB_MAX = 1e6
_ARMIJO = 1e-4
_MAX_REJECTIONS = 30


class KKTReport:
    """Per-index first-order data at a control.

    classification entries are "lower-active", "upper-active",
    "interior", or "degenerate" (a pinned interval alpha_i = beta_i,
    zero residual by convention); residuals follow the sign trichotomy,
    projected holds the equivalent |u_i - clamp(u_i - d_i)| residual,
    and gradient the d it was computed from.  history rows are
    (J, aggregate residual, step) per optimizer iteration, so the J
    history is the first column, and state is the state solved at the
    final control; reports computed directly from a (u, d) pair leave
    both empty.
    """

    def __init__(self, classification, residuals, projected, gradient,
                 iterations=0, history=None):
        residuals = np.asarray(residuals, dtype=float).reshape(-1)
        projected = np.asarray(projected, dtype=float).reshape(-1)
        if np.any(~np.isfinite(residuals)) or np.any(residuals < 0.0):
            raise ValueError("residuals must be finite and nonnegative")
        if residuals.size != len(classification):
            raise ValueError("one classification per residual required")
        self.classification = list(classification)
        self.residuals = residuals
        self.projected = projected
        self.gradient = np.asarray(gradient, dtype=float).reshape(-1)
        self.aggregate = float(residuals.max()) if residuals.size else 0.0
        self.projected_aggregate = \
            float(projected.max()) if projected.size else 0.0
        self.iterations = int(iterations)
        self.history = [] if history is None else list(history)
        self.state = None


class CriticalDirection:
    """A tangent direction with its sign certificate.

    values vanish on blocked components (gradient entries over the
    tolerance, pinned intervals), are nonnegative where the control
    sits at its lower bound and nonpositive at the upper bound; empty
    flags the degenerate case where every component is blocked and only
    the zero direction remains.
    """

    def __init__(self, values, blocked, at_lower, at_upper, empty=False):
        values = np.asarray(values, dtype=float).reshape(-1)
        blocked = np.asarray(blocked, dtype=bool).reshape(-1)
        at_lower = np.asarray(at_lower, dtype=bool).reshape(-1)
        at_upper = np.asarray(at_upper, dtype=bool).reshape(-1)
        if not np.all(np.isfinite(values)):
            raise ValueError("direction entries must be finite")
        if np.any(values[blocked] != 0.0):
            raise ValueError("blocked component must vanish")
        if np.any(values[at_lower] < 0.0):
            raise ValueError("lower-active component must be nonnegative")
        if np.any(values[at_upper] > 0.0):
            raise ValueError("upper-active component must be nonpositive")
        self.values = values
        self.blocked = blocked
        self.at_lower = at_lower
        self.at_upper = at_upper
        self.empty = bool(empty)


class SecondOrderReport:
    """Sampled second-order form values along critical directions."""

    def __init__(self, values, minimum, direction, passed, tol):
        self.values = list(values)
        self.minimum = float(minimum)
        self.direction = direction
        self.passed = bool(passed)
        self.tol = float(tol)


def kkt_residual(u, d, bounds, tol_active=1e-10):
    """Trichotomy residuals of the first-order conditions.

    A lower-active component needs d_i >= 0, an upper-active one
    d_i <= 0, an interior one d_i = 0; activity is detected within
    tol_active, and pinned intervals carry zero residual.  The
    projected-gradient residual is reported alongside; it vanishes at
    exactly the same controls.
    """
    uv = u.values if hasattr(u, "values") else \
        np.asarray(u, dtype=float).reshape(-1)
    dv = np.asarray(d, dtype=float).reshape(-1)
    if uv.size != dv.size:
        raise ValueError("control and gradient differ in length")
    if uv.size != len(bounds):
        raise ValueError("control and bounds differ in support size")
    classification = []
    residuals = np.empty(uv.size)
    for i in range(uv.size):
        lo, up = bounds.lower[i], bounds.upper[i]
        if up - lo <= tol_active:
            classification.append("degenerate")
            residuals[i] = 0.0
        elif uv[i] <= lo + tol_active:
            classification.append("lower-active")
            residuals[i] = max(-dv[i], 0.0)
        elif uv[i] >= up - tol_active:
            classification.append("upper-active")
            residuals[i] = max(dv[i], 0.0)
        else:
            classification.append("interior")
            residuals[i] = abs(dv[i])
    projected = np.abs(uv - np.clip(uv - dv, bounds.lower, bounds.upper))
    return KKTReport(classification, residuals, projected, dv)


def projected_gradient(instance, mesh, u0, max_iters=200, tol=1e-6,
                       tol_active=1e-10, state_tol=1e-10):
    """Minimize J over the box from u0.

    Iterates u+ = clamp(u - s d) with a Barzilai-Borwein step
    safeguarded to [1e-6, 1e6] and Armijo backtracking on J against the
    decrease d . (u - u+); a trial point whose state solve fails counts
    as a rejection, and 30 consecutive rejections abort.  Stops once
    the aggregate trichotomy residual reaches tol, or at max_iters with
    the partial history intact.
    """
    u = project_box(u0, instance.bounds)
    state = solve_state(instance, u, mesh, tol=state_tol)
    report = evaluate_DJ(instance, u, mesh, state=state)
    value, grad = report.value, report.gradient
    history = []
    step = 1.0
    prev_u = None
    prev_grad = None
    for it in range(max_iters + 1):
        kkt = kkt_residual(u, grad, instance.bounds, tol_active)
        history.append((value, kkt.aggregate, step))
        if kkt.aggregate <= tol or it == max_iters:
            kkt.iterations, kkt.history, kkt.state = it, history, state
            return u, kkt
        if prev_u is not None:
            du = u.values - prev_u
            dg = grad - prev_grad
            denom = float(np.dot(du, dg))
            if denom > 0.0:
                step = float(np.dot(du, du)) / denom
        step = float(np.clip(step, _BB_MIN, _BB_MAX))
        s = step
        rejections = 0
        while True:
            trial = Control(np.clip(u.values - s * grad,
                                    instance.bounds.lower,
                                    instance.bounds.upper))
            trial_state = None
            try:
                trial_state = solve_state(instance, trial, mesh,
                                          tol=state_tol)
                trial_value = evaluate_J(instance, trial, mesh,
                                         state=trial_state)
            except RuntimeError:
                trial_value = None
            if trial_value is not None:
                decrease = float(np.dot(grad, u.values - trial.values))
                if trial_value <= value - _ARMIJO * decrease:
                    break
            rejections += 1
            if rejections >= _MAX_REJECTIONS:
                raise RuntimeError("line search failed")
            s *= 0.5
        prev_u, prev_grad = u.values.copy(), grad.copy()
        u, state, value = trial, trial_state, trial_value
        report = evaluate_DJ(instance, u, mesh, state=state)
        grad = report.gradient
        step = s
    raise AssertionError("unreachable")


def sample_critical_cone(u, d, bounds, tol_active=1e-10, tol_grad=1e-6,
                         count=64, seed=42):
    """Seeded sample of directions in the critical cone at u.

    Components with |d_i| > tol_grad are blocked (the cone forces them
    to zero), lower-active components take nonnegative entries and
    upper-active ones nonpositive, pinned intervals stay zero; nonzero
    samples are normalized to unit l1 norm.  Requires the aggregate
    first-order residual to be within tol_grad, since the blocked-set
    description of the cone is only valid at such points.  When every
    component is blocked, the single zero direction is returned with
    its empty flag set.
    """
    base = kkt_residual(u, d, bounds, tol_active)
    if base.aggregate > tol_grad:
        raise ValueError("critical cone requires a first-order point")
    dv = np.asarray(d, dtype=float).reshape(-1)
    cls = np.array(base.classification)
    degenerate = cls == "degenerate"
    blocked = (np.abs(dv) > tol_grad) | degenerate
    lower = (cls == "lower-active") & ~blocked
    upper = (cls == "upper-active") & ~blocked
    if np.all(blocked):
        zero = np.zeros(dv.size)
        return [CriticalDirection(zero, blocked, lower, upper, empty=True)]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(int(count)):
        g = rng.standard_normal(dv.size)
        h = np.where(lower, np.abs(g), np.where(upper, -np.abs(g), g))
        h[blocked] = 0.0
        norm = float(np.sum(np.abs(h)))
        if norm > 0.0:
            h /= norm
        out.append(CriticalDirection(h, blocked, lower, upper))
    return out


def second_order_check(instance, mesh, u, directions, tol=None,
                       state=None):
    """Evaluate D2J[h, h] = h' H h over sampled critical directions,
    with the reduced K x K Hessian H built once (K linearized solves).

    state, when given, is the state already solved at u (as the
    optimizer's final report carries it); else it is solved here.
    Passes when every value clears -tol (default 1e-8 * (1 + |J|)); the
    minimum value and its direction are reported either way, with the
    minimum taken in the given fixed order.
    """
    if state is None:
        state = solve_state(instance, u, mesh)
    if tol is None:
        tol = 1e-8 * (1.0 + abs(evaluate_J(instance, u, mesh, state=state)))
    H = reduced_hessian(instance, u, mesh, state=state)
    values = [float(d.values @ H @ d.values) for d in directions]
    idx = int(np.argmin(values))
    minimum = values[idx]
    return SecondOrderReport(values, minimum, directions[idx],
                             minimum >= -tol, tol)
