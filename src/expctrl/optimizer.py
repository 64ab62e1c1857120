"""Projected-gradient descent over the box, first-order residuals with
activity classification, and the second-order necessary condition
certified exactly: the minimum of the reduced Hessian's form over the
critical cone, found by visiting the stationary point of every face.
"""

import itertools

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


class SecondOrderReport:
    """The exact minimum of the second-order form over the critical
    cone, the direction that attains it, and its verdict against tol;
    empty flags a cone that holds only the zero direction."""

    def __init__(self, minimum, direction, passed, tol, empty):
        self.minimum = float(minimum)
        self.direction = direction
        self.passed = bool(passed)
        self.tol = float(tol)
        self.empty = bool(empty)


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


def critical_cone_minimum(H, u, d, bounds, tol_active=1e-10,
                          tol_grad=1e-6):
    """Exact minimum of h' H h over the critical cone at u with
    |h|_1 = 1, returned as (value, h); an empty cone gives 0 and the
    zero direction.

    The cone is described as at a first-order point within tol_grad
    (else ValueError): components with |d_i| > tol_grad or a pinned
    interval are blocked, lower-active ones take the signs {0, +},
    upper-active ones {0, -} and interior ones {0, +, -}.  On the
    support S of a sign pattern, with D = diag(s_S), the form is a
    quadratic over the standard simplex, whose minimizer is the
    positive stationary point of some face:
    [[D H_SS D, 1], [1', 0]] [x; lam] = [0; 1] with x > 0.  Every face
    is solved, at most 3^m - 1 for m unblocked components.  A singular
    system is skipped: a null vector (v, mu) has 1'v = 0 and leaves the
    form constant along v, so its minimum recurs on a smaller face.
    Patterns run in a fixed order and only a strictly smaller value
    replaces the best, so the direction is deterministic.
    """
    kkt = kkt_residual(u, d, bounds, tol_active)
    if kkt.aggregate > tol_grad:
        raise ValueError("critical cone requires a first-order point")
    signs = {"lower-active": (0.0, 1.0), "upper-active": (0.0, -1.0),
             "interior": (0.0, 1.0, -1.0)}
    cls, dv = kkt.classification, kkt.gradient
    free = np.array([i for i, c in enumerate(cls)
                     if c != "degenerate" and abs(dv[i]) <= tol_grad],
                    dtype=int)
    if free.size == 0:
        return 0.0, np.zeros(dv.size)
    best, best_h = np.inf, None
    for pattern in itertools.product(*(signs[cls[i]] for i in free)):
        s = np.array(pattern)
        support = np.flatnonzero(s)
        if support.size == 0:
            continue
        m, idx, sign = support.size, free[support], s[support]
        system = np.ones((m + 1, m + 1))
        system[:m, :m] = sign[:, None] * H[np.ix_(idx, idx)] * sign
        system[m, m] = 0.0
        try:
            x = np.linalg.solve(system, np.eye(m + 1)[m])[:m]
        except np.linalg.LinAlgError:
            continue
        if np.all(x > 0.0):
            h = np.zeros(dv.size)
            h[idx] = sign * x / np.sum(x)
            value = float(h @ H @ h)
            if value < best:
                best, best_h = value, h
    return best, best_h


def second_order_check(instance, mesh, u, gradient, tol=None, state=None,
                       tol_active=1e-10, tol_grad=1e-6):
    """Certify D2J[h, h] = h' H h >= -tol on the whole critical cone at
    u, with the reduced K x K Hessian H built once (one adjoint and K
    linearized solves) and its exact cone minimum.

    gradient is the d at u that fixes the cone; state, when given, is
    the state already solved at u (as the optimizer's final report
    carries it), else it is solved here.  tol defaults to
    1e-8 * (1 + |J|).  Raises ValueError unless u is a first-order
    point within tol_grad.
    """
    if state is None:
        state = solve_state(instance, u, mesh)
    if tol is None:
        tol = 1e-8 * (1.0 + abs(evaluate_J(instance, u, mesh, state=state)))
    H = reduced_hessian(instance, u, mesh, state=state)
    minimum, direction = critical_cone_minimum(
        H, u, gradient, instance.bounds, tol_active, tol_grad)
    return SecondOrderReport(minimum, direction, minimum >= -tol, tol,
                             empty=not np.any(direction))
