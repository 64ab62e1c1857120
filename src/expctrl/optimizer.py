"""Projected Newton over the box with the exact reduced Hessian and a
projected-gradient fallback, first-order residuals with activity
classification, and the second-order necessary condition certified
exactly: the minimum of the reduced Hessian's form over the critical
cone, found by visiting the stationary point of every face.

projected_gradient owns every state and adjoint solve: one state per
trial point, one adjoint per accepted iterate, and one linearized solve
per free component of each iterate's Hessian, the only block the Newton
step reads.  Those linearized solves only steer a step that the Armijo
test guards, so they stop at a forcing tolerance that falls with the
KKT residual; every adjoint stays at the tight pde._CG_TOL.
second_order_check reads the active set, gradient, final J, state and
adjoint from the optimizer's report and adds only one linearized solve
per component the critical cone leaves unblocked, at pde._CG_TOL: the
certified Hessian is the exact one.
"""

import math

import numpy as np

from .objective import evaluate_DJ, evaluate_J, reduced_hessian
from .pde import _CG_TOL, _ETA_MAX, solve_state

#: the optimizer's KKT stopping test and the critical cone's bound on |d_i|
KKT_TOL = 1e-6
# the distance to a bound within which a component counts as active
_ACTIVE_TOL = 1e-10
# the widest band next to a bound in which a component is held as
# epsilon-active (Bertsekas 1982)
_EPSILON = 1e-3
_ARMIJO = 1e-4
_MAX_REJECTIONS = 30
# sign patterns of the critical cone per pass: bounds the stacked face
# systems at a few MB for any number of unblocked components
_FACE_BATCH = 4096


class KKTReport:
    """Per-index first-order data at a control.

    classification entries are "lower-active", "upper-active",
    "interior", or "degenerate" (a pinned interval alpha_i = beta_i,
    zero residual by convention); residuals follow the sign trichotomy,
    projected_aggregate is the largest equivalent |u_i - clamp(u_i -
    d_i)| residual, and gradient the d it was computed from.
    projected_gradient also
    sets iterations, the history rows (J, aggregate residual, step) per
    iteration, and the state and adjoint at the final control, which
    the second-order certificate reads; projected_gradient(...,
    max_iters=0) gives such a report at a given point.
    """

    def __init__(self, classification, residuals, projected, gradient):
        residuals = np.asarray(residuals, dtype=float).reshape(-1)
        projected = np.asarray(projected, dtype=float).reshape(-1)
        self.classification = list(classification)
        self.residuals = residuals
        self.gradient = np.asarray(gradient, dtype=float).reshape(-1)
        self.aggregate = float(residuals.max()) if residuals.size else 0.0
        self.projected_aggregate = \
            float(projected.max()) if projected.size else 0.0
        self.iterations = 0
        self.history = []
        self.state = None
        self.adjoint = None


class SecondOrderReport:
    """The exact minimum of the second-order form over the critical
    cone, the direction that attains it, and its verdict against
    second_order_check's tolerance; empty flags a cone that holds only
    the zero direction."""

    def __init__(self, minimum, direction, passed, empty):
        self.minimum = float(minimum)
        self.direction = direction
        self.passed = bool(passed)
        self.empty = bool(empty)


def kkt_residual(u, d, bounds):
    """Trichotomy residuals of the first-order conditions at the
    control u with gradient d, both (K,) float arrays.

    A lower-active component needs d_i >= 0, an upper-active one
    d_i <= 0, an interior one d_i = 0; activity is detected within
    _ACTIVE_TOL, and pinned intervals carry zero residual.  The
    projected-gradient residual is reported alongside; it vanishes at
    exactly the same controls.
    """
    dv = np.asarray(d, dtype=float).reshape(-1)
    classification = []
    residuals = np.empty(u.size)
    for i in range(u.size):
        lo, up = bounds.lower[i], bounds.upper[i]
        if up - lo <= _ACTIVE_TOL:
            classification.append("degenerate")
            residuals[i] = 0.0
        elif u[i] <= lo + _ACTIVE_TOL:
            classification.append("lower-active")
            residuals[i] = max(0.0, -dv[i])
        elif u[i] >= up - _ACTIVE_TOL:
            classification.append("upper-active")
            residuals[i] = max(0.0, dv[i])
        else:
            classification.append("interior")
            residuals[i] = abs(dv[i])
    projected = np.abs(u - np.clip(u - dv, bounds.lower, bounds.upper))
    return KKTReport(classification, residuals, projected, dv)


def projected_gradient(instance, mesh, u0, max_iters=200, tol=KKT_TOL):
    """Minimize J over the box from u0, a (K,) float array clipped
    into the box first, by projected Newton (Bertsekas 1982, SIAM J.
    Control Optim. 20); returns the final (K,) control and its report.

    Each iterate steps to u(s) = clamp(u + s p).  A component within
    eps = min(1e-3, w) of a bound that d pushes against, with w the
    projected residual, or on a pinned interval is held in the set I and
    follows p_I = -d_I; the others form F and take the Newton direction
    p_F = -H_FF^-1 d_F from s = 1, with the block H_FF of the reduced
    Hessian built from the state and adjoint the gradient was read from
    (|F| linearized solves).  When the Cholesky of H_FF fails, every
    component joins I, so the step follows -d, from s = 1 / |H|_2, and
    only then is the whole H built (K linearized solves).  Both solve
    their columns to the forcing tolerance eta_k = max(_CG_TOL,
    min(_ETA_MAX, r_k)) of the aggregate residual r_k: an inexact
    Hessian that converges to the exact one keeps the local superlinear
    rate (Dennis and More 1974, Math. Comp. 28), and eta_k -> 0 with
    r_k as in inexact Newton (Dembo, Eisenstat and Steihaug 1982, SIAM
    J. Numer. Anal. 19).  Backtracking
    halves s until J(u) - J(u(s)) >= 1e-4 (s d_F' H_FF^-1 d_F
    + sum_I d_i (u_i - u_i(s))), a bound that is positive away from a
    first-order point even when the clamp cuts the Newton step; a trial
    point whose state solve fails counts as a rejection, and 30
    consecutive rejections abort.  Stops once the aggregate trichotomy
    residual reaches tol (default KKT_TOL), or at max_iters with the
    partial history intact.
    """
    lower, upper = instance.bounds.lower, instance.bounds.upper
    u = np.clip(u0, lower, upper)
    state = solve_state(instance, u, mesh)
    value = evaluate_J(instance, u, state)
    grad, adjoint = evaluate_DJ(instance, u, state)
    history = []
    step = 0.0
    for it in range(max_iters + 1):
        kkt = kkt_residual(u, grad, instance.bounds)
        history.append((value, kkt.aggregate, step))
        if kkt.aggregate <= tol or it == max_iters:
            kkt.iterations, kkt.history = it, history
            kkt.state, kkt.adjoint = state, adjoint
            return u, kkt
        eps = min(_EPSILON, kkt.projected_aggregate)
        held = (lower == upper) \
            | ((u <= lower + eps) & (grad > 0.0)) \
            | ((u >= upper - eps) & (grad < 0.0))
        free = ~held
        eta = max(_CG_TOL, min(_ETA_MAX, kkt.aggregate))
        H = reduced_hessian(instance, state, adjoint, free, tol=eta)
        direction = -grad
        try:
            factor = np.linalg.cholesky(H[np.ix_(free, free)])
        except np.linalg.LinAlgError:
            held[:] = True
            H = reduced_hessian(instance, state, adjoint, tol=eta)
            newton, s = 0.0, 1.0 / np.linalg.norm(H, 2)
        else:
            half = np.linalg.solve(factor, grad[free])
            direction[free] = -np.linalg.solve(factor.T, half)
            newton, s = float(half @ half), 1.0
        rejections = 0
        while True:
            trial = np.clip(u + s * direction, lower, upper)
            trial_state = None
            try:
                trial_state = solve_state(instance, trial, mesh)
                trial_value = evaluate_J(instance, trial, trial_state)
            except RuntimeError:
                trial_value = None
            if trial_value is not None:
                decrease = s * newton + float(np.dot(
                    grad[held], u[held] - trial[held]))
                if trial_value <= value - _ARMIJO * decrease:
                    break
            rejections += 1
            if rejections >= _MAX_REJECTIONS:
                raise RuntimeError("line search failed")
            s *= 0.5
        u, state, value, step = trial, trial_state, trial_value, s
        grad, adjoint = evaluate_DJ(instance, u, state)
    raise AssertionError("unreachable")


def _unblocked(kkt):
    """Indices the critical cone of kkt leaves free: not on a pinned
    interval and with |d_i| <= KKT_TOL."""
    d = kkt.gradient
    return np.array([i for i, c in enumerate(kkt.classification)
                     if c != "degenerate" and abs(d[i]) <= KKT_TOL],
                    dtype=int)


def _face_solutions(block, sign):
    """Stationary points x of the faces whose Hessian blocks H_SS are
    the (N, m, m) array block and whose signs s_S the (N, m) array sign:
    the x part of [[D H_SS D, 1], [1', 0]] [x; lam] = [0; 1], one row
    per face, and a row of NaN for a singular system.  One stacked
    solve serves all N faces; if one of them is singular, each face is
    solved alone, so a face is skipped exactly when its own solve
    fails."""
    n, m = sign.shape
    system = np.ones((n, m + 1, m + 1))
    system[:, :m, :m] = sign[:, :, None] * block * sign[:, None, :]
    system[:, m, m] = 0.0
    rhs = np.zeros((n, m + 1, 1))
    rhs[:, m] = 1.0
    try:
        return np.linalg.solve(system, rhs)[:, :m, 0]
    except np.linalg.LinAlgError:
        x = np.full((n, m), np.nan)
    for j in range(n):
        try:
            x[j] = np.linalg.solve(system[j], rhs[j])[:m, 0]
        except np.linalg.LinAlgError:
            continue
    return x


def critical_cone_minimum(H, kkt):
    """Exact minimum of h' H h over the critical cone of the KKTReport
    kkt with |h|_1 = 1, returned as (value, h); an empty cone gives 0
    and the zero direction.

    The cone is read from the report's classification and gradient d
    at a first-order point within KKT_TOL (an aggregate residual above
    it raises ValueError): components with |d_i| > KKT_TOL or a pinned
    interval are blocked, lower-active ones take the signs {0, +},
    upper-active ones {0, -} and interior ones {0, +, -}.  On the
    support S of a sign pattern, with D = diag(s_S), the form is a
    quadratic over the standard simplex, whose minimizer is the
    positive stationary point of some face:
    [[D H_SS D, 1], [1', 0]] [x; lam] = [0; 1] with x > 0.  Every face
    is solved, at most 3^m - 1 for m unblocked components: the patterns
    are taken _FACE_BATCH at a time in itertools.product order, and the
    faces of one support size among them are solved in one stacked
    call.  A singular system is skipped: a null vector (v, mu) has
    1'v = 0 and leaves the form constant along v, so its minimum recurs
    on a smaller face.  Only a strictly smaller value, or an equal one
    of an earlier pattern, replaces the best, so the direction is the
    first minimizer in pattern order.

    A pattern whose support is all interior and whose first nonzero
    sign is - is skipped: its mirror -s is a pattern too, earlier in
    product order, and D H_SS D is the same matrix for both, so the
    mirror's x is the same, its h is -h and its value the same bit for
    bit.  At an interior optimum that halves the faces.
    """
    if kkt.aggregate > KKT_TOL:
        raise ValueError("critical cone requires a first-order point")
    signs = {"lower-active": (0.0, 1.0), "upper-active": (0.0, -1.0),
             "interior": (0.0, 1.0, -1.0)}
    cls, dv = kkt.classification, kkt.gradient
    free = _unblocked(kkt)
    if free.size == 0:
        return 0.0, np.zeros(dv.size)
    choices = [np.array(signs[cls[i]]) for i in free]
    active = np.array([cls[i] != "interior" for i in free])
    shape = [c.size for c in choices]
    count = math.prod(shape)
    best, best_rank, best_h = np.inf, count, None
    # pattern 0 is the all-zero one, with no face
    for start in range(1, count, _FACE_BATCH):
        ranks = np.arange(start, min(start + _FACE_BATCH, count))
        patterns = np.column_stack([
            c[pick] for c, pick in zip(choices,
                                       np.unravel_index(ranks, shape))])
        nonzero = patterns != 0.0
        first = patterns[np.arange(ranks.size), np.argmax(nonzero, axis=1)]
        keep = (first > 0.0) | np.any(nonzero & active, axis=1)
        patterns, ranks = patterns[keep], ranks[keep]
        sizes = np.count_nonzero(patterns, axis=1)
        for m in np.flatnonzero(np.bincount(sizes)):
            group = sizes == m
            rows, group_ranks = patterns[group], ranks[group]
            support = np.nonzero(rows)[1].reshape(-1, m)
            sign = rows[rows != 0.0].reshape(-1, m)
            idx = free[support]
            x = _face_solutions(H[idx[:, :, None], idx[:, None, :]], sign)
            for j in np.flatnonzero(np.all(x > 0.0, axis=1)):
                h = np.zeros(dv.size)
                h[idx[j]] = sign[j] * x[j] / np.sum(x[j])
                value = float(h @ H @ h)
                if value < best or (value == best
                                    and group_ranks[j] < best_rank):
                    best, best_rank, best_h = value, group_ranks[j], h
    return best, best_h


def second_order_check(instance, kkt):
    """Certify D2J[h, h] = h' H h >= -tol on the whole critical cone at
    the final control of the optimizer's report kkt, with the reduced
    K x K Hessian H built once from the report's state and adjoint and
    its exact cone minimum.  Cone directions vanish on blocked
    components, so H is built only on the unblocked ones (one
    linearized solve each).

    The report's gradient and classification fix the cone and its final
    J sets tol = 1e-8 * (1 + |J|).  Raises ValueError unless the report
    is at a first-order point within KKT_TOL.
    """
    tol = 1e-8 * (1.0 + abs(kkt.history[-1][0]))
    H = reduced_hessian(instance, kkt.state, kkt.adjoint,
                        _unblocked(kkt))
    minimum, direction = critical_cone_minimum(H, kkt)
    return SecondOrderReport(minimum, direction, minimum >= -tol,
                             empty=not np.any(direction))
