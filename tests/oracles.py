"""Independent reference computations shared by the test modules.

Everything here deliberately avoids the code paths under test:
eigenvalues come from characteristic polynomial roots (Faddeev-LeVerrier)
rather than an SVD, water levels and unit prices from plain bisection,
two-budget water-filling from nested bisection on the two prices, the
best time split from scalar golden-section search.  The augmented
Lagrangian penalty of the balanced form, its gradient and the two
constraint residuals are written over the full primal vector
``[alpha, mu (n), s1, s2]``, residuals by plain subtraction, where the
solver eliminates the slacks in closed form.

:func:`sorted_waterfill` is the scan reference of the water-filling
oracle.  The oracle reads its allocation off Dinkelbach's last step, or
at a clipped time split off Newton roots in the two budget prices; this
reference solves fixed time splits with sorted water levels and a root
in the ratio of the two prices instead, so the scan tests compare two
algorithms rather than one with itself.  It solves a whole array of
splits in one set of array operations, which keeps the scans cheap.
"""

from __future__ import annotations

import math

import numpy as np

# Rounding level at which the price-ratio root stops: relative step or bracket, absolute f.
_ROOT_RTOL = 4.0 * np.finfo(float).eps
# Cap on steps per price-ratio root, past which it raises; seeded stress runs stop within 30.
_ROOT_STEPS = 200


def charpoly_eigenvalues(hermitian: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix via characteristic polynomial roots.

    Coefficients come from the Faddeev-LeVerrier recursion (only matrix
    products and traces), roots from numpy's companion-matrix solver.
    Returns real parts sorted in descending order.
    """
    n = hermitian.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(hermitian)
    for k in range(1, n + 1):
        m = hermitian @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(hermitian @ m) / k
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


def waterfill_bisection(a: np.ndarray, budget: float = 1.0) -> np.ndarray:
    """Textbook single-budget water-filling by bisection on the level.

    Maximizes ``sum ln(1 + a mu)`` subject to ``sum mu <= budget``.
    """
    a = np.asarray(a, dtype=float)
    assert (a > 0).all()

    def used(level: float) -> float:
        return float(np.maximum(level - 1.0 / a, 0.0).sum())

    lo, hi = 0.0, budget + float((1.0 / a).max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if used(mid) > budget:
            hi = mid
        else:
            lo = mid
    return np.maximum(0.5 * (lo + hi) - 1.0 / a, 0.0)


def unit_price_bisection(x: np.ndarray, a: np.ndarray) -> float:
    """The least ``p >= 0`` with ``sum max(0, 1 / (x + p) - 1 / a) <= 1``, by bisection.

    The usage falls as ``p`` rises, and every channel is off from
    ``p = max(a)`` on, so ``[0, max(a)]`` brackets the price.  Halves
    the bracket until it stops shrinking and returns its upper end.
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)

    def used(p: float) -> float:
        with np.errstate(divide="ignore"):
            return float(np.maximum(1.0 / (x + p) - 1.0 / a, 0.0).sum())

    if used(0.0) <= 1.0:
        return 0.0
    lo, hi = 0.0, float(a.max())
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if used(mid) > 1.0:
            lo = mid
        else:
            hi = mid


def random_feasible_points(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Uniformly scaled random points with ``sum mu <= 1`` and ``mu >= 0``."""
    raw = rng.random((count, n))
    scale = rng.random((count, 1))
    return raw / raw.sum(axis=1, keepdims=True) * scale


def two_budget_nested_bisection(a: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Water-filling with both unit budgets tight, by nested bisection.

    Prices the two budgets with duals ``(p1, p2)`` so that
    ``mu_n = max(0, 1 / (p1 + p2 cost_n) - 1 / a_n)``.  For a given
    ``p2`` the unit budget pins ``p1`` by a scalar bisection; an outer
    bisection on ``p2`` closes the cost budget.  Both residuals are
    monotone in their dual, so 80 halvings of each reach floating-point
    resolution.  Needs ``a > 0`` and an instance where neither
    single-budget solution satisfies the other budget.
    """
    a = np.asarray(a, dtype=float)
    cost = np.asarray(cost, dtype=float)

    def mu_at(p1: float, p2: float) -> np.ndarray:
        return np.clip(1.0 / (p1 + p2 * cost) - 1.0 / a, 0.0, None)

    def p1_for(p2: float) -> float:
        # Root of sum(mu) = 1 in p1; sum decreases from its p1=0 value.
        if float(mu_at(0.0, p2).sum()) <= 1.0:
            return 0.0
        lo, hi = 0.0, float(a.size) + 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if float(mu_at(mid, p2).sum()) > 1.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def cost_usage(p2: float) -> float:
        return float(cost @ mu_at(p1_for(p2), p2))

    lo, hi = 0.0, float(np.max(a / cost)) + 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cost_usage(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    p2 = 0.5 * (lo + hi)
    return mu_at(p1_for(p2), p2)


def two_budget_kkt_residual(a: np.ndarray, cost: np.ndarray, mu: np.ndarray) -> float:
    """KKT residual of ``max sum ln(1+a mu)`` under the two unit budgets.

    Prices only the budgets that are tight (used to within 1e-9); a
    slack budget's price is 0.  The prices are fitted by least squares
    on the active set, each channel's stationarity row divided by its
    marginal, so the fit minimizes the same relative misfit the residual
    reports however many decades the costs span.  The residual measures
    stationarity and dual feasibility.  Returns the largest violation
    found (0 means exact).
    """
    a = np.asarray(a, dtype=float)
    cost = np.asarray(cost, dtype=float)
    mu = np.asarray(mu, dtype=float)
    res = 0.0
    res = max(res, float(mu.sum()) - 1.0, float(cost @ mu) - 1.0, float(-(mu.min())) if mu.size else 0.0)

    marginal = a / (1.0 + a * mu)  # d/dmu of ln(1 + a mu)
    active = mu > 1e-12
    if not active.any():
        return res
    tight1 = abs(float(mu.sum()) - 1.0) <= 1e-9
    tight2 = abs(float(cost @ mu) - 1.0) <= 1e-9
    y1 = y2 = 0.0
    if tight1 and (not tight2 or int(active.sum()) == 1):
        # With one active channel either price alone fits it; use the unit one.
        y1 = float(marginal[active].mean())
    elif tight2 and not tight1:
        y2 = float(marginal[active] @ cost[active] / (cost[active] @ cost[active]))
    elif tight1 and tight2:
        # Solve (y1 + y2 cost) / marginal = 1 on actives in the least-squares sense.
        m = marginal[active]
        design = np.stack([1.0 / m, cost[active] / m], axis=1)
        (y1, y2), *_ = np.linalg.lstsq(design, np.ones(m.size), rcond=None)
    y1 = max(float(y1), 0.0)
    y2 = max(float(y2), 0.0)
    stat = np.abs(marginal[active] - (y1 + y2 * cost[active])) / np.maximum(marginal[active], 1e-30)
    res = max(res, float(stat.max()))
    inactive = ~active
    if inactive.any():
        # Inactive channels must not want power at these prices.
        gap = marginal[inactive] - (y1 + y2 * cost[inactive])
        res = max(res, float(gap.max() / max(1.0, np.abs(marginal[inactive]).max())))
    return res


def sorted_waterfill(alpha: np.ndarray, problem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal power fractions for each of several fixed time splits, by sorted water levels.

    Maximizes ``sum log2(1 + a mu)`` subject to ``sum mu <= 1`` and
    ``sum cost mu <= 1`` with ``cost_n = a_n (1 - alpha) / (2 alpha b_n)``,
    then recovers ``mu_bar = cost * mu``.  Subchannels with a zero
    coefficient on either hop are switched off.

    ``alpha`` must be a 1-D array of time splits in ``(0, 1)``; row ``i``
    of ``(mu, mu_bar, rates)`` solves ``alpha[i]``, with the same bits as
    a 1-element call.  The unit-budget solution does not depend on
    ``alpha``, so it is computed once.  Rows where it overspends the cost
    budget take the cost-budget solution, whose sort order
    (``theta = 1 / (g b)``) is the same for every ``alpha``.  Rows where
    that in turn overspends the unit budget go to
    :func:`_waterfill_two_budgets` together, a root in the ratio of the
    two budgets' prices (the one-ratio idea of Palomar & Fonollosa, IEEE
    TSP 53(2), 2005).

    Every row meets both budgets to rounding: the branches test against
    the budgets exactly, and may still leave an overspend (``level / cost
    - 1 / a`` cancels where the cost is large, and the price-ratio root
    stops on the resolution of its ratio), so each row is divided once,
    on the way out, by ``max(1, sum mu, sum cost mu)``.
    """
    alphas = np.asarray(alpha, dtype=float)
    if alphas.ndim != 1 or not ((alphas > 0.0) & (alphas < 1.0)).all():
        raise ValueError("alpha must be a 1-D array, each in (0, 1)")
    a = problem.a_coeffs
    b = problem.b_coeffs
    ok = problem.live
    if ok.all():
        return _waterfill_live(alphas, a, b, problem)
    mu = np.zeros((alphas.size, a.size))
    mu_bar = np.zeros_like(mu)
    rates = np.zeros(alphas.size)
    if ok.any():
        mu[:, ok], mu_bar[:, ok], rates = _waterfill_live(alphas, a[ok], b[ok], problem)
    return mu, mu_bar, rates


def _waterfill_live(
    alphas: np.ndarray, a: np.ndarray, b: np.ndarray, problem
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`sorted_waterfill`'s ``(mu, mu_bar, rates)`` for pairs with ``a > 0`` and ``b > 0``."""
    g = 2.0 * alphas / (1.0 - alphas)
    cost = a / (g[:, None] * b)
    inv_a = 1.0 / a
    ks = _ranks(a.size)

    theta = inv_a[None, :]
    unit, _ = _waterfill_single(theta, np.sort(theta, axis=1), 1.0, inv_a, ks)
    mu = np.repeat(unit, alphas.size, axis=0)
    over = np.flatnonzero(cost @ unit[0] > 1.0)
    if over.size:
        # One order for every row, that of 1 / b, as cost / a = 1 / (g b); the
        # rounded quotients need not sort exactly alike, and their order sets the bits.
        cost_over = cost[over]
        theta = cost_over / a
        theta_s = theta[:, np.argsort(1.0 / b, kind="stable")]
        mu_over, _ = _waterfill_single(theta, theta_s, cost_over, inv_a, ks)
        mu[over] = mu_over
        both = mu_over.sum(axis=1) > 1.0
        if both.any():
            rows = over[both]
            mu[rows] = _waterfill_two_budgets(a, cost_over[both])

    mu /= np.maximum(1.0, np.maximum(mu.sum(axis=1), (cost * mu).sum(axis=1)))[:, None]
    logs = np.sum(np.log2(1.0 + a * mu), axis=1)
    rates = (1.0 - alphas) * problem.bandwidth_hz / (2.0 * problem.k_subcarriers) * logs
    return mu, cost * mu, rates


def _ranks(n: int) -> np.ndarray:
    """``1, 2, ..., n`` as floats: the size of each prefix of a sorted row."""
    return np.arange(1, n + 1, dtype=float)


def _waterfill_single(
    theta: np.ndarray, theta_s: np.ndarray, cost, inv_a: np.ndarray, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact water-filling under one budget ``sum cost mu <= 1``, per row.

    Maximizes ``sum ln(1 + a mu)`` for each row of ``cost``; the water
    level over the active set has the closed form
    ``L_k = (1 + sum theta) / k`` with ``theta = cost / a`` taken in
    ascending order.  ``theta_s`` is each row of ``theta`` sorted
    ascending, ``inv_a = 1 / a`` and ``ks = _ranks(n)``; ``a`` is one row
    for every row of ``cost`` or one per row, and ``cost`` may be the
    scalar 1 (the unit budget).

    Returns ``(mu, level)``, with ``mu = max(0, level / cost - 1 / a)``
    where ``theta < level`` (the active set) and 0 elsewhere; ``level``
    is a column.
    """
    levels = (1.0 + np.cumsum(theta_s, axis=1)) / ks
    # The last rank whose level clears its theta (rank 0 always does):
    # ks grows along the row, so that is where the masked ks peaks.
    last = np.argmax((levels > theta_s) * ks, axis=1)
    level = levels[np.arange(levels.shape[0]), last][:, None]
    mu = np.maximum(level / cost - inv_a, 0.0) * (theta < level)
    return mu, level


def _waterfill_two_budgets(a: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Water-filling with both budgets tight, for each row of ``cost``.

    With both budgets tight their prices are ``(p1, p2) = lam (1 - s, s)``
    for some ``s`` in ``[0, 1]``, so that
    ``mu_n = max(0, 1 / (lam w_n) - 1 / a_n)`` with the blended cost
    ``w = (1 - s) + s cost``.  At a fixed ``s`` this is the single-budget
    water-filling of :func:`_waterfill_single` under
    ``sum w mu = (1 - s) sum mu + s sum cost mu <= 1``, so both budgets
    are tight exactly where ``f(s) = sum (cost - 1) mu(s)`` is zero.

    ``f`` changes sign once.  The usage ``u = (sum mu, sum cost mu)`` at
    prices ``p`` is minus the gradient of the convex dual function, so
    ``(p - q) . (u(p) - u(q)) <= 0``; along the ray family above, with
    ``s1 < s2``, this reads ``lam(s1) f(s2) <= lam(s2) f(s1)``.  Once
    ``f`` is at most zero it stays there.  The rows given here have
    ``f(0) > 0`` (the unit-budget solution overspends the cost budget)
    and ``f(1) < 0`` (the cost-budget solution overspends the unit
    budget), so ``[0, 1]`` brackets the root.

    Where ``f(1/2) > 0`` the root lies above ``1/2``, and ``1 - s``
    would carry too few digits there.  Those rows swap the budgets
    (``nu = cost mu`` with gains ``a / cost`` and costs ``1 / cost``),
    which maps ``s`` to ``1 - s``, so every root is sought in
    ``[0, 1/2]`` by :func:`_price_ratio_root`, from Newton's step off
    ``1/2``.
    """
    d = cost - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        _, f, slope = _blend(np.full(cost.shape[0], 0.5), a, cost, 1.0 / a, d, d / a, _ranks(cost.shape[1]))
        # The swap negates f but keeps its slope, so Newton's step from 1/2
        # lands at 1/2 - |f / slope| either way.
        start = 0.5 - np.abs(f / slope)
    swap = (f > 0.0)[:, None]
    start = np.where((slope < 0.0) & (start > 0.0), start, 0.25)
    gains = np.where(swap, a / cost, a)
    costs = np.where(swap, 1.0 / cost, cost)
    mu = _price_ratio_root(gains, costs, start)
    return np.where(swap, mu / cost, mu)


def _price_ratio_root(a: np.ndarray, cost: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Solution at the root of ``f`` in ``[0, 1/2]``, for each row of ``a`` and ``cost``.

    Takes Newton steps on ``f`` from ``start``, whose derivative over the
    current active set is closed-form, kept inside the bracket: a step
    that leaves it, or does not halve the previous step, is replaced by
    bisection.  Each step costs one sort per row; a row stops when ``f``,
    the Newton step or the bracket is down to rounding, and leaves the
    batch then.  Raises ``RuntimeError`` if a row has not stopped after
    ``_ROOT_STEPS`` steps.
    """
    out = np.empty(cost.shape)
    rows = np.arange(cost.shape[0])
    ks = _ranks(cost.shape[1])
    inv_a = 1.0 / a
    d = cost - 1.0
    d_a = d / a
    s = start
    lo = np.zeros(rows.size)
    hi = np.full(rows.size, 0.5)
    last_step = np.full(rows.size, 0.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROOT_STEPS):
            mu, f, slope = _blend(s, a, cost, inv_a, d, d_a, ks)
            above = f > 0.0
            lo = np.where(above, s, lo)
            hi = np.where(above, hi, s)
            newton = np.where(slope < 0.0, -f / slope, np.inf)
            landing = s + newton
            size = np.abs(newton)
            take = (size <= 0.5 * last_step) & (lo < landing) & (landing < hi)
            step = np.where(take, newton, 0.5 * (lo + hi) - s)
            done = (np.abs(f) <= _ROOT_RTOL) | (size <= _ROOT_RTOL * s) | (hi - lo <= _ROOT_RTOL * hi)
            if done.any():
                out[rows[done]] = mu[done]
                if done.all():
                    return out
            s = s + step
            last_step = np.abs(step)
            if done.any():
                live = ~done
                rows, s, lo, hi, last_step = rows[live], s[live], lo[live], hi[live], last_step[live]
                a, cost, inv_a, d, d_a = a[live], cost[live], inv_a[live], d[live], d_a[live]
    raise RuntimeError(f"price-ratio root did not converge in {_ROOT_STEPS} steps")


def _blend(
    s: np.ndarray,
    a: np.ndarray,
    cost: np.ndarray,
    inv_a: np.ndarray,
    d: np.ndarray,
    d_a: np.ndarray,
    ks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-budget solution at blend ``s`` per row, with ``f(s)`` and ``df/ds``.

    On the active set ``S``, ``mu = L / w - 1 / a`` with the level
    ``L = (1 + sum_S w / a) / |S|`` and ``dw / ds = cost - 1``.  The
    caller passes ``inv_a = 1 / a``, ``d = cost - 1``, ``d_a = d / a`` and
    ``ks = _ranks(n)``, which do not depend on ``s``.
    """
    w = (1.0 - s)[:, None] + s[:, None] * cost
    theta = w / a
    mu, level = _waterfill_single(theta, np.sort(theta, axis=1), w, inv_a, ks)
    f = (d * mu).sum(axis=1)
    # 1 on the active set and 0 off it; a float mask multiplies as a bool one would.
    on = (mu > 0.0).astype(float)
    dlevel = (d_a * on).sum(axis=1) / np.maximum(on.sum(axis=1), 1.0)
    slope = (d * (dlevel[:, None] - level * d / w) / w * on).sum(axis=1)
    return mu, f, slope


def golden_section_max(fun, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of a scalar ``fun`` on ``[lo, hi]``.

    Shrinks the bracket until it is at most ``tol`` wide, one evaluation
    per step, and returns the better of the last two interior points as
    ``(x, fun(x))``.  Assumes ``fun`` is unimodal on the bracket.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1 = fun(x1)
    f2 = fun(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo = x1
            x1, f1 = x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fun(x2)
        else:
            hi = x2
            x2, f2 = x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fun(x1)
    if f1 >= f2:
        return x1, f1
    return x2, f2


def pack_point(alpha: float, mu, s1: float, s2: float) -> np.ndarray:
    """Flatten the primal variables into a single vector."""
    mu = np.asarray(mu, dtype=float)
    return np.concatenate([[float(alpha)], mu, [float(s1), float(s2)]])


def unpack_point(x: np.ndarray, n_pairs: int):
    """Inverse of :func:`pack_point`."""
    alpha = float(x[0])
    mu = x[1 : 1 + n_pairs]
    s1 = float(x[1 + n_pairs])
    s2 = float(x[2 + n_pairs])
    return alpha, mu, s1, s2


def relay_ratio(alpha: float, problem) -> np.ndarray:
    """Relay power per unit of source power that balances each pair's hops."""
    return problem.a_coeffs * (1.0 - alpha) / (2.0 * alpha * problem.b_coeffs)


def violation(x: np.ndarray, problem) -> np.ndarray:
    """Constraint residuals ``[budget1, budget2]`` of the balanced form.

    Each is ``sum + slack - 1``, budget 2 over the balanced relay powers
    ``mu_bar = a mu (1 - alpha) / (2 alpha b)``.
    """
    alpha, mu, s1, s2 = unpack_point(x, problem.n_pairs)
    mu_bar = relay_ratio(alpha, problem) * mu
    return np.array([mu.sum() + s1 - 1.0, mu_bar.sum() + s2 - 1.0])


def penalty_value(x: np.ndarray, nu: np.ndarray, sigma: np.ndarray, problem) -> float:
    """Augmented Lagrangian penalty function (to be minimized).

    Objective part is the negated rate ``(alpha - 1) B / (2K) * sum
    log2(1 + a mu)``; each constraint contributes ``-nu c + sigma c^2 / 2``.

    Raises:
        ValueError: at ``alpha >= 1`` where the time-split factor blows up.
    """
    alpha, mu, _, _ = unpack_point(x, problem.n_pairs)
    if alpha >= 1.0:
        raise ValueError("alpha must be < 1")
    c = violation(x, problem)
    prefactor = (alpha - 1.0) * problem.bandwidth_hz / (2.0 * problem.k_subcarriers)
    obj = prefactor * float(np.sum(np.log2(1.0 + problem.a_coeffs * mu)))
    return obj + float(np.sum(-nu * c + 0.5 * sigma * c * c))


def penalty_gradient(x: np.ndarray, nu: np.ndarray, sigma: np.ndarray, problem) -> np.ndarray:
    """Analytic gradient of :func:`penalty_value` w.r.t. the primal vector.

    The ``alpha`` component collects both the objective prefactor and the
    chain term of budget 2, whose relay powers fall with ``alpha`` as
    ``d/dalpha [(1 - alpha) / alpha] = -1 / alpha^2``.
    """
    n = problem.n_pairs
    alpha, mu, _, _ = unpack_point(x, n)
    if alpha >= 1.0:
        raise ValueError("alpha must be < 1")
    a = problem.a_coeffs
    b = problem.b_coeffs
    c = violation(x, problem)
    p1, p2 = -nu + sigma * c  # d(penalty terms)/dc, per constraint

    scale = problem.bandwidth_hz / (2.0 * problem.k_subcarriers)
    grad = np.zeros_like(x)
    ratio = relay_ratio(alpha, problem)
    d_ratio = -a / (2.0 * b * alpha**2)  # d/dalpha of the balancing relay ratio
    grad[0] = scale * float(np.sum(np.log2(1.0 + a * mu))) + p2 * float(np.sum(d_ratio * mu))
    grad[1 : 1 + n] = (alpha - 1.0) * scale / math.log(2.0) * a / (1.0 + a * mu) + p1 + p2 * ratio
    grad[1 + n] = p1
    grad[2 + n] = p2
    return grad
