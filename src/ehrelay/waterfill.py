"""Independent reference solver for the reduced rate problem.

For a fixed time split ``alpha`` the pair-balance equalities pin the
relay-side fractions to ``mu_bar = cost * mu`` with
``cost_n = a_n / (g b_n)`` and ``g = 2 alpha / (1 - alpha)``, so the
problem collapses to water-filling over ``mu`` under the two linear
budgets ``sum mu <= 1`` and ``sum cost mu <= 1``.  When one budget
binds, the solution is the closed-form water level over channels sorted
by ``cost / a``.  When both bind, their prices are ``lam (1 - s, s)``
and a one-dimensional root in the price ratio ``s`` closes both, each
step being one single-budget water level (the one-ratio idea of Palomar
& Fonollosa, IEEE TSP 53(2), 2005).

One evaluator, :func:`inner_waterfill`, solves a 1-D array of ``alpha``
values as array operations, and gives each row's slope ``dR/dalpha``
from the cost budget's price by the envelope theorem.  :func:`solve`
calls it once on a fixed 199-point grid and once per 25-point zoom round
across the slope's root, stops at a 1e-6 interval in ``alpha`` (not the
rate), and returns the best row it has seen as that call solved it.

It shares only the problem with the augmented Lagrangian optimizer:
:class:`~ehrelay.system.ReducedProblem` and its time-split box, both
from :mod:`ehrelay.system`.  The solution path (sorted water levels and
a root in the price ratio) and the rate formula are its own, which is
what makes it usable as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ehrelay.system import ALPHA_MAX, ALPHA_MIN, ReducedProblem

__all__ = ["OracleSolution", "inner_waterfill", "solve"]

_FEAS_SLACK = 1e-12
# Rounding level at which the price-ratio root stops: relative step or bracket, absolute f.
_ROOT_RTOL = 4.0 * np.finfo(float).eps
# Cap on steps per root, past which it raises; seeded stress runs stop within 30.
_ROOT_STEPS = 200
# Time splits of the first grid; their count is the oracle's CSV mean_iterations.
_GRID_POINTS = 199
# Time splits per zoom round: a uniform round narrows the slope's sign-change
# interval 24-fold, a round across the interpolated root to about a twelfth
# of three times the root's error estimate.
_ZOOM_POINTS = 25
# Sign-change interval width in alpha, not in the rate, at which the zoom rounds stop.
_REFINE_TOL = 1e-6
# Half-width of a round, in multiples of the root's error estimate.
_SPREAD = 3.0
# A slope jumping this many times faster than beside it marks a kink of the rate.
_KINK = 4.0


@dataclass(frozen=True)
class OracleSolution:
    """Best allocation found by grid search plus zoom rounds."""

    alpha_star: float
    mu_star: np.ndarray
    mu_bar_star: np.ndarray
    rate_star: float
    alpha_grid_profile: tuple[tuple[float, float], ...]


def inner_waterfill(
    alpha: np.ndarray, problem: ReducedProblem
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Optimal power fractions for each of several fixed time splits.

    Maximizes ``sum log2(1 + a mu)`` subject to ``sum mu <= 1`` and
    ``sum cost mu <= 1`` with ``cost_n = a_n (1 - alpha) / (2 alpha b_n)``,
    then recovers ``mu_bar = cost * mu`` so the per-pair SNR balance holds
    exactly by construction.  Subchannels with a zero coefficient on
    either hop are switched off.

    ``alpha`` must be a 1-D array of time splits in ``(0, 1)``; row ``i``
    of ``(mu, mu_bar, rates, slopes)`` solves ``alpha[i]``, with the same
    bits as a 1-element call.  The unit-budget solution does not depend on
    ``alpha``, so it is computed once.  Rows where it overspends the cost
    budget take the cost-budget solution, whose sort order
    (``theta = 1 / (g b)``) is the same for every ``alpha``.  Rows where
    that in turn overspends the unit budget go to
    :func:`_waterfill_two_budgets` together.

    Only the cost budget moves with ``alpha``, as
    ``d cost / d alpha = -cost / (alpha (1 - alpha))``, so by the envelope
    theorem the slope of the rate is
    ``W / ln 2 * (p2 sum cost mu / alpha - sum ln(1 + a mu))`` with
    ``W = bandwidth / (2K)`` and ``p2`` the cost budget's price for
    ``sum ln(1 + a mu)``: 0 on unit-budget rows, ``1 / level`` on
    cost-budget rows.
    """
    alphas = np.asarray(alpha, dtype=float)
    if alphas.ndim != 1 or not ((alphas > 0.0) & (alphas < 1.0)).all():
        raise ValueError("alpha must be a 1-D array, each in (0, 1)")
    a = problem.a_coeffs
    b = problem.b_coeffs
    ok = (a > 0.0) & (b > 0.0)
    if ok.all():
        return _waterfill_live(alphas, a, b, problem)
    mu = np.zeros((alphas.size, a.size))
    mu_bar = np.zeros_like(mu)
    rates = np.zeros(alphas.size)
    slopes = np.zeros(alphas.size)
    if ok.any():
        mu[:, ok], mu_bar[:, ok], rates, slopes = _waterfill_live(alphas, a[ok], b[ok], problem)
    return mu, mu_bar, rates, slopes


def solve(problem: ReducedProblem) -> OracleSolution:
    """Grid search over the time split, refined by zoom rounds placed by the slope.

    Round 0 solves 199 uniform values of ``alpha`` in one
    :func:`inner_waterfill` call.  The slope of the rate changes sign
    next to the best row seen; each later round solves 25 values, in one
    call, across the root of the slope that :func:`_slope_root`
    interpolates inside that sign-change interval, spanning three times
    its error estimate and at least 2.5e-7 on each side.  A round that
    misses the root leaves the rest of the interval; an interval that
    shrank less than twelvefold in the last round, or that ends a round's
    rows, gets 25 uniform values instead.  At a box edge where the slope
    points out, there is no sign change and the edge row stands.  Rounds
    stop once the interval is narrower than 1e-6 (1.6e-9 at a kink) or no
    longer shrinks, and the best row seen is returned as it was solved,
    with no further call.

    The 1e-6 bounds the error in ``alpha``, not in the rate.  Where the
    curvature is large (small ``alpha*``) or the optimum sits on a kink
    (both budgets leaving the active set at one ``alpha``), the returned
    rate can lie a few 1e-9 relative below the optimum.
    """
    alphas = np.linspace(ALPHA_MIN, ALPHA_MAX, _GRID_POINTS)
    mu, mu_bar, rates, slopes = inner_waterfill(alphas, problem)
    profile = tuple(zip(alphas.tolist(), rates.tolist()))
    x, r, s = alphas, rates, slopes
    best_rate = -math.inf
    width = math.inf
    while True:
        i = int(np.argmax(rates))
        if rates[i] > best_rate:
            best_alpha, best_rate = float(alphas[i]), float(rates[i])
            # Copies, so that no round's whole batch outlives the round.
            best_mu, best_mu_bar = mu[i].copy(), mu_bar[i].copy()
        # (x, r, s): the grid, or the last round's rows between the ends of the interval it zoomed.
        k = int(np.argmax(r))
        j = k if s[k] > 0.0 else k - 1
        if s[k] == 0.0 or not 0 <= j < x.size - 1:
            break
        lo, hi = x[j], x[j + 1]
        centre, spread, kink = lo, math.inf, False
        if s[j] > 0.0 >= s[j + 1] and 0 < j < x.size - 2:
            centre, spread, kink = _slope_root(x, r, s, j)
        # The rate falls off a kink linearly, not quadratically, in alpha, so a
        # kink's rounds go on until a middle row lands on the tangents' meeting point.
        if hi - lo >= width or hi - lo <= (_REFINE_TOL / _ZOOM_POINTS**2 if kink else _REFINE_TOL):
            break
        half = max(_SPREAD * spread, 0.25 * _REFINE_TOL) if hi - lo <= width / 12.0 else math.inf
        width = hi - lo
        alphas = np.linspace(max(lo, centre - half), min(hi, centre + half), _ZOOM_POINTS)
        mu, mu_bar, rates, slopes = inner_waterfill(alphas, problem)
        inside = (alphas > lo) & (alphas < hi)
        x, r, s = (np.r_[u[j], v[inside], u[j + 1]] for u, v in ((x, alphas), (r, rates), (s, slopes)))

    return OracleSolution(
        alpha_star=best_alpha,
        mu_star=best_mu,
        mu_bar_star=best_mu_bar,
        rate_star=best_rate,
        alpha_grid_profile=profile,
    )


def _slope_root(x: np.ndarray, r: np.ndarray, s: np.ndarray, j: int) -> tuple[float, float, bool]:
    """Root of the slope ``s`` between rows ``j`` and ``j + 1``, with an error estimate.

    ``x`` is increasing, ``s[j] > 0 >= s[j + 1]``, and rows ``j - 1`` and
    ``j + 2`` exist.  Where the slope falls across the interval over
    ``_KINK`` times as fast as it changes beside it, the rate has a kink
    there: the root is where the rate's tangents at the two rows meet,
    off by at most what the slope's change beside the interval bends
    them.  Elsewhere the secant root is moved by the mean of the
    curvature terms of the two three-row fits, and the larger term is the
    error estimate.  Returns ``(root, error, kink)``.
    """
    lo, hi = x[j], x[j + 1]
    xs = x[j - 1 : j + 3]
    # The slope's secants beside, across and beside the interval.
    d = np.diff(s[j - 1 : j + 3]) / np.diff(xs)
    beside = max(abs(d[0]), abs(d[2]))
    if _KINK * beside < -d[1]:
        return lo + (s[j + 1] - (r[j + 1] - r[j]) / (hi - lo)) / d[1], beside * (lo - hi) / d[1], True
    secant = lo - s[j] / d[1]
    shifts = np.diff(d) / (xs[2:] - xs[:2]) * (secant - lo) * (secant - hi) / -d[1]
    return secant + shifts.mean(), abs(shifts).max(), False


def _waterfill_live(
    alphas: np.ndarray, a: np.ndarray, b: np.ndarray, problem: ReducedProblem
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`inner_waterfill`'s ``(mu, mu_bar, rates, slopes)`` for pairs with ``a > 0`` and ``b > 0``."""
    g = 2.0 * alphas / (1.0 - alphas)
    cost = a / (g[:, None] * b)
    inv_a = 1.0 / a
    ks = _ranks(a.size)

    theta = inv_a[None, :]
    unit, _ = _waterfill_single(theta, np.sort(theta, axis=1), 1.0, inv_a, ks)
    mu = np.repeat(unit, alphas.size, axis=0)
    price = np.zeros(alphas.size)  # the cost budget's, for sum ln(1 + a mu)
    over = np.flatnonzero(cost @ unit[0] > 1.0 + _FEAS_SLACK)
    if over.size:
        # One order for every row, that of 1 / b, as cost / a = 1 / (g b); the
        # rounded quotients need not sort exactly alike, and their order sets the bits.
        cost_over = cost[over]
        theta = cost_over / a
        theta_s = theta[:, np.argsort(1.0 / b, kind="stable")]
        mu_over, level = _waterfill_single(theta, theta_s, cost_over, inv_a, ks)
        mu[over] = mu_over
        price[over] = 1.0 / level[:, 0]
        both = mu_over.sum(axis=1) > 1.0 + _FEAS_SLACK
        if both.any():
            mu[over[both]], price[over[both]] = _waterfill_two_budgets(a, cost_over[both])

    logs = np.sum(np.log2(1.0 + a * mu), axis=1)
    rates = (1.0 - alphas) * problem.bandwidth_hz / (2.0 * problem.k_subcarriers) * logs
    mu_bar = cost * mu
    slopes = problem.bandwidth_hz / (2.0 * problem.k_subcarriers) * (
        price * mu_bar.sum(axis=1) / (alphas * math.log(2.0)) - logs
    )
    return mu, mu_bar, rates, slopes


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


def _waterfill_two_budgets(a: np.ndarray, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    ``[0, 1/2]`` by :func:`_price_ratio_root`.

    Returns ``(mu, p2)`` with ``p2`` the cost budget's price: ``s / L``
    at the root's level ``L``, or ``(1 - s) / L`` on swapped rows.
    """
    d = cost - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        _, _, f, slope = _blend(np.full(cost.shape[0], 0.5), a, cost, 1.0 / a, d, d / a, _ranks(cost.shape[1]))
        # The swap negates f but keeps its slope, so Newton's step from 1/2
        # lands at 1/2 - |f / slope| either way.
        start = 0.5 - np.abs(f / slope)
    swap = (f > 0.0)[:, None]
    gains = np.where(swap, a / cost, a)
    costs = np.where(swap, 1.0 / cost, cost)
    start = np.where((slope < 0.0) & (start > 0.0), start, 0.25)
    mu, s, level = _price_ratio_root(gains, costs, start)
    return np.where(swap, mu / cost, mu), np.where(swap[:, 0], 1.0 - s, s) / level


def _price_ratio_root(
    a: np.ndarray, cost: np.ndarray, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solution at the root of ``f`` in ``[0, 1/2]``, for each row of ``a`` and ``cost``.

    Takes Newton steps on ``f`` from ``start``, whose derivative over the
    current active set is closed-form, kept inside the bracket: a step
    that leaves it, or does not halve the previous step, is replaced by
    bisection.  Each step costs one sort per row; a row stops when ``f``,
    the Newton step or the bracket is down to rounding, and leaves the
    batch then.  Raises ``RuntimeError`` if a row has not stopped after
    ``_ROOT_STEPS`` steps.  Returns ``(mu, s, L)``: each row's solution
    with the blend and water level it was solved at.
    """
    out = np.empty(cost.shape)
    out_s = np.empty(cost.shape[0])
    out_level = np.empty(cost.shape[0])
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
            mu, level, f, slope = _blend(s, a, cost, inv_a, d, d_a, ks)
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
                out[rows[done]], out_s[rows[done]], out_level[rows[done]] = mu[done], s[done], level[done, 0]
                if done.all():
                    return out, out_s, out_level
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Single-budget solution and level at blend ``s`` per row, with ``f(s)`` and ``df/ds``.

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
    return mu, level, f, slope
