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
& Fonollosa, IEEE TSP 53(2), 2005).  The whole ``alpha`` grid is solved
as array operations, and zoom rounds, each a finer grid around the last
best point solved the same way, complete the solution.

This module reads the same :class:`~ehrelay.system.ReducedProblem` as
the augmented Lagrangian optimizer and shares only the time-split clamp
``ALPHA_MIN``/``ALPHA_MAX`` with it; the solution path (sorted water
levels and a root in the price ratio) and the rate formula are entirely
separate, which is what makes it usable as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ehrelay.auglag import ALPHA_MAX, ALPHA_MIN
from ehrelay.system import ReducedProblem

__all__ = ["OracleSolution", "inner_waterfill", "solve"]

_FEAS_SLACK = 1e-12
# Rounding level at which the price-ratio root stops: relative step or bracket, absolute f.
_ROOT_RTOL = 4.0 * np.finfo(float).eps
# Cap on steps per root; seeded stress runs stop within 30.
_ROOT_STEPS = 200
# Time splits per zoom round; each round narrows the bracket twelvefold.
_ZOOM_POINTS = 25


@dataclass(frozen=True)
class OracleSolution:
    """Best allocation found by grid search plus zoom rounds."""

    alpha_star: float
    mu_star: np.ndarray
    mu_bar_star: np.ndarray
    rate_star: float
    alpha_grid_profile: tuple[tuple[float, float], ...]


def inner_waterfill(alpha: float, problem: ReducedProblem) -> tuple[np.ndarray, np.ndarray, float]:
    """Optimal power fractions for a fixed time split.

    Maximizes ``sum log2(1 + a mu)`` subject to ``sum mu <= 1`` and
    ``sum cost mu <= 1`` with ``cost_n = a_n (1 - alpha) / (2 alpha b_n)``,
    then recovers ``mu_bar = cost * mu`` so the per-pair SNR balance holds
    exactly by construction.  Subchannels with a zero coefficient on
    either hop are switched off.  This is :func:`_waterfill_grid` on a
    grid of one point.

    Returns ``(mu, mu_bar, rate_bps)``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    mu, mu_bar, rates = _waterfill_grid(np.array([alpha]), problem)
    return mu[0], mu_bar[0], float(rates[0])


def solve(problem: ReducedProblem, grid_points: int = 199, refine_tol: float = 1e-6) -> OracleSolution:
    """Grid search over the time split, refined by zoom rounds.

    Round 0 solves ``grid_points`` uniform values of ``alpha`` at once;
    each later round solves ``_ZOOM_POINTS`` uniform values between the
    neighbours of the last round's best point, also at once.  Rounds
    stop once that bracket is narrower than ``refine_tol`` or no longer
    shrinks; :func:`inner_waterfill` returns the best point's allocation.
    """
    if grid_points < 8:
        raise ValueError("grid_points must be >= 8")
    if not (math.isfinite(refine_tol) and refine_tol > 0.0):
        raise ValueError("refine_tol must be finite and > 0")
    alphas = np.linspace(ALPHA_MIN, ALPHA_MAX, grid_points)
    _, _, rates = _waterfill_grid(alphas, problem)
    profile = tuple(zip(alphas.tolist(), rates.tolist()))
    best_rate = -math.inf
    width = math.inf
    while True:
        i = int(np.argmax(rates))
        if rates[i] > best_rate:
            best_alpha, best_rate = float(alphas[i]), rates[i]
        lo = alphas[max(0, i - 1)]
        hi = alphas[min(alphas.size - 1, i + 1)]
        if hi - lo <= refine_tol or hi - lo >= width:
            break
        width = hi - lo
        alphas = np.linspace(lo, hi, _ZOOM_POINTS)
        _, _, rates = _waterfill_grid(alphas, problem)

    # Through inner_waterfill, so tracers that wrap it (perfbench) still see the oracle.
    mu, mu_bar, rate = inner_waterfill(best_alpha, problem)
    return OracleSolution(
        alpha_star=best_alpha,
        mu_star=mu,
        mu_bar_star=mu_bar,
        rate_star=rate,
        alpha_grid_profile=profile,
    )


def _waterfill_grid(
    alphas: np.ndarray, problem: ReducedProblem
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inner water-filling at every time split in ``alphas`` at once.

    Row ``i`` of ``(mu, mu_bar, rates)`` solves the problem at
    ``alphas[i]``.  The unit-budget solution does not depend on
    ``alpha``, so it is computed once.  Rows where it overspends the
    cost budget take the cost-budget solution, whose sort order
    (``theta = 1 / (g b)``) is the same for every ``alpha``.  Rows
    where that in turn overspends the unit budget go to
    :func:`_waterfill_two_budgets` together.
    """
    a = problem.a_coeffs
    b = problem.b_coeffs
    mu = np.zeros((alphas.size, problem.n_pairs))
    mu_bar = np.zeros_like(mu)
    ok = (a > 0.0) & (b > 0.0)
    if not ok.any():
        return mu, mu_bar, np.zeros(alphas.size)

    a_ok = a[ok]
    b_ok = b[ok]
    g = 2.0 * alphas / (1.0 - alphas)
    cost = a_ok / (g[:, None] * b_ok)

    unit, _ = _waterfill_single(a_ok, np.ones((1, a_ok.size)), np.argsort(1.0 / a_ok, kind="stable"))
    mu_ok = np.repeat(unit, alphas.size, axis=0)
    over = np.flatnonzero(cost @ unit[0] > 1.0 + _FEAS_SLACK)
    if over.size:
        mu_ok[over], _ = _waterfill_single(a_ok, cost[over], np.argsort(1.0 / b_ok, kind="stable"))
        both = over[mu_ok[over].sum(axis=1) > 1.0 + _FEAS_SLACK]
        if both.size:
            mu_ok[both] = _waterfill_two_budgets(a_ok, cost[both])

    mu[:, ok] = mu_ok
    mu_bar[:, ok] = cost * mu_ok
    weight = (1.0 - alphas) * problem.bandwidth_hz / (2.0 * problem.k_subcarriers)
    rates = weight * np.sum(np.log2(1.0 + a_ok * mu_ok), axis=1)
    return mu, mu_bar, rates


def _waterfill_single(a: np.ndarray, cost: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact water-filling under one budget ``sum cost mu <= 1``, per row.

    Maximizes ``sum ln(1 + a mu)`` for each row of ``cost``; the water
    level over the active set has the closed form
    ``L_k = (1 + sum theta) / k`` with ``theta = cost / a`` taken in
    ascending order.  ``order`` sorts ``theta`` ascending, either one
    order for every row or one row of it per row of ``cost``; ``a`` is
    one row for every row of ``cost`` or one per row.

    Returns ``(mu, level)``, with ``mu = max(0, level / cost - 1 / a)``
    where ``theta < level`` (the active set) and 0 elsewhere.
    """
    theta = cost / a
    rows = np.arange(theta.shape[0])[:, None]
    theta_s = theta[rows, order]
    ks = np.arange(1, theta.shape[1] + 1, dtype=float)
    levels = (1.0 + np.cumsum(theta_s, axis=1)) / ks
    # One past the last rank whose level clears its theta; rank 0 always does.
    k = theta.shape[1] - np.argmax((levels > theta_s)[:, ::-1], axis=1)
    level = levels[rows[:, 0], k - 1]
    mu = np.maximum(level[:, None] / cost - 1.0 / a, 0.0) * (theta < level[:, None])
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
    ``[0, 1/2]`` by :func:`_price_ratio_root`.
    """
    _, f, slope = _blend(a, cost, np.full(cost.shape[0], 0.5))
    swap = (f > 0.0)[:, None]
    gains = np.where(swap, a / cost, a)
    costs = np.where(swap, 1.0 / cost, cost)
    # The swap negates f but keeps its slope, so Newton's step from 1/2
    # lands at 1/2 - |f / slope| either way.
    with np.errstate(divide="ignore", invalid="ignore"):
        start = 0.5 - np.abs(f / slope)
    start = np.where((slope < 0.0) & (start > 0.0), start, 0.25)
    mu = _price_ratio_root(gains, costs, start)
    return np.where(swap, mu / cost, mu)


def _price_ratio_root(a: np.ndarray, cost: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Solution at the root of ``f`` in ``[0, 1/2]``, for each row of ``a`` and ``cost``.

    Takes Newton steps on ``f`` from ``start``, whose derivative over the
    current active set is closed-form, kept inside the bracket: a step
    that leaves it, or does not halve the previous step, is replaced by
    bisection.  Each step costs one sort per row; a row stops when ``f``,
    the Newton step or the bracket is down to rounding.
    """
    rows = cost.shape[0]
    mu = np.empty(cost.shape)
    s = start.copy()
    lo = np.zeros(rows)
    hi = np.full(rows, 0.5)
    last_step = np.full(rows, 0.5)
    live = np.arange(rows)
    for _ in range(_ROOT_STEPS):
        sl = s[live]
        mu_l, f, slope = _blend(a[live], cost[live], sl)
        mu[live] = mu_l
        above = f > 0.0
        lo_l = np.where(above, sl, lo[live])
        hi_l = np.where(above, hi[live], sl)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(slope < 0.0, -f / slope, np.inf)
        take = (np.abs(newton) <= 0.5 * last_step[live]) & (lo_l < sl + newton) & (sl + newton < hi_l)
        step = np.where(take, newton, 0.5 * (lo_l + hi_l) - sl)

        done = np.abs(f) <= _ROOT_RTOL
        done |= (np.abs(newton) <= _ROOT_RTOL * sl) | (hi_l - lo_l <= _ROOT_RTOL * hi_l)
        lo[live] = lo_l
        hi[live] = hi_l
        s[live] = sl + step
        last_step[live] = np.abs(step)
        live = live[~done]
        if not live.size:
            break
    return mu


def _blend(a: np.ndarray, cost: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-budget solution at blend ``s`` per row, with ``f(s)`` and ``df/ds``.

    On the active set ``S``, ``mu = L / w - 1 / a`` with the level
    ``L = (1 + sum_S w / a) / |S|`` and ``dw / ds = cost - 1``.
    """
    w = (1.0 - s)[:, None] + s[:, None] * cost
    mu, level = _waterfill_single(a, w, np.argsort(w / a, axis=1, kind="stable"))
    d = cost - 1.0
    f = (d * mu).sum(axis=1)
    on = mu > 0.0
    dlevel = (d / a * on).sum(axis=1) / np.maximum(on.sum(axis=1), 1)
    slope = (d * (dlevel[:, None] - level[:, None] * d / w) / w * on).sum(axis=1)
    return mu, f, slope
