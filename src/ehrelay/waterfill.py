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
& Fonollosa, IEEE TSP 53(2), 2005).  :func:`inner_waterfill` solves a
1-D array of ``alpha`` values this way, as array operations.

:func:`solve` finds the best time split without searching over it.  As
``1 - alpha = 2 / (2 + g)``, the rate is
``W / ln 2 * 2 sum ln(1 + a mu) / (2 + g)`` with ``W = bandwidth / (2K)``,
and the relay budget reads ``sum c mu <= g`` with ``c = a / b``.  For a
given ``mu`` the best ``g`` is the least that budget allows, so dropping
the time-split box leaves the relaxation

    max 2 sum ln(1 + a mu) / (2 + sum c mu)  over  sum mu <= 1, mu >= 0,

a concave function over a positive affine one, which Dinkelbach's method
solves in a few closed-form steps (W. Dinkelbach, Management Science
13(7), 1967).  No feasible ``(g, mu)`` rates above it, so where its
``g* = sum c mu*`` lies inside the box, ``alpha* = g* / (2 + g*)`` is the
optimum.  Where it lies outside, the optimum is the box edge nearer
``g*``: the per-``g`` optimum ``C(g)`` is a partial maximum of a concave
function over a convex set, hence concave, so the rate
``2 C(g) / (2 + g)`` is unimodal in ``g``.

It shares only the problem with the augmented Lagrangian optimizer:
:class:`~ehrelay.system.ReducedProblem` and its time-split box, both
from :mod:`ehrelay.system`.  The solution path (sorted water levels, a
root in the price ratio and Dinkelbach's steps) and the rate formula
are its own, which is what makes it usable as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ehrelay.system import ALPHA_MAX, ALPHA_MIN, ReducedProblem

__all__ = ["OracleSolution", "inner_waterfill", "solve"]

_FEAS_SLACK = 1e-12
# Rounding level at which the roots and Dinkelbach's steps stop: relative step or bracket, absolute f.
_ROOT_RTOL = 4.0 * np.finfo(float).eps
# Cap on steps per price-ratio root, past which it raises; seeded stress runs stop within 30.
_ROOT_STEPS = 200
# Cap on steps per unit-price root after its first, past which it raises.
_PRICE_STEPS = 100
# Cap on Dinkelbach steps per solve, past which it raises.
_DINKELBACH_STEPS = 100


@dataclass(frozen=True)
class OracleSolution:
    """The optimal allocation, and the Dinkelbach steps that placed its time split."""

    alpha_star: float
    mu_star: np.ndarray
    mu_bar_star: np.ndarray
    rate_star: float
    iterations: int


def inner_waterfill(alpha: np.ndarray, problem: ReducedProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal power fractions for each of several fixed time splits.

    Maximizes ``sum log2(1 + a mu)`` subject to ``sum mu <= 1`` and
    ``sum cost mu <= 1`` with ``cost_n = a_n (1 - alpha) / (2 alpha b_n)``,
    then recovers ``mu_bar = cost * mu`` so the per-pair SNR balance holds
    exactly by construction.  Subchannels with a zero coefficient on
    either hop are switched off.

    ``alpha`` must be a 1-D array of time splits in ``(0, 1)``; row ``i``
    of ``(mu, mu_bar, rates)`` solves ``alpha[i]``, with the same bits as
    a 1-element call.  The unit-budget solution does not depend on
    ``alpha``, so it is computed once.  Rows where it overspends the cost
    budget take the cost-budget solution, whose sort order
    (``theta = 1 / (g b)``) is the same for every ``alpha``.  Rows where
    that in turn overspends the unit budget go to
    :func:`_waterfill_two_budgets` together.
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
    if ok.any():
        mu[:, ok], mu_bar[:, ok], rates = _waterfill_live(alphas, a[ok], b[ok], problem)
    return mu, mu_bar, rates


def solve(problem: ReducedProblem) -> OracleSolution:
    """The optimal time split and allocation, in one :func:`inner_waterfill` call.

    :func:`_dinkelbach` solves the relaxation over the live pairs
    (``a > 0`` and ``b > 0``) for ``g*``; ``alpha* = g* / (2 + g*)``,
    clipped to ``[ALPHA_MIN, ALPHA_MAX]``, is exact by the module's
    argument.  The returned allocation and rate are row 0 of
    :func:`inner_waterfill` at ``alpha*``.  A problem with no live pair
    has rate 0, at ``ALPHA_MIN`` after 0 steps.
    """
    a = problem.a_coeffs
    b = problem.b_coeffs
    ok = (a > 0.0) & (b > 0.0)
    alpha, steps = ALPHA_MIN, 0
    if ok.any():
        g, steps = _dinkelbach(a[ok], a[ok] / b[ok])
        alpha = min(max(g / (2.0 + g), ALPHA_MIN), ALPHA_MAX)
    mu, mu_bar, rates = inner_waterfill(np.array([alpha]), problem)
    return OracleSolution(alpha, mu[0], mu_bar[0], float(rates[0]), steps)


def _dinkelbach(a: np.ndarray, c: np.ndarray) -> tuple[float, int]:
    """``g* = sum c mu*`` of the relaxation in the module docstring, and the steps taken.

    Each step maximizes ``2 sum ln(1 + a mu) - lam (2 + sum c mu)`` over
    ``sum mu <= 1``, which is the penalized water-filling
    ``mu_n = max(0, 1 / (lam c_n / 2 + p) - 1 / a_n)`` with ``p`` the unit
    budget's price from :func:`_unit_price`, and then sets ``lam`` to the
    ratio at that ``mu``.  From ``lam = 0`` the ratios rise to the
    optimum, superlinearly; the steps stop once the ratio no longer rises
    beyond rounding, and that step's ``mu`` is optimal.  Raises
    ``RuntimeError`` after ``_DINKELBACH_STEPS`` steps.
    """
    inv_a = 1.0 / a
    # At lam = 0 the best single channel's price bounds the root from below.
    lam, price = 0.0, float(np.max(a / (1.0 + a)))
    for steps in range(1, _DINKELBACH_STEPS + 1):
        x = 0.5 * lam * c
        price = _unit_price(x, a, inv_a, price)
        mu = np.maximum(1.0 / (x + price) - inv_a, 0.0)
        g = float(c @ mu)
        ratio = 2.0 * float(np.log1p(a * mu).sum()) / (2.0 + g)
        if ratio <= lam * (1.0 + _ROOT_RTOL):
            return g, steps
        lam = ratio
    raise RuntimeError(f"Dinkelbach's method did not converge in {_DINKELBACH_STEPS} steps")


def _unit_price(x: np.ndarray, a: np.ndarray, inv_a: np.ndarray, p: float) -> float:
    """The least price ``p >= 0`` at which ``sum max(0, 1 / (x + p) - 1 / a) <= 1``.

    ``x >= 0`` and ``inv_a = 1 / a``; the start ``p`` may lie on either
    side of the price sought, as long as some channel is on there when
    ``x`` has a zero.  The first :func:`_price_step` lands at or below
    that price, and from there the steps rise to it; a step that does not
    rise beyond rounding ends the root.  Raises ``RuntimeError`` after
    ``_PRICE_STEPS`` steps.
    """
    p = _price_step(x, a, inv_a, p)
    for _ in range(_PRICE_STEPS):
        nxt = _price_step(x, a, inv_a, p)
        if nxt <= p * (1.0 + _ROOT_RTOL):
            return p
        p = nxt
    raise RuntimeError(f"unit-price root did not converge in {_PRICE_STEPS} steps")


def _price_step(x: np.ndarray, a: np.ndarray, inv_a: np.ndarray, p: float) -> float:
    """One Newton step of :func:`_unit_price` from ``p``, kept at or above 0.

    On the set ``S`` of channels on at ``p`` (``x + p < a``) the budget is
    tight where ``F(q) = 1 / sum_S 1 / (x + q)`` equals
    ``1 / (1 + sum_S 1 / a)``.  ``F`` is concave and rising (a harmonic
    sum of affine functions), so its Newton step lands at or below that
    root from either side.  That root lies at or below the price sought:
    above it, ``S`` holds only channels that are on at that price, and
    below it, every channel of ``S`` that is off there adds a term at most
    0.  From below, the step rises.  With no channel on, ``p`` lies above
    the price sought and the step goes to 0.
    """
    on = x + p < a
    y = on / (x + p)
    u = float(y.sum())
    if u == 0.0:
        return 0.0
    t = 1.0 + float(inv_a @ on)
    return max(0.0, p + u * (u - t) / (t * float(y @ y)))


def _waterfill_live(
    alphas: np.ndarray, a: np.ndarray, b: np.ndarray, problem: ReducedProblem
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`inner_waterfill`'s ``(mu, mu_bar, rates)`` for pairs with ``a > 0`` and ``b > 0``."""
    g = 2.0 * alphas / (1.0 - alphas)
    cost = a / (g[:, None] * b)
    inv_a = 1.0 / a
    ks = _ranks(a.size)

    theta = inv_a[None, :]
    unit, _ = _waterfill_single(theta, np.sort(theta, axis=1), 1.0, inv_a, ks)
    mu = np.repeat(unit, alphas.size, axis=0)
    over = np.flatnonzero(cost @ unit[0] > 1.0 + _FEAS_SLACK)
    if over.size:
        # One order for every row, that of 1 / b, as cost / a = 1 / (g b); the
        # rounded quotients need not sort exactly alike, and their order sets the bits.
        cost_over = cost[over]
        theta = cost_over / a
        theta_s = theta[:, np.argsort(1.0 / b, kind="stable")]
        mu_over, _ = _waterfill_single(theta, theta_s, cost_over, inv_a, ks)
        mu[over] = mu_over
        both = mu_over.sum(axis=1) > 1.0 + _FEAS_SLACK
        if both.any():
            mu[over[both]] = _waterfill_two_budgets(a, cost_over[both])

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
    ``[0, 1/2]`` by :func:`_price_ratio_root`.
    """
    d = cost - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        _, f, slope = _blend(np.full(cost.shape[0], 0.5), a, cost, 1.0 / a, d, d / a, _ranks(cost.shape[1]))
        # The swap negates f but keeps its slope, so Newton's step from 1/2
        # lands at 1/2 - |f / slope| either way.
        start = 0.5 - np.abs(f / slope)
    swap = (f > 0.0)[:, None]
    gains = np.where(swap, a / cost, a)
    costs = np.where(swap, 1.0 / cost, cost)
    start = np.where((slope < 0.0) & (start > 0.0), start, 0.25)
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
