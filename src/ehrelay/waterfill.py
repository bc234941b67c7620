"""Independent reference solver for the reduced rate problem.

For a fixed time split ``alpha`` the pair-balance equalities pin the
relay-side fractions to ``mu_bar = cost * mu`` with
``cost_n = a_n / (g b_n)`` and ``g = 2 alpha / (1 - alpha)``, so the
problem collapses to water-filling over ``mu`` under the two budgets
``sum mu <= 1`` and ``sum cost mu <= 1``: with prices ``p`` and ``q`` on
them, ``mu_n = max(0, 1 / (q cost_n + p) - 1 / a_n)``.

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
optimum and Dinkelbach's last step, the water-filling above at
``q = lam g* / 2``, is its allocation, which :func:`inner_waterfill`
evaluates at that step's prices.  Otherwise the optimum is the box
edge nearer ``g*``, as the rate ``2 C(g) / (2 + g)`` is unimodal in
``g`` (the best ``C(g)`` at each ``g``, a partial maximum of a concave
function over a convex set, is concave), and :func:`inner_waterfill`
solves that edge by a root in ``q``.

It shares only the problem, :class:`~ehrelay.system.ReducedProblem`, and
its time-split box with the augmented Lagrangian optimizer.  The solution
path and the rate formula are its own, which is what makes it usable as
a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ehrelay.system import ALPHA_MAX, ALPHA_MIN, ReducedProblem

__all__ = ["OracleSolution", "inner_waterfill", "solve"]

# Rounding level at which the roots and Dinkelbach's steps stop: relative step or bracket, absolute f.
_ROOT_RTOL = 4.0 * np.finfo(float).eps
# Cap on steps per cost-price root, past which it raises.
_ROOT_STEPS = 200
# Cap on steps per unit-price root after its first, past which it raises.
_PRICE_STEPS = 100
# Cap on Dinkelbach steps per solve, past which it raises.
_DINKELBACH_STEPS = 100


@dataclass(frozen=True)
class OracleSolution:
    """The optimal allocation, and the Dinkelbach steps that placed its time split.

    The allocation is :func:`inner_waterfill`'s at ``alpha_star``: at
    the last step's prices where ``alpha_star`` is inside the box, and by
    its root at a box edge.
    """

    alpha_star: float
    mu_star: np.ndarray
    mu_bar_star: np.ndarray
    rate_star: float
    iterations: int


def inner_waterfill(alpha: float, problem: ReducedProblem, prices=None) -> tuple[np.ndarray, np.ndarray, float]:
    """Optimal ``(mu, mu_bar, rate)`` at one fixed time split ``alpha`` in ``(0, 1)``.

    Maximizes ``sum log2(1 + a mu)`` subject to ``sum mu <= 1`` and
    ``sum cost mu <= 1`` with ``cost_n = a_n (1 - alpha) / (2 alpha b_n)``,
    then recovers ``mu_bar = cost * mu`` so the per-pair SNR balance holds
    exactly by construction.  Subchannels with a zero coefficient on
    either hop are switched off.  Given the optimal ``prices = (r, p)`` of
    the relay budget ``sum (a / b) mu <= g`` and the unit budget, as
    :func:`solve` has them from Dinkelbach's last step, ``mu`` is
    ``max(0, 1 / (r a / b + p) - 1 / a)``, with no root; otherwise it is
    that of the cost budget's price found by :func:`_cost_price`.  Either
    way it is divided once by ``max(1, sum mu, sum cost mu)`` against what
    rounding leaves over.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    ok = problem.live
    a = problem.a_coeffs[ok]
    cost = a / (2.0 * alpha / (1.0 - alpha) * problem.b_coeffs[ok])
    if prices is None:
        mu = _cost_price(a, cost) if ok.any() else np.zeros(0)
    else:
        mu = np.maximum(1.0 / (prices[0] * (a / problem.b_coeffs[ok]) + prices[1]) - 1.0 / a, 0.0)
    mu = mu / max(1.0, float(mu.sum()), float((cost * mu).sum()))
    out = np.zeros((2, problem.n_pairs))
    out[:, ok] = mu, cost * mu
    logs = float(np.sum(np.log2(1.0 + a * mu)))
    return out[0], out[1], (1.0 - alpha) * problem.bandwidth_hz / (2.0 * problem.k_subcarriers) * logs


def solve(problem: ReducedProblem) -> OracleSolution:
    """The optimal time split and allocation.

    :func:`_dinkelbach` solves the relaxation over the live pairs
    (``a > 0`` and ``b > 0``) for ``g*`` and its last step's prices.
    Where ``alpha* = g* / (2 + g*)`` lies in ``[ALPHA_MIN, ALPHA_MAX]``,
    :func:`inner_waterfill` allocates at those prices.  Otherwise
    ``alpha*`` is clipped to the box, and :func:`inner_waterfill` roots at
    that edge.  A problem with no live pair has ``g* = 0``: rate 0, at
    ``ALPHA_MIN`` after 0 steps.
    """
    ok = problem.live
    a = problem.a_coeffs[ok]
    g, prices, steps = _dinkelbach(a, a / problem.b_coeffs[ok]) if ok.any() else (0.0, None, 0)
    alpha = g / (2.0 + g)
    if not ALPHA_MIN <= alpha <= ALPHA_MAX:
        alpha, prices = min(max(alpha, ALPHA_MIN), ALPHA_MAX), None
    return OracleSolution(alpha, *inner_waterfill(alpha, problem, prices), steps)


def _dinkelbach(a: np.ndarray, c: np.ndarray) -> tuple[float, tuple[float, float], int]:
    """``g* = sum c mu*`` of the relaxation in the module docstring, as ``(g*, (lam / 2, p), steps)``.

    Each step maximizes ``2 sum ln(1 + a mu) - lam (2 + sum c mu)`` over
    ``sum mu <= 1``, which is the penalized water-filling
    ``mu_n = max(0, 1 / (lam c_n / 2 + p) - 1 / a_n)`` with ``p`` the unit
    budget's price from :func:`_unit_price`, and then sets ``lam`` to the
    ratio at that ``mu``.  From ``lam = 0`` the ratios rise to the
    optimum, superlinearly; the steps stop once the ratio no longer rises
    beyond rounding, and that step's ``mu``, at the relay budget's price
    ``lam / 2``, is optimal.  Raises ``RuntimeError`` after
    ``_DINKELBACH_STEPS`` steps.
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
            return g, (0.5 * lam, price), steps
        lam = ratio
    raise RuntimeError(f"Dinkelbach's method did not converge in {_DINKELBACH_STEPS} steps")


def _cost_price(a: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """``mu`` at the least cost-budget price ``q >= 0`` at which ``sum cost mu <= 1``.

    With ``p(q)`` from :func:`_unit_price`, ``h(q) = sum cost mu(q) - 1``
    falls as ``q`` rises, and so does ``p(q)``.  Where ``h(0) > 0``,
    holding ``p`` at 0 overstates ``h`` and holding it at ``p(0)``
    understates it, so two unit-price problems with gains ``a / cost``
    bracket the root.  From the upper end, the cost budget alone, Newton
    steps of at least ``_ROOT_RTOL`` relative run; one that leaves the
    bracket, or does not halve the step before last, is replaced by
    geometric bisection.  On the active set, with ``y = 1 / (q cost + p)``
    and ``w = y^2``, ``dp / dq = -m``, the ``w``-weighted mean of ``cost``
    (0 where ``p`` is 0), so ``dmu / dq = w (m - cost)``.  The root stops
    once ``h`` (to the rounding of its terms ``cost y - cost / a``), the
    step or the bracket is down to rounding.  Raises ``RuntimeError``
    after ``_ROOT_STEPS`` steps.
    """
    inv_a = 1.0 / a
    gains = a / cost
    hi = _unit_price(np.zeros(a.size), gains, 1.0 / gains, float(np.max(gains / (1.0 + gains))))
    q, p, lo, steps = 0.0, float(np.max(a / (1.0 + a))), 0.0, (np.inf, np.inf)
    for _ in range(_ROOT_STEPS):
        x = q * cost
        p = _unit_price(x, a, inv_a, p)
        y = 1.0 / (x + p)
        mu = np.maximum(y - inv_a, 0.0)
        on_y = (mu > 0.0) * y
        w = on_y * y
        h = float(cost @ mu) - 1.0
        lo, hi = (q, hi) if h > 0.0 else (lo, q)
        m = float(w @ cost) / float(w.sum()) if p > 0.0 else 0.0
        dmu = w * (m - cost)
        slope = float(cost @ dmu)
        newton = -h / slope if slope < 0.0 else np.inf
        tol = _ROOT_RTOL * float(cost @ on_y)
        if abs(h) <= tol or abs(newton) <= _ROOT_RTOL * q or hi - lo <= _ROOT_RTOL * q:
            # What is left lies below the resolution of the prices, so the last
            # Newton step is taken in mu itself: the unit budget's at fixed q,
            # along -w, then the cost budget's along dmu, which keeps the unit
            # budget, where that stays within the bracket's width.
            if p > 0.0:
                e = float(mu.sum()) - 1.0
                mu = np.maximum(mu - e / float(w.sum()) * w, 0.0)
                newton = (m * e - h) / slope if slope < 0.0 else np.inf
            if abs(newton) <= max(hi - lo, _ROOT_RTOL * q):
                mu = np.maximum(mu + newton * dmu, 0.0)
            return mu
        if q == 0.0:
            lo, q = _unit_price(p / cost, gains, 1.0 / gains, hi), hi
            continue
        step = np.copysign(max(abs(newton), _ROOT_RTOL * q), newton)
        if not (abs(step) <= 0.5 * steps[0] and lo < q + step < hi):
            step = (lo * hi) ** 0.5 - q
        q += step
        steps = (steps[1], abs(step))
    raise RuntimeError(f"cost-price root did not converge in {_ROOT_STEPS} steps")


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
