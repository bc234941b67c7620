"""Independent reference computations shared by the test modules.

Everything here deliberately avoids the code paths under test: matrix
products are naive triple loops, eigenvalues come from characteristic
polynomial roots (Faddeev-LeVerrier), water levels from plain bisection.
"""

from __future__ import annotations

import numpy as np


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry-by-entry triple-loop product."""
    rows, inner = a.shape
    inner2, cols = b.shape
    assert inner == inner2
    out = np.zeros((rows, cols), dtype=complex)
    for i in range(rows):
        for j in range(cols):
            acc = 0.0 + 0.0j
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


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
    on the active set, and the residual measures stationarity and dual
    feasibility.  Returns the largest violation found (0 means exact).
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
        # Solve marginal = y1 + y2 cost on actives in the least-squares sense.
        design = np.stack([np.ones(int(active.sum())), cost[active]], axis=1)
        (y1, y2), *_ = np.linalg.lstsq(design, marginal[active], rcond=None)
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
