"""Augmented Lagrangian penalty optimizer for the reduced rate problem.

After the energy beam is fixed, maximizing the end-to-end rate of the
paired subchannels reduces to choosing the time split ``alpha`` and the
per-subchannel power fractions ``mu`` (source) and ``mu_bar`` (relay)
under two unit budgets.  A pair carries the smaller of its two hop
rates, so lowering the stronger hop of every pair to the SNR of the
weaker one keeps the rate and both budgets: some optimum balances every
live pair (``a > 0`` and ``b > 0``), ``a mu = g b mu_bar`` with
``g = 2 alpha / (1 - alpha)``, and gives a dead pair nothing.  The
solver therefore substitutes ``mu_bar = r mu`` with
``r = a / (g b) = a (1 - alpha) / (2 alpha b)``, which loses no rate,
and keeps only the live pairs and two constraint rows::

    c1 = sum mu - 1 <= 0,    c2 = sum r mu - 1 <= 0.

The rows are turned into equalities with slack variables ``s1, s2``;
violations are driven to zero by an augmented Lagrangian outer loop
with one multiplier and one penalty per row, laid out as
``[budget1, budget2]``:

* solve the penalized subproblem,
* stop when the violation norm is small enough,
* grow the penalty of every row whose violation did not shrink by a
  factor of four, then step the multipliers.

The solver iterates on the point ``z = (alpha, mu)``; the slacks are
eliminated in closed form at every trial point.  The penalty's Hessian
over ``z`` is a diagonal plus the rank-one terms ``sigma1 11^T`` and
``sigma2 r r^T`` of the binding budgets, bordered by the ``alpha`` row,
so each inner iteration is a projected Newton step solved in O(n),
followed by Armijo backtracking by halving along the projection arc.
The Newton subproblem solver follows the practice in Birgin & Martinez,
*Practical Augmented Lagrangian Methods for Constrained Optimization*
(SIAM, 2014).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ehrelay.system import ALPHA_MAX, ALPHA_MIN, Allocation, ReducedProblem, achievable_rate

__all__ = [
    "AlpfResult",
    "optimize",
    "solve_subproblem",
    "update_multipliers",
    "update_penalties",
]

_LN2 = float(np.log(2.0))
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
# Bound distance below which a coordinate pushed outward is held at its
# bound, and the largest time-split move of one Newton step.
_ACTIVE_EPS = 1e-3
_ALPHA_STEP = 0.25
# Sherman-Morrison gain above which a Newton solve is refined once: below
# it the solve keeps about 12 significant digits.
_REFINE_GAIN = 1e4
# Stopping violation and the outer and per-subproblem inner iteration caps.
_EPS = 1e-6
_MAX_OUTER_ITERS = 100
_MAX_INNER_ITERS = 5000


@dataclass(frozen=True)
class AlpfResult:
    """Allocation plus a convergence report.

    ``converged`` means max |c| <= 1e-6 (``_EPS``) over the two budget
    rows: feasibility only, not optimality.  At SNRs far below 1 a
    converged run can stop well below the optimum; ``ehrelay selftest
    --trials 150`` prints each seeded stress instance where a run misses
    the water-filling oracle by over 1% or falls below the benchmark.
    ``final_nu`` and ``final_sigma`` hold the two rows' multipliers and
    penalties.
    """

    allocation: Allocation
    rate_bps: float
    converged: bool
    outer_iterations: int
    inner_iterations: int
    final_violation: float
    final_nu: np.ndarray
    final_sigma: np.ndarray
    stalled: bool


def update_multipliers(nu: np.ndarray, sigma: np.ndarray, violation_new: np.ndarray) -> np.ndarray:
    """Multiplier step: each ``nu`` moves by ``-sigma * c`` of its constraint."""
    return nu - sigma * violation_new


def update_penalties(
    sigma: np.ndarray,
    violation_new: np.ndarray,
    violation_old: np.ndarray,
    outer_iter: int,
) -> np.ndarray:
    """Per-constraint penalty growth on insufficient violation decrease.

    A penalty is kept when ``|c_new| <= |c_old| / 4`` and otherwise grows
    to ``max(10 sigma, k^2)`` where ``k`` is the 1-based outer iteration.
    """
    if outer_iter < 1:
        raise ValueError("outer_iter must be >= 1")
    keep = np.abs(violation_new) <= 0.25 * np.abs(violation_old)
    grown = np.maximum(10.0 * sigma, float(outer_iter) ** 2)
    return np.where(keep, sigma, grown)


def solve_subproblem(
    z: np.ndarray,
    nu: np.ndarray,
    sigma: np.ndarray,
    problem: ReducedProblem,
    inner_tol: float,
) -> tuple[_ReducedPoint, int, bool]:
    """Approximately minimize the penalty over the box, from ``z = (alpha, mu)``.

    Every pair of ``problem`` must have ``b > 0``; ``optimize`` passes
    the live pairs only.  The multipliers ``nu`` and penalties ``sigma``
    stay fixed.  Projected Newton over ``z`` with Armijo backtracking
    (halving from trial step 1.0) along the projection arc.  The slacks
    are restored by exact partial minimization at every trial point, so
    the returned point never has a larger penalty value than the
    projected start.  A trial point is priced by its value alone; only
    the accepted one gets its gradient and Hessian.
    Terminates when the projected-gradient norm drops below
    ``inner_tol``, when any further descent falls below double-precision
    resolution of the penalty value, or after ``_MAX_INNER_ITERS``
    iterations; a genuinely failed line search returns the best point
    found, flagged.  Returns that point, the number of accepted steps and
    the stall flag.
    """
    z = _project(z)
    fixed = _Subproblem(nu, sigma, problem)
    point = _eliminate(z, fixed)

    stalled = False
    iterations = 0
    for _ in range(_MAX_INNER_ITERS):
        grad = point.gradient
        pg = z - _project(z - grad)
        pg_norm = float(np.abs(pg).max())
        if pg_norm <= inner_tol:
            break
        direction = _newton_direction(z, point, min(_ACTIVE_EPS, pg_norm))
        t = 1.0
        accepted = False
        at_value_floor = False
        for _ in range(_MAX_HALVINGS):
            z_new = _project(z + t * direction)
            decrease = float(grad @ (z_new - z))
            if decrease >= 0.0:
                # Projection produced no usable descent direction at this
                # step length; shrink and retry.
                t *= 0.5
                continue
            if -decrease <= 1e-14 * (1.0 + abs(point.value)):
                # Any remaining descent is below the double-precision
                # resolution of the penalty value: the subproblem is solved
                # as accurately as the arithmetic allows.
                at_value_floor = True
                break
            priced = _penalty(z_new, fixed)
            if priced[0] <= point.value + _ARMIJO * decrease:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            stalled = not at_value_floor
            break
        iterations += 1
        z, point = z_new, _eliminate(z_new, fixed, priced)
    return point, iterations, stalled


def _newton_direction(z: np.ndarray, point: _ReducedPoint, eps: float) -> np.ndarray:
    """Projected Newton direction over ``z = (alpha, mu)``.

    Coordinates within ``eps`` of a bound whose gradient pushes outward
    are sent to that bound and drop out of the Hessian, as in Bertsekas'
    projected Newton method; the rest take a Newton step on the
    structured Hessian of :class:`_ReducedPoint`, by elimination of the
    ``alpha`` border and two Sherman-Morrison updates of the diagonal
    ``mu`` block.  The ``mu`` block is positive semidefinite and gets a
    relative floor; where the Schur complement of ``alpha`` is not
    positive (the objective couples ``alpha`` and ``mu`` bilinearly) the
    ``alpha`` move is a fixed-length step along its reduced descent
    direction, which keeps the whole direction a descent direction.
    The ``alpha`` move is limited to ``_ALPHA_STEP`` either way.
    """
    grad = point.gradient
    g_alpha = float(grad[0])
    mu = z[1:]
    fixed = (mu <= eps) & (grad[1:] > 0.0)
    floor = 1e-12 * max(float(point.h_diag.max()), point.h_budget1)
    diag = np.maximum(point.h_diag, floor if floor > 0.0 else 1.0)
    diag[fixed] = 1.0
    block = np.empty((mu.size, 4))
    block[:, 0] = grad[1:]
    block[:, 1] = point.h_cross
    block[:, 2] = 1.0
    block[:, 3] = point.h_ratio
    block[fixed] = 0.0
    solved = _solve_diag_plus_rank_ones(diag, (point.h_budget1, point.h_damp), block)
    inv_g, inv_w = solved[:, 0], solved[:, 1]

    direction = np.empty_like(z)
    if z[0] - ALPHA_MIN <= eps and g_alpha > 0.0:
        direction[0] = ALPHA_MIN - z[0]
        d_mu = -inv_g
    elif ALPHA_MAX - z[0] <= eps and g_alpha < 0.0:
        direction[0] = ALPHA_MAX - z[0]
        d_mu = -inv_g
    else:
        reduced = -g_alpha + float(point.h_cross @ inv_g)
        schur = point.h_alpha - float(point.h_cross @ inv_w)
        if schur > 0.0 and abs(reduced) < _ALPHA_STEP * schur:
            direction[0] = reduced / schur
        else:
            direction[0] = _ALPHA_STEP * float(np.sign(reduced))
        d_mu = -(inv_g + inv_w * direction[0])
    direction[1:] = d_mu
    direction[1:][fixed] = -mu[fixed]
    return direction


def _solve_diag_plus_rank_ones(diag: np.ndarray, weights, block: np.ndarray) -> np.ndarray:
    """Solve ``(diag(diag) + sum_k c_k u_k u_k^T) X = B``, ``block = [B | u_1 u_2 ..]``.

    Each update with ``c_k > 0`` (one per entry of ``weights``) is folded
    in by one Sherman-Morrison step applied to every column at once, in
    the form that stays finite as ``c_k`` grows without bound.  O(n) per
    column.  A step whose gain ``c_k u_k^T y_k``, with ``y_k`` the solve
    of ``u_k`` before it, exceeds ``_REFINE_GAIN`` subtracts nearly equal
    terms and loses about that factor in relative accuracy; the result
    then gets one step of iterative refinement on its residual, which
    restores the digits of a dense solve.
    """
    m = block.shape[1] - len(weights)
    updates = block[:, m:].T.copy()  # contiguous: BLAS sums a strided dot in another order
    sol = block / diag[:, None]
    steps = []
    gain = 0.0
    for k, (c, u) in enumerate(zip(weights, updates)):
        if c <= 0.0:
            continue
        y = sol[:, m + k].copy()
        uy = float(u @ y)
        gain = max(gain, c * uy)
        denom = 1.0 / c + uy
        sol -= y[:, None] * ((u @ sol) / denom)
        steps.append((c, u, y, denom))
    x = sol[:, :m]
    if gain <= _REFINE_GAIN:
        return x
    residual = block[:, :m] - diag[:, None] * x
    for c, u, _, _ in steps:
        residual -= (c * u)[:, None] * (u @ x)
    fix = residual / diag[:, None]
    for _, u, y, denom in steps:
        fix -= y[:, None] * ((u @ fix) / denom)
    return x + fix


def optimize(problem: ReducedProblem) -> AlpfResult:
    """Run the full augmented Lagrangian loop over the live pairs.

    The run starts at ``alpha = 1/2`` with an even ``1/n`` share of the
    source budget on each of the ``n`` live pairs and both slacks at
    0.05; these slacks only set the violation the first penalty test
    compares with.  The multipliers start at 0.  With
    ``w = bandwidth_hz / (2K)`` and ``slope_n = w / ln 2 / (1 + a_n / n)``,
    the rate's marginal per unit of hop-1 SNR on pair n at that point,
    both rows' penalties start at ``max(1, 10 max_n slope_n a_n)``.  Each
    outer iteration solves the penalized subproblem warm-started at the
    previous point, stops if max |c| is at most ``_EPS`` = 1e-6, and
    otherwise updates penalties then multipliers (the multiplier step
    uses the penalties in force during the solve).  At most
    ``_MAX_OUTER_ITERS`` = 100 outer iterations run, each capped at
    ``_MAX_INNER_ITERS`` = 5000 inner iterations.

    Returns the allocation with ``mu_bar = r mu``, both scaled by
    ``max(1, sum mu, sum mu_bar)`` so that the budgets hold and every
    pair stays balanced, plus a convergence report; a run that exhausts
    the outer iterations is returned with ``converged=False``.
    ``converged=True`` is feasibility only, not optimality (see
    :class:`AlpfResult`).  A problem with no live pair has rate 0, at
    ``ALPHA_MIN`` after 0 iterations.
    """
    a = problem.a_coeffs
    live = problem.live
    if not live.any():
        idle = Allocation(alpha=ALPHA_MIN, mu=np.zeros(problem.n_pairs), mu_bar=np.zeros(problem.n_pairs))
        return AlpfResult(idle, 0.0, True, 0, 0, 0.0, np.zeros(2), np.ones(2), False)
    sub = problem if live.all() else replace(problem, a_coeffs=a[live], b_coeffs=problem.b_coeffs[live])
    n = sub.n_pairs
    even = np.full(n, 1.0 / n)
    z = np.concatenate(([0.5], even))
    # The start point's violation, with both slacks at 0.05: the first
    # penalty test's reference, and the first inner tolerance's at the
    # 1e-3 cap.
    c_prev = np.full(2, even.sum() + 0.05 - 1.0)
    nu = np.zeros(2)
    # Each penalty starts at ten times the scale its multiplier settles at,
    # the rate's marginal per unit of its row's violation.  A unit start is
    # 1 bit/s per unit of violation squared: its pull hangs on the unit of
    # ``bandwidth_hz``, and the first outer iterations would only raise it
    # tenfold at a time.  The factor 10 is ALGENCAN's (Birgin & Martinez,
    # 2014); the floor of 1 keeps every penalty at least as hard as a unit
    # start.
    slope = sub.bandwidth_hz / (2.0 * sub.k_subcarriers) / _LN2 / (1.0 + sub.a_coeffs / n)
    sigma = np.full(2, max(1.0, 10.0 * float((slope * sub.a_coeffs).max())))

    converged = False
    stalled = False
    total_inner = 0
    for k in range(1, _MAX_OUTER_ITERS + 1):
        # Violation-proportional tolerance, capped: a loose early tolerance
        # lets the subproblem exit at non-stationary points whose violation
        # happens to be small, which derails the multiplier updates.
        inner_tol = max(1e-8, 0.1 * min(float(np.max(np.abs(c_prev))), 1e-2))
        point, iterations, sub_stalled = solve_subproblem(z, nu, sigma, sub, inner_tol)
        total_inner += iterations
        stalled = stalled or sub_stalled
        z = point.z
        c_new = point.residual
        final_violation = float(np.max(np.abs(c_new)))
        if final_violation <= _EPS:
            converged = True
            break
        sigma_used = sigma
        sigma = update_penalties(sigma, c_new, c_prev, k)
        nu = update_multipliers(nu, sigma_used, c_new)
        c_prev = c_new

    # The stop allows each budget an overshoot up to _EPS; one common scale
    # makes the allocation strictly feasible and keeps every pair balanced.
    scale = max(1.0, float(z[1:].sum()), float(point.mu_bar.sum()))
    mu = np.zeros(problem.n_pairs)
    mu_bar = np.zeros(problem.n_pairs)
    mu[live] = z[1:] / scale
    mu_bar[live] = point.mu_bar / scale
    allocation = Allocation(alpha=float(z[0]), mu=mu, mu_bar=mu_bar)
    return AlpfResult(
        allocation=allocation,
        rate_bps=achievable_rate(problem, allocation),
        converged=converged,
        outer_iterations=k,
        inner_iterations=total_inner,
        final_violation=final_violation,
        final_nu=nu.copy(),
        final_sigma=sigma.copy(),
        stalled=stalled,
    )


def _project(z: np.ndarray) -> np.ndarray:
    out = np.maximum(z, 0.0)
    out[0] = min(ALPHA_MAX, max(ALPHA_MIN, out[0]))
    return out


@dataclass(slots=True)
class _ReducedPoint:
    """Point ``z = (alpha, mu)`` with its eliminated slacks ``s1, s2``.

    ``residual`` is ``[c1, c2]``, and ``value`` and ``gradient`` are the
    penalty value and its gradient over ``z``.  ``h_ratio`` is ``r``,
    the relay power per unit of source power on each pair, so the
    relay powers are ``r mu``.  The Hessian over ``z`` (exact inside the
    current active set of the slacks) is kept in structured form::

        [[h_alpha, h_cross^T                                         ],
         [h_cross, diag(h_diag) + h_budget1 11^T + h_damp h_ratio h_ratio^T]]

    with ``h_budget1`` and ``h_damp`` the penalties of the binding
    budgets (0 for a slack one), so a Newton step costs O(n).
    """

    z: np.ndarray
    s1: float
    s2: float
    residual: np.ndarray
    value: float
    gradient: np.ndarray
    h_alpha: float
    h_cross: np.ndarray
    h_diag: np.ndarray
    h_budget1: float
    h_damp: float
    h_ratio: np.ndarray

    @property
    def mu_bar(self) -> np.ndarray:
        return self.h_ratio * self.z[1:]


class _Subproblem:
    """What the elimination reads from ``nu``, ``sigma`` and the problem alone."""

    __slots__ = ("a", "half_ratio", "scale", "obj_coeff", "nu", "sigma")

    def __init__(self, nu: np.ndarray, sigma: np.ndarray, problem: ReducedProblem):
        self.a = a = problem.a_coeffs
        # r = half_ratio * (1 - alpha) / alpha
        self.half_ratio = a / (2.0 * problem.b_coeffs)
        self.scale = scale = problem.bandwidth_hz / (2.0 * problem.k_subcarriers)
        self.obj_coeff = scale / _LN2 * a
        self.nu = (float(nu[0]), float(nu[1]))
        self.sigma = (float(sigma[0]), float(sigma[1]))


def _budget_row(usage: float, nu: float, sigma: float) -> tuple[float, float, float, float]:
    """Slack, residual, price and curvature of one budget row at ``usage``.

    The slack minimizing ``-nu c + sigma c^2 / 2`` with
    ``c = usage + s - 1`` over ``s >= 0`` is ``1 + nu / sigma - usage``
    where that is positive; the row then settles at ``c = nu / sigma``
    and neither its price ``dP/d usage`` nor its curvature depends on
    ``usage``.  Otherwise the slack is 0, and the budget binds with
    price ``-nu + sigma c`` and curvature ``sigma``.
    """
    shift = nu / sigma
    slack = 1.0 + shift - usage
    if slack > 0.0:
        return slack, shift, 0.0, 0.0
    c = usage - 1.0
    return 0.0, c, -nu + sigma * c, sigma


def _penalty(z: np.ndarray, fixed: _Subproblem) -> tuple:
    """Penalty value at ``z = (alpha, mu)`` with the slacks eliminated.

    Returns the value, then the intermediates it shares with the gradient
    and Hessian: ``ratio``, budget 2's usage, both ``_budget_row``s,
    ``1 + a mu`` and ``sum log2(1 + a mu)``.  The line search prices its
    trial points with this alone and completes only the accepted one by
    :func:`_eliminate`.
    """
    alpha = float(z[0])
    mu = z[1:]
    nu1, nu2 = fixed.nu
    sig1, sig2 = fixed.sigma

    ratio = fixed.half_ratio * ((1.0 - alpha) / alpha)
    usage2 = float(ratio @ mu)
    row1 = _budget_row(float(mu.sum()), nu1, sig1)
    row2 = _budget_row(usage2, nu2, sig2)
    c1, c2 = row1[1], row2[1]

    one_amu = 1.0 + fixed.a * mu
    log_sum = np.log2(one_amu).sum()
    value = (
        (alpha - 1.0) * fixed.scale * log_sum
        + (-nu1 * c1 + 0.5 * sig1 * c1 * c1)
        + (-nu2 * c2 + 0.5 * sig2 * c2 * c2)
    )
    return value, ratio, usage2, row1, row2, one_amu, log_sum


def _eliminate(z: np.ndarray, fixed: _Subproblem, priced: tuple | None = None) -> _ReducedPoint:
    """Eliminate the slacks ``(s1, s2)`` at fixed ``z = (alpha, mu)``.

    Residuals, prices, the penalty value, its gradient and its Hessian
    all fall out of the intermediates of :func:`_penalty`, which the
    caller passes as ``priced`` when it has them.  Budget 2 reads
    ``alpha`` through ``r``, whose log-derivative is ``-u`` with
    ``u = 1 / (alpha (1 - alpha))``; while it binds with price ``p2``
    and usage ``m = sum r mu`` it adds ``-u (sigma2 m + p2) r`` to the
    objective's ``(alpha, mu)`` cross term and
    ``u^2 m (sigma2 m + 2 (1 - alpha) p2)`` to the ``alpha`` curvature.
    """
    value, ratio, usage2, row1, row2, one_amu, log_sum = _penalty(z, fixed) if priced is None else priced
    s1, c1, p1, h_budget1 = row1
    s2, c2, p2, h_damp = row2
    alpha = float(z[0])
    mu = z[1:]
    a = fixed.a

    obj_slope = fixed.obj_coeff / one_amu
    u = 1.0 / (alpha * (1.0 - alpha))
    grad = np.empty(mu.size + 1)
    grad[0] = fixed.scale * log_sum - p2 * u * usage2
    grad[1:] = (alpha - 1.0) * obj_slope + p1 + p2 * ratio

    h_diag = (1.0 - alpha) * obj_slope * a / one_amu
    h_cross = obj_slope
    h_alpha = 0.0
    if h_damp > 0.0:
        pull = fixed.sigma[1] * usage2 + p2
        h_cross = h_cross - u * pull * ratio
        h_alpha = u * u * usage2 * (pull + (1.0 - 2.0 * alpha) * p2)
    return _ReducedPoint(
        z, s1, s2, np.array((c1, c2)), value, grad, h_alpha, h_cross, h_diag, h_budget1, h_damp, ratio
    )
