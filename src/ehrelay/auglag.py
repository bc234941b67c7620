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
so each inner iteration is a projected Newton step, solved in O(n) by
Woodbury's identity, per-row inner products and a 2x2 capacitance solve,
or by an orthogonal split of the scaled block where the penalties' gain
would cancel that small solve's digits, and followed by Armijo
backtracking by halving along the projection arc.
The Newton subproblem solver follows the practice in Birgin & Martinez,
*Practical Augmented Lagrangian Methods for Constrained Optimization*
(SIAM, 2014).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf

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
# Rounding gain (a row's ``sigma u^T D^-1 u``, row 1's times row 2's pivot cancellation)
# up to which the 2x2 capacitance solve keeps 10 digits; above it the orthogonal solve takes over.
_WOODBURY_GAIN = 1e4
# Stopping violation and the outer and per-subproblem inner iteration caps.
_EPS = 1e-6
_MAX_OUTER_ITERS = 100
_MAX_INNER_ITERS = 5000


@dataclass(frozen=True)
class AlpfResult:
    """Allocation plus a convergence report.

    ``converged`` means max |c| <= 1e-6 (``_EPS``) over the two budget
    rows, after a last subproblem that stopped short of its inner cap
    ``_MAX_INNER_ITERS``: feasibility only, not optimality.  At SNRs far
    below 1 a converged run can stop well below the optimum; ``ehrelay
    selftest --trials 150`` prints each seeded stress instance where a run
    misses the water-filling oracle by over 1% or falls below the benchmark.
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


def update_multipliers(nu: float, sigma: float, violation: float) -> float:
    """Multiplier step of one row: ``nu`` moves by ``-sigma * c``."""
    return nu - sigma * violation


def update_penalties(sigma: float, violation_new: float, violation_old: float, outer_iter: int) -> float:
    """One row's penalty: kept when ``|c_new| <= |c_old| / 4``, otherwise grown
    to ``max(10 sigma, k^2)`` where ``k`` is the 1-based outer iteration."""
    if outer_iter < 1:
        raise ValueError("outer_iter must be >= 1")
    if abs(violation_new) <= 0.25 * abs(violation_old):
        return sigma
    return max(10.0 * sigma, float(outer_iter) ** 2)


def solve_subproblem(
    z: np.ndarray, nu, sigma, problem: ReducedProblem, inner_tol: float
) -> tuple[_ReducedPoint, int, bool]:
    """Approximately minimize the penalty over the box, from ``z = (alpha, mu)``.

    Every pair of ``problem`` must have ``b > 0``; ``optimize`` passes
    the live pairs only.  The two rows' multipliers ``nu`` and penalties
    ``sigma`` stay fixed.  Projected Newton over ``z`` with Armijo backtracking
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
        pg_norm = float(np.maximum.reduce(np.abs(pg)))
        if pg_norm <= inner_tol:
            break
        direction = _newton_direction(z, point, min(_ACTIVE_EPS, pg_norm))
        t = 1.0
        accepted = False
        at_value_floor = False
        for _ in range(_MAX_HALVINGS):
            z_new = _project(z + (direction if t == 1.0 else t * direction))
            decrease = float(grad.dot(z_new - z))
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
    ``alpha`` border.  The ``mu`` block ``D + U C U^T`` (``U = [1, r]``, ``C``
    the binding rows' penalties) is solved by Woodbury's identity (Hager, SIAM
    Review 31(2), 1989): the rows ``g_mu, h_cross, 1, r`` are divided once by
    ``D``, three matrix-vector products give their inner products with
    ``h_cross``, 1 and ``r``, the 2x2 capacitance system ``C^-1 + U^T D^-1 U``
    is solved in floats with row 1 eliminated first, and one more product
    forms ``d_mu``.  Where that solve's rounding gain exceeds ``_WOODBURY_GAIN``
    it would cancel catastrophically, and :func:`_orthogonal_solve` takes the
    step; a held coordinate's unit row there solves to 0.  The ``mu`` block
    is positive semidefinite and gets a relative floor; where the Schur
    complement of ``alpha`` is not positive (the objective couples ``alpha``
    and ``mu`` bilinearly) the ``alpha`` move is a fixed-length step along its
    reduced descent direction, which keeps the whole direction a descent
    direction.
    The ``alpha`` move is limited to ``_ALPHA_STEP`` either way.
    """
    grad = point.gradient
    g_alpha = float(grad[0])
    mu = z[1:]
    fixed = (mu <= eps) & (grad[1:] > 0.0)
    held = fixed.any()
    floor = 1e-12 * max(float(np.maximum.reduce(point.h_diag)), point.h_budget1)
    diag = np.maximum(point.h_diag, floor if floor > 0.0 else 1.0)
    block = point.block
    if held:
        diag[fixed] = 1.0
        block = np.where(fixed, 0.0, block)
    sol = block / diag
    c1, c2 = point.h_budget1, point.h_damp
    # ndarray.dot, not @: the same BLAS call at a third of matmul's dispatch cost.
    g1, w1, s11, s1r = sol.dot(block[2]).tolist()
    g2, w2, _, srr = sol.dot(block[3]).tolist()
    # A slack row has no penalty; 1 / sigma = inf drops it from the 2x2 system.
    pivot1 = (1.0 / c1 if c1 > 0.0 else inf) + s11
    lead = s1r / pivot1
    left = srr - lead * s1r  # cancels by srr / left where the rows are nearly parallel
    woodbury = max(c1 * s11 * srr, c2 * left * left) <= _WOODBURY_GAIN * left
    if woodbury:
        pivot2 = (1.0 / c2 if c2 > 0.0 else inf) + left
        # x1 and x2 weigh the rows 1 and r of sol in the solutions for g_mu and h_cross.
        x2g, x2w = (g2 - lead * g1) / pivot2, (w2 - lead * w1) / pivot2
        x1g, x1w = (g1 - s1r * x2g) / pivot1, (w1 - s1r * x2w) / pivot1
        hg, hw, h1, hr = sol.dot(block[1]).tolist()  # h_cross against every row of sol
        h_g, h_w = hg - x1g * h1 - x2g * hr, hw - x1w * h1 - x2w * hr
    else:
        inv = _orthogonal_solve(block, diag, c1, c2)
        h_g, h_w = float(point.block[1] @ inv[0]), float(point.block[1] @ inv[1])
    direction = np.empty_like(z)
    step = 0.0
    if z[0] - ALPHA_MIN <= eps and g_alpha > 0.0:
        direction[0] = ALPHA_MIN - z[0]
    elif ALPHA_MAX - z[0] <= eps and g_alpha < 0.0:
        direction[0] = ALPHA_MAX - z[0]
    else:
        reduced, schur = h_g - g_alpha, point.h_alpha - h_w
        if schur > 0.0 and abs(reduced) < _ALPHA_STEP * schur:
            step = reduced / schur
        else:
            step = _ALPHA_STEP * float(np.sign(reduced))
        direction[0] = step
    if woodbury:
        direction[1:] = np.array((-1.0, -step, x1g + step * x1w, x2g + step * x2w)).dot(sol)
    else:
        direction[1:] = -(inv[0] + inv[1] * step)
    if held:
        direction[1:][fixed] = -mu[fixed]
    return direction


def _orthogonal_solve(block: np.ndarray, diag: np.ndarray, c1: float, c2: float) -> np.ndarray:
    """Solutions for ``g_mu`` and ``h_cross`` of ``D + U C U^T`` in O(n): with ``D^-1/2 U C^1/2 = QR``
    the scaled block is ``I + Q R R^T Q^T``; a side's part orthogonal to ``Q`` (split off twice,
    so no rounding of the whole side stays along ``Q``) passes unchanged, its part along ``Q``
    takes the 2x2 ``(I + R R^T)^-1``, an adjugate over a determinant of positive terms."""
    scale = 1.0 / np.sqrt(diag)
    q, r = np.linalg.qr((block[2:] * scale * np.sqrt([[c1], [c2]])).T)
    if len(r) == 1:  # one coordinate: a zero second column keeps the 2x2 form
        q, r = np.hstack((q, [[0.0]])), np.vstack((r, [[0.0, 0.0]]))
    rhs = block[:2] * scale
    along = rhs @ q
    rest = rhs - along @ q.T
    fix = rest @ q
    rest -= fix @ q.T
    (r11, r12), (_, r22) = r.tolist()
    det = 1.0 + r11 * r11 + r12 * r12 + r22 * r22 + (r11 * r22) ** 2
    inv_m = np.array(((1.0 + r22 * r22, -r12 * r22), (-r12 * r22, 1.0 + r11 * r11 + r12 * r12))) / det
    return (rest + (along + fix) @ inv_m @ q.T) * scale


def optimize(problem: ReducedProblem) -> AlpfResult:
    """Run the full augmented Lagrangian loop over the live pairs.

    The run starts with an even ``1/n`` share of the source budget on each
    of the ``n`` live pairs, at ``alpha = min(1/2, g / (2 + g))`` floored
    at ``ALPHA_MIN``, with ``g`` the mean ``a_n / b_n``: the split at which
    that share spends the relay budget exactly.  A strong relay thus starts
    next to its optimum instead of walking ``alpha`` down the step cap.
    Above 1/2 the start stays at 1/2: a weak relay's optimum drops its
    expensive pairs and needs less time than the even share, and starting
    every solve at ``g / (2 + g)`` raised the phi sweep's inner iterations
    by 17%.  Both slacks start at 0.05; they only set the violation the
    first penalty test compares with.  The multipliers start at 0.  With
    ``w = bandwidth_hz / (2K)`` and ``slope_n = w / ln 2 / (1 + a_n / n)``,
    the rate's marginal per unit of hop-1 SNR on pair n at that point,
    both rows' penalties start at ``max(1, 10 max_n slope_n a_n)``.  Each
    outer iteration solves the penalized subproblem warm-started at the
    previous point, stops if max |c| is at most ``_EPS`` = 1e-6, and
    otherwise steps each row's multiplier (a Python float, as its penalty
    is) with the penalty in force during the solve, then grows it.  At most
    ``_MAX_OUTER_ITERS`` = 100 outer iterations run, each capped at
    ``_MAX_INNER_ITERS`` = 5000 inner iterations.

    Returns the allocation with ``mu_bar = r mu``, both scaled by
    ``max(1, sum mu, sum mu_bar)`` so that the budgets hold and every
    pair stays balanced, plus a convergence report; a run that exhausts
    the outer iterations, or whose last subproblem stopped at the inner
    cap, is returned with ``converged=False``.
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
    # The even start's relay usage is g / (2 alpha / (1 - alpha)); each ratio
    # is divided by n before the sum, which then cannot overflow.
    g = float(np.add.reduce(sub.a_coeffs / sub.b_coeffs / n))
    z = np.concatenate(([max(ALPHA_MIN, min(0.5, g / (2.0 + g)))], even))
    # The start point's violation, with both slacks at 0.05: the first
    # penalty test's reference, and the first inner tolerance's at the
    # 1e-3 cap.
    c_prev = (float(even.sum()) + 0.05 - 1.0,) * 2
    nu = (0.0, 0.0)
    # Each penalty starts at ten times the scale its multiplier settles at,
    # the rate's marginal per unit of its row's violation.  A unit start is
    # 1 bit/s per unit of violation squared: its pull hangs on the unit of
    # ``bandwidth_hz``, and the first outer iterations would only raise it
    # tenfold at a time.  The factor 10 is ALGENCAN's (Birgin & Martinez,
    # 2014); the floor of 1 keeps every penalty at least as hard as a unit
    # start.
    slope = sub.bandwidth_hz / (2.0 * sub.k_subcarriers) / _LN2 / (1.0 + sub.a_coeffs / n)
    sigma = (max(1.0, 10.0 * float((slope * sub.a_coeffs).max())),) * 2

    converged = False
    stalled = False
    total_inner = 0
    for k in range(1, _MAX_OUTER_ITERS + 1):
        # Violation-proportional tolerance, capped: a loose early tolerance
        # lets the subproblem exit at non-stationary points whose violation
        # happens to be small, which derails the multiplier updates.
        inner_tol = max(1e-8, 0.1 * min(max(map(abs, c_prev)), 1e-2))
        point, iterations, sub_stalled = solve_subproblem(z, nu, sigma, sub, inner_tol)
        total_inner += iterations
        stalled = stalled or sub_stalled
        z = point.z
        c_new = point.residual
        final_violation = max(map(abs, c_new))
        if final_violation <= _EPS:
            converged = iterations < _MAX_INNER_ITERS
            break
        # The multiplier step uses the penalties in force during the solve.
        nu = tuple(map(update_multipliers, nu, sigma, c_new))
        sigma = tuple(update_penalties(*row, k) for row in zip(sigma, c_new, c_prev))
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
        final_nu=np.array(nu),
        final_sigma=np.array(sigma),
        stalled=stalled,
    )


def _project(z: np.ndarray) -> np.ndarray:
    out = np.maximum(z, 0.0)
    out[0] = min(ALPHA_MAX, max(ALPHA_MIN, out[0]))
    return out


@dataclass(slots=True)
class _ReducedPoint:
    """Point ``z = (alpha, mu)`` with its eliminated slacks ``s1, s2``.

    ``residual`` is ``(c1, c2)``, and ``value`` and ``gradient`` are the
    penalty value and its gradient over ``z``.  ``block`` holds the rows
    ``g_mu, h_cross, 1, r`` the Newton step reads; ``r`` is the relay power
    per unit of source power on each pair.  The Hessian over ``z`` (exact inside the
    current active set of the slacks) is kept in structured form::

        [[h_alpha, h_cross^T                                  ],
         [h_cross, diag(h_diag) + h_budget1 11^T + h_damp r r^T]]

    with ``h_budget1`` and ``h_damp`` the penalties of the binding
    budgets (0 for a slack one), so a Newton step costs O(n).
    """

    z: np.ndarray
    s1: float
    s2: float
    residual: tuple[float, float]
    value: float
    gradient: np.ndarray
    h_alpha: float
    h_diag: np.ndarray
    h_budget1: float
    h_damp: float
    block: np.ndarray

    @property
    def mu_bar(self) -> np.ndarray:
        return self.block[3] * self.z[1:]


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
    usage2 = float(ratio.dot(mu))
    row1 = _budget_row(float(np.add.reduce(mu)), nu1, sig1)
    row2 = _budget_row(usage2, nu2, sig2)
    c1, c2 = row1[1], row2[1]

    one_amu = 1.0 + fixed.a * mu
    log_sum = np.add.reduce(np.log2(one_amu))
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

    u = 1.0 / (alpha * (1.0 - alpha))
    grad = np.empty(mu.size + 1)
    grad[0] = fixed.scale * log_sum - p2 * u * usage2
    block = np.empty((4, mu.size))
    grad_mu, h_cross, ones, r = block
    obj_slope = np.divide(fixed.obj_coeff, one_amu, out=h_cross)
    np.multiply(alpha - 1.0, obj_slope, out=grad_mu)
    grad_mu += p1
    grad_mu += p2 * ratio
    grad[1:] = grad_mu
    ones[:], r[:] = 1.0, ratio

    h_diag = (1.0 - alpha) * obj_slope * a / one_amu
    h_alpha = 0.0
    if h_damp > 0.0:
        pull = fixed.sigma[1] * usage2 + p2
        h_cross -= u * pull * ratio
        h_alpha = u * u * usage2 * (pull + (1.0 - 2.0 * alpha) * p2)
    return _ReducedPoint(z, s1, s2, (c1, c2), value, grad, h_alpha, h_diag, h_budget1, h_damp, block)
