"""Augmented Lagrangian penalty optimizer for the reduced rate problem.

After the energy beam is fixed, maximizing the end-to-end rate of the
paired subchannels reduces to choosing the time split ``alpha`` and the
per-subchannel power fractions ``mu`` (source) and ``mu_bar`` (relay)
under two unit budgets and one SNR-balance equality per pair.  The
inequality budgets are turned into equalities with slack variables
``s1, s2``; violations are driven to zero by an augmented Lagrangian
outer loop with per-constraint multipliers and penalties:

* solve the penalized subproblem,
* stop when the violation norm is small enough,
* grow the penalty of every constraint whose violation did not shrink
  by a factor of four, then step the multipliers.

The primal vector is laid out as ``[alpha, mu (n), mu_bar (n), s1, s2]``
and the constraint vector as ``[budget1, budget2, pair 0 .. pair n-1]``.

The penalized subproblem mixes O(1) budget terms with SNR-scaled pair
terms, which makes plain projected gradient over the full vector
hopelessly ill-conditioned.  :func:`solve_subproblem` therefore works
over ``(alpha, mu)`` only, recovering ``(mu_bar, s1, s2)`` at every trial
point by exact partial minimization (closed-form for the slacks, an
exact piecewise-linear scalar solve for ``mu_bar``).  The reduced
function's Hessian is a diagonal plus two rank-one terms bordered by the
``alpha`` row, all formed from the elimination's intermediates, so each
inner iteration is a projected Newton step solved in O(n), followed by
Armijo backtracking by halving along the projection arc.  The Newton
subproblem solver follows the practice in Birgin & Martinez, *Practical
Augmented Lagrangian Methods for Constrained Optimization* (SIAM, 2014).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ehrelay.system import Allocation, ReducedProblem, achievable_rate

__all__ = [
    "ALPHA_MAX",
    "ALPHA_MIN",
    "AlpfResult",
    "SubproblemResult",
    "default_initial_point",
    "optimize",
    "pack_point",
    "penalty_gradient",
    "penalty_value",
    "solve_subproblem",
    "unpack_point",
    "update_multipliers",
    "update_penalties",
    "violation",
]

# Box clamp keeping the time split away from the singular endpoints.
ALPHA_MIN = 1e-4
ALPHA_MAX = 1.0 - 1e-4

_LN2 = float(np.log(2.0))
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
# Bound distance below which a coordinate pushed outward is held at its
# bound, and the largest time-split move of one Newton step.
_ACTIVE_EPS = 1e-3
_ALPHA_STEP = 0.25


@dataclass(frozen=True)
class SubproblemResult:
    """Outcome of one penalized subproblem solve.

    ``residual`` is the constraint violation at ``x`` in the elimination's
    cancellation-free form; at SNR-scale coefficients it is far more
    accurate than re-deriving the pair balances by subtraction.
    """

    x: np.ndarray
    residual: np.ndarray
    iterations: int
    stalled: bool


@dataclass(frozen=True)
class AlpfResult:
    """Allocation plus a convergence report.

    ``converged`` means max |c| <= ``eps``: feasibility only, not
    optimality.  At SNRs far below 1 a converged run can stop well below
    the optimum; in a seeded stress of 293 scenarios, 6 converged runs
    missed the water-filling oracle by more than 1e-3 (worst by 99%), all
    at ``d_sd = 30``.
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

    def report_text(self) -> str:
        lines = [
            f"converged: {self.converged}",
            f"outer_iterations: {self.outer_iterations}",
            f"inner_iterations: {self.inner_iterations}",
            f"final_violation: {self.final_violation!r}",
            f"rate_bps: {self.rate_bps!r}",
            f"alpha: {self.allocation.alpha!r}",
            "final_penalties: " + " ".join(repr(float(s)) for s in self.final_sigma),
            "final_multipliers: " + " ".join(repr(float(v)) for v in self.final_nu),
        ]
        if self.stalled:
            lines.append("note: inner line search stalled at least once")
        return "\n".join(lines)


def pack_point(alpha: float, mu, mu_bar, s1: float, s2: float) -> np.ndarray:
    """Flatten the primal variables into a single vector."""
    mu = np.asarray(mu, dtype=float)
    mu_bar = np.asarray(mu_bar, dtype=float)
    return np.concatenate([[float(alpha)], mu, mu_bar, [float(s1), float(s2)]])


def unpack_point(x: np.ndarray, n_pairs: int):
    """Inverse of :func:`pack_point`."""
    alpha = float(x[0])
    mu = x[1 : 1 + n_pairs]
    mu_bar = x[1 + n_pairs : 1 + 2 * n_pairs]
    s1 = float(x[1 + 2 * n_pairs])
    s2 = float(x[2 + 2 * n_pairs])
    return alpha, mu, mu_bar, s1, s2


def default_initial_point(problem: ReducedProblem) -> np.ndarray:
    """Standard starting point: even split, small positive slacks."""
    n = problem.n_pairs
    return pack_point(0.5, np.full(n, 1.0 / n), np.full(n, 1.0 / n), 0.05, 0.05)


def violation(x: np.ndarray, problem: ReducedProblem) -> np.ndarray:
    """Constraint residuals ``[budget1, budget2, pair balances...]``.

    Budget residuals are ``sum + slack - 1``; each pair residual is the
    hop-1 SNR minus the hop-2 SNR of that pair.
    """
    alpha, mu, mu_bar, s1, s2 = unpack_point(x, problem.n_pairs)
    g = _duty_ratio(alpha)
    c1 = mu.sum() + s1 - 1.0
    c2 = mu_bar.sum() + s2 - 1.0
    pairs = problem.a_coeffs * mu - g * problem.b_coeffs * mu_bar
    return np.concatenate([[c1, c2], pairs])


def penalty_value(x: np.ndarray, nu: np.ndarray, sigma: np.ndarray, problem: ReducedProblem) -> float:
    """Augmented Lagrangian penalty function (to be minimized).

    Objective part is the negated rate ``(alpha - 1) B / (2K) * sum
    log2(1 + a mu)``; each constraint contributes ``-nu c + sigma c^2 / 2``.

    Raises:
        ValueError: at ``alpha >= 1`` where the time-split factor blows up.
    """
    alpha, mu, _, _, _ = unpack_point(x, problem.n_pairs)
    if alpha >= 1.0:
        raise ValueError("alpha must be < 1")
    c = violation(x, problem)
    prefactor = (alpha - 1.0) * problem.bandwidth_hz / (2.0 * problem.k_subcarriers)
    obj = prefactor * float(np.sum(np.log2(1.0 + problem.a_coeffs * mu)))
    return obj + float(np.sum(-nu * c + 0.5 * sigma * c * c))


def penalty_gradient(x: np.ndarray, nu: np.ndarray, sigma: np.ndarray, problem: ReducedProblem) -> np.ndarray:
    """Analytic gradient of :func:`penalty_value` w.r.t. the primal vector.

    The ``alpha`` component collects both the objective prefactor and the
    chain term of the time-split factor, whose derivative is
    ``2 / (1 - alpha)^2``.
    """
    n = problem.n_pairs
    alpha, mu, mu_bar, _, _ = unpack_point(x, n)
    if alpha >= 1.0:
        raise ValueError("alpha must be < 1")
    a = problem.a_coeffs
    b = problem.b_coeffs
    g = _duty_ratio(alpha)
    c = violation(x, problem)
    price = -nu + sigma * c  # d(penalty terms)/dc, per constraint
    p1, p2 = price[0], price[1]
    p_pair = price[2:]

    scale = problem.bandwidth_hz / (2.0 * problem.k_subcarriers)
    grad = np.zeros_like(x)
    grad[0] = scale * float(np.sum(np.log2(1.0 + a * mu))) + float(
        np.sum(p_pair * (-2.0 / (1.0 - alpha) ** 2 * b * mu_bar))
    )
    grad[1 : 1 + n] = (alpha - 1.0) * scale / _LN2 * a / (1.0 + a * mu) + p1 + p_pair * a
    grad[1 + n : 1 + 2 * n] = p2 - p_pair * g * b
    grad[1 + 2 * n] = p1
    grad[2 + 2 * n] = p2
    return grad


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
    x: np.ndarray,
    nu: np.ndarray,
    sigma: np.ndarray,
    problem: ReducedProblem,
    inner_tol: float,
    max_inner_iters: int,
) -> SubproblemResult:
    """Approximately minimize the penalty over the box, from ``x``.

    The multipliers ``nu`` and penalties ``sigma`` stay fixed.  Projected
    Newton over ``(alpha, mu)`` with Armijo backtracking (halving from
    trial step 1.0) along the projection arc.
    ``(mu_bar, s1, s2)`` are restored by exact partial minimization at
    every trial point, so the returned point never has a larger penalty
    value than the input point.  Terminates when the projected-gradient
    norm drops below ``inner_tol``, when any further descent falls below
    double-precision resolution of the penalty value, or at the
    iteration cap; a genuinely failed line search returns the best point
    found, flagged.
    """
    z = _project(x[: 1 + problem.n_pairs])
    point = _assemble(z, nu, sigma, problem)

    stalled = False
    iterations = 0
    for _ in range(max_inner_iters):
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
            point_new = _assemble(z_new, nu, sigma, problem)
            if point_new.value <= point.value + _ARMIJO * decrease:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            stalled = not at_value_floor
            break
        iterations += 1
        z, point = z_new, point_new
    return SubproblemResult(x=point.x, residual=point.residual, iterations=iterations, stalled=stalled)


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
    the form that stays exact as ``c_k`` grows without bound.  O(n) per
    column.
    """
    m = block.shape[1] - len(weights)
    updates = block[:, m:].T.copy()  # contiguous: BLAS sums a strided dot in another order
    sol = block / diag[:, None]
    for k, (c, u) in enumerate(zip(weights, updates)):
        if c <= 0.0:
            continue
        y = sol[:, m + k].copy()
        sol -= y[:, None] * ((u @ sol) / (1.0 / c + float(u @ y)))
    return sol[:, :m]


def optimize(
    problem: ReducedProblem,
    init: np.ndarray | None = None,
    eps: float = 1e-6,
    max_outer_iters: int = 100,
    max_inner_iters: int = 5000,
) -> AlpfResult:
    """Run the full augmented Lagrangian loop.

    Each outer iteration solves the penalized subproblem warm-started at
    the previous point, stops if the violation norm is at most ``eps``,
    and otherwise updates penalties then multipliers; the multiplier
    step uses the penalties that were in force during the subproblem
    solve.

    Returns the allocation with slacks stripped, budgets rescaled to at
    most 1 and each pair trimmed to its weaker hop, plus a convergence
    report; a run that exhausts ``max_outer_iters`` is returned with
    ``converged=False`` and its final violation.  ``converged=True`` is
    feasibility only, not optimality (see :class:`AlpfResult`).
    """
    n = problem.n_pairs
    x = default_initial_point(problem) if init is None else np.asarray(init, dtype=float).copy()
    if x.shape != (2 * n + 3,):
        raise ValueError(f"init must have length {2 * n + 3}")
    if not ALPHA_MIN <= x[0] <= ALPHA_MAX or np.min(x[1:]) < 0.0:
        raise ValueError("init must lie inside the box")

    nu = np.zeros(n + 2)
    sigma = np.ones(n + 2)
    c_prev = violation(x, problem)
    final_violation = float(np.max(np.abs(c_prev)))

    converged = False
    stalled = False
    total_inner = 0
    outer_used = 0
    for k in range(1, max_outer_iters + 1):
        # Violation-proportional tolerance, capped: a loose early tolerance
        # lets the subproblem exit at non-stationary points whose violation
        # happens to be small, which derails the multiplier updates.
        inner_tol = max(1e-8, 0.1 * min(float(np.max(np.abs(c_prev))), 1e-2))
        sub = solve_subproblem(x, nu, sigma, problem, inner_tol, max_inner_iters)
        total_inner += sub.iterations
        stalled = stalled or sub.stalled
        c_new = sub.residual
        x = sub.x
        final_violation = float(np.max(np.abs(c_new)))
        outer_used = k
        if final_violation <= eps:
            converged = True
            break
        sigma_used = sigma
        sigma = update_penalties(sigma, c_new, c_prev, k)
        nu = update_multipliers(nu, sigma_used, c_new)
        c_prev = c_new

    alpha, mu, mu_bar, _, _ = unpack_point(x, n)
    mu = np.clip(mu, 0.0, None)
    mu_bar = np.clip(mu_bar, 0.0, None)
    # The convergence tolerance allows budget overshoot up to eps; rescale
    # so the reported allocation is strictly feasible.
    mu = mu / max(1.0, mu.sum())
    mu_bar = mu_bar / max(1.0, mu_bar.sum())
    # It also allows pair imbalance up to eps, which is not small next to
    # the SNR of a nearly switched-off pair; trim each pair to the smaller
    # of its hop SNRs.  That only lowers powers and keeps min(r1, r2).
    mu, mu_bar = _balance_pairs(problem, alpha, mu, mu_bar)
    allocation = Allocation(alpha=alpha, mu=mu, mu_bar=mu_bar)
    return AlpfResult(
        allocation=allocation,
        rate_bps=achievable_rate(problem, allocation),
        converged=converged,
        outer_iterations=outer_used,
        inner_iterations=total_inner,
        final_violation=final_violation,
        final_nu=nu.copy(),
        final_sigma=sigma.copy(),
        stalled=stalled,
    )


def _balance_pairs(problem: ReducedProblem, alpha: float, mu: np.ndarray, mu_bar: np.ndarray):
    """Lower the stronger hop of every pair to the SNR of the weaker one."""
    hop1 = problem.a_coeffs * mu
    hop2_coeff = _duty_ratio(alpha) * problem.b_coeffs
    hop2 = hop2_coeff * mu_bar
    snr = np.minimum(hop1, hop2)
    mu = np.divide(snr, problem.a_coeffs, out=mu.copy(), where=hop1 > snr)
    mu_bar = np.divide(snr, hop2_coeff, out=mu_bar.copy(), where=hop2 > snr)
    return mu, mu_bar


def _duty_ratio(alpha: float) -> float:
    if alpha >= 1.0:
        raise ValueError("alpha must be < 1")
    return 2.0 * alpha / (1.0 - alpha)


def _project(z: np.ndarray) -> np.ndarray:
    out = np.maximum(z, 0.0)
    out[0] = min(ALPHA_MAX, max(ALPHA_MIN, out[0]))
    return out


@dataclass(slots=True)
class _ReducedPoint:
    """Point ``z = (alpha, mu)`` with its eliminated ``(mu_bar, s1, s2)``.

    ``residual`` is the constraint vector, derived from the elimination's
    stationarity conditions rather than recomputed by subtraction.  At
    SNR-scale coefficients the direct difference ``a mu - g b mu_bar``
    loses all significant digits once the pair penalties grow, which
    turns numerically computed gradients into noise; the analytic forms
    stay exact.

    ``value`` and ``gradient`` are the penalty value and its gradient over
    ``z``.  The Hessian over ``z`` (exact inside the current active set of
    the elimination) is kept in structured form::

        [[h_alpha, h_cross^T                                         ],
         [h_cross, diag(h_diag) + h_budget1 11^T + h_damp h_ratio h_ratio^T]]

    so a Newton step costs O(n).
    """

    z: np.ndarray
    mu_bar: np.ndarray
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
    def x(self) -> np.ndarray:
        """The full primal vector, laid out as :func:`pack_point` lays it out."""
        return np.concatenate((self.z, self.mu_bar, (self.s1, self.s2)))


def _assemble(z: np.ndarray, nu: np.ndarray, sigma: np.ndarray, problem: ReducedProblem) -> _ReducedPoint:
    """Eliminate ``(mu_bar, s1, s2)`` at fixed ``z = (alpha, mu)``.

    The slack of budget 1 separates into a clipped affine expression.
    The ``mu_bar`` block minimizes a strictly convex quadratic whose
    stationarity reduces to one scalar equation in the budget-2 price;
    that equation is piecewise linear and solved exactly by a breakpoint
    sweep.  Residuals, prices, the penalty value, its reduced gradient
    and its Hessian all fall out of the same intermediates.

    Hessian terms, with ``I`` the pairs whose ``mu_bar`` is interior and
    ``t`` the budget-2 price: the objective's log curvature on the
    diagonal and its ``(alpha, mu)`` cross term; ``sigma a^2`` on the
    diagonal of each clipped pair; ``sigma1 11^T`` while budget 1 binds;
    and, while budget 2 binds, the price response ``damp r r^T`` with
    ``r = a / (g b)`` on ``I``, ``damp = sigma2 / (1 + sigma2 k)`` and
    ``k = sum_I 1 / (sigma d^2)``, together with the ``alpha`` border it
    induces through ``d = g b``.
    """
    n = problem.n_pairs
    alpha = float(z[0])
    mu = z[1:]
    a = problem.a_coeffs
    b = problem.b_coeffs
    nu1, nu2 = float(nu[0]), float(nu[1])
    sig1, sig2 = float(sigma[0]), float(sigma[1])
    nu_pair = nu[2:]
    sig_pair = sigma[2:]
    scale = problem.bandwidth_hz / (2.0 * problem.k_subcarriers)

    # Budget 1: slack absorbs everything up to the multiplier shift.
    mu_sum = float(mu.sum())
    s1 = 1.0 + nu1 / sig1 - mu_sum
    if s1 > 0.0:
        c1 = nu1 / sig1
        p1 = 0.0
    else:
        s1 = 0.0
        c1 = mu_sum - 1.0
        p1 = -nu1 + sig1 * c1

    g = 2.0 * alpha / (1.0 - alpha)
    d = g * b
    a_mu = a * mu
    shift = nu_pair / sig_pair
    q = a_mu - shift
    r = 1.0 + nu2 / sig2

    # A pair with d = 0 (no hop-2 gain) gets no relay power.
    live = d > 0.0
    if live.all():
        d_safe, mu_bar = d, np.maximum(q, 0.0) / d
    else:
        d_safe = np.where(live, d, 1.0)
        mu_bar = np.where(live, np.maximum(q, 0.0) / d_safe, 0.0)
    total = float(mu_bar.sum())

    k_resp = 0.0
    t2 = 0.0
    if total <= r:
        s2 = max(0.0, r - total)
    else:
        # Positive budget-2 price t solving t = sig2 * (sum mu_bar(t) - r).
        act = live & (q > 0.0)
        qd = mu_bar[act]  # value at t = 0
        slope = 1.0 / (sig_pair[act] * d[act] ** 2)  # -d mu_bar / d t
        tau = qd / slope  # price at which this pair's mu_bar reaches 0
        order = np.argsort(tau)
        tau_s = tau[order]
        # Suffix sums from each breakpoint on; the leading zero is the empty sum.
        parts = np.zeros((2, tau.size + 1))
        parts[0, 1:] = qd[order[::-1]]
        parts[1, 1:] = slope[order[::-1]]
        suf_q, suf_k = np.cumsum(parts, axis=1)[:, ::-1]
        lo = 0.0
        for i in range(tau_s.size + 1):
            hi = float(tau_s[i]) if i < tau_s.size else np.inf
            cand = sig2 * (suf_q[i] - r) / (1.0 + sig2 * suf_k[i])
            if lo - 1e-300 <= cand <= hi:
                t2 = cand
                k_resp = float(suf_k[i])
                break
            lo = hi
        else:  # pragma: no cover - the sweep is exhaustive
            raise RuntimeError("price sweep failed to bracket the budget-2 price")
        bar = np.zeros(n)
        bar[act] = np.maximum(qd - slope * t2, 0.0)
        mu_bar = bar
        s2 = 0.0

    if s2 > 0.0:
        c2 = nu2 / sig2
    else:
        c2 = (nu2 + t2) / sig2 if t2 > 0.0 else mu_bar.sum() - 1.0

    # Pair residuals: where mu_bar is interior its stationarity gives the
    # residual exactly; where it is clipped to zero the residual is the
    # plain product a mu (no cancellation either way).  The masks are only
    # needed when some pair is clipped.
    interior = mu_bar > 0.0
    clipped = not interior.all()
    c_pair = shift + t2 / (sig_pair * d_safe)
    p_pair = t2 / d_safe
    if clipped:
        c_pair = np.where(interior, c_pair, a_mu)
        p_pair = np.where(interior, p_pair, -nu_pair + sig_pair * a_mu)

    # Value, gradient and curvature share the intermediates.
    one_amu = 1.0 + a_mu
    log_sum = np.log2(one_amu).sum()
    value = (
        (alpha - 1.0) * scale * log_sum
        + (-nu1 * c1 + 0.5 * sig1 * c1 * c1)
        + (-nu2 * c2 + 0.5 * sig2 * c2 * c2)
        + (-nu_pair * c_pair + 0.5 * sig_pair * c_pair * c_pair).sum()
    )

    g1 = 2.0 / (1.0 - alpha) ** 2
    grad = np.empty(n + 1)
    grad[0] = scale * log_sum - g1 * (p_pair * (b * mu_bar)).sum()
    grad[1:] = (alpha - 1.0) * scale / _LN2 * a / one_amu + p1 + p_pair * a

    obj_slope = scale / _LN2 * a / one_amu
    h_diag = (1.0 - alpha) * obj_slope * a / one_amu
    if clipped:
        h_diag += np.where(interior, 0.0, sig_pair * a * a)
    h_cross = obj_slope
    h_alpha = 0.0
    damp = 0.0
    ratio = np.zeros(n)
    if t2 > 0.0:
        # d scales with g, so d/dalpha acts as (g1 / g) times a uniform
        # rescaling of d, under which the price t and the interior total
        # m respond through the same factor (t k - m) / (1 + sig2 k).
        u = g1 / g
        m_int = float(mu_bar.sum())
        denom = 1.0 + sig2 * k_resp
        damp = sig2 / denom
        ratio = np.where(interior, a / d_safe, 0.0) if clipped else a / d_safe
        h_cross = h_cross - u * (sig2 * m_int + t2) / denom * ratio
        h_alpha = u * u * (
            (1.0 - 2.0 * alpha) * t2 * m_int + (m_int - t2 * k_resp) * (sig2 * m_int + t2) / denom
        )

    residual = np.empty(n + 2)
    residual[0] = c1
    residual[1] = c2
    residual[2:] = c_pair
    h_budget1 = sig1 if s1 <= 0.0 else 0.0
    return _ReducedPoint(
        z, mu_bar, s1, s2, residual, value, grad, h_alpha, h_cross, h_diag, h_budget1, damp, ratio
    )
