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

The constraint vector, and with it the multipliers ``nu`` and penalties
``sigma``, is laid out as ``[budget1, budget2, pair 0 .. pair n-1]``.

The penalized subproblem mixes O(1) budget terms with SNR-scaled pair
terms, which makes plain projected gradient over every primal variable
hopelessly ill-conditioned.  The solver therefore iterates on the point
``z = (alpha, mu)`` only, recovering ``(mu_bar, s1, s2)`` at every trial
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
# Stopping violation and the outer and per-subproblem inner iteration caps.
_EPS = 1e-6
_MAX_OUTER_ITERS = 100
_MAX_INNER_ITERS = 5000


@dataclass(frozen=True)
class AlpfResult:
    """Allocation plus a convergence report.

    ``converged`` means max |c| <= 1e-6 (``_EPS``): feasibility only, not
    optimality.  At SNRs far below 1 a converged run can stop well below
    the optimum.  In seeded stresses (``BENCH_alpf_start.json``) every run
    converged.  Of 150 scenarios at ``d_sd = 30`` and 1 mW to 0.1 W, 10
    missed the water-filling oracle by more than 1e-3 (one by 99.99%), all
    where the oracle's time split exceeds 0.9; of 150 scenarios over
    ``d_sd`` 1 to 30 and 1 mW to 1 kW, one did (by 2.3%).  The 1e-6 is
    absolute on the pair rows too, so a pair at an SNR far below 1 can be
    left unbalanced by a relative 1e-5 and trimmed by that much.
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

    The multipliers ``nu`` and penalties ``sigma`` stay fixed.  Projected
    Newton over ``z`` with Armijo backtracking (halving from trial step
    1.0) along the projection arc.  ``(mu_bar, s1, s2)`` are restored by
    exact partial minimization at every trial point, so the returned
    point never has a larger penalty value than the projected start.
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
            point_new = _eliminate(z_new, fixed)
            if point_new.value <= point.value + _ARMIJO * decrease:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            stalled = not at_value_floor
            break
        iterations += 1
        z, point = z_new, point_new
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


def optimize(problem: ReducedProblem) -> AlpfResult:
    """Run the full augmented Lagrangian loop.

    The run starts at ``alpha = 1/2`` with an even ``1/n`` share of each
    budget on every pair and both slacks at 0.05; these ``mu_bar`` and
    slacks only set the violation the first penalty test compares with.
    The multipliers start at 0.  With ``w = bandwidth_hz / (2K)`` and
    ``slope_n = w / ln 2 / (1 + a_n / n)``, the rate's marginal per unit
    of hop-1 SNR on pair n at that point, pair row n's penalty starts at
    ``max(1, 10 slope_n)`` and both budget rows' at ``max(1, 10 max_n
    slope_n a_n)``.  Each outer iteration solves the penalized
    subproblem warm-started at the previous point, stops if max |c| is at most
    ``_EPS`` = 1e-6, and otherwise updates penalties then multipliers
    (the multiplier step uses the penalties in force during the solve).
    At most ``_MAX_OUTER_ITERS`` = 100 outer iterations run, each capped
    at ``_MAX_INNER_ITERS`` = 5000 inner iterations.

    Returns the allocation with slacks stripped, budgets rescaled to at
    most 1 and each pair trimmed to its weaker hop, plus a convergence
    report; a run that exhausts the outer iterations is returned with
    ``converged=False``.  ``converged=True`` is feasibility only, not
    optimality (see :class:`AlpfResult`).
    """
    n = problem.n_pairs
    even = np.full(n, 1.0 / n)
    z = np.concatenate(([0.5], even))
    # The start point's violation, with mu_bar = mu and g = 2 at alpha = 1/2:
    # the first penalty test's reference.  Its budget rows of 0.05 put the
    # first inner tolerance at the 1e-3 cap.
    pairs = problem.a_coeffs * even - 2.0 * problem.b_coeffs * even
    c_prev = np.concatenate(([even.sum() + 0.05 - 1.0] * 2, pairs))
    nu = np.zeros(n + 2)
    # Each penalty starts at ten times the scale its multiplier settles at,
    # the rate's marginal per unit of its row's violation.  A unit start is
    # 1 bit/s per unit of violation squared: its pull hangs on the unit of
    # ``bandwidth_hz``, and the first outer iterations would only raise it
    # tenfold at a time.  The factor 10 is ALGENCAN's (Birgin & Martinez,
    # 2014); the floor of 1 keeps every penalty at least as hard as a unit
    # start.
    slope = problem.bandwidth_hz / (2.0 * problem.k_subcarriers) / _LN2 / (1.0 + problem.a_coeffs / n)
    budget = float((slope * problem.a_coeffs).max())
    sigma = np.maximum(1.0, 10.0 * np.concatenate(([budget, budget], slope)))

    converged = False
    stalled = False
    total_inner = 0
    for k in range(1, _MAX_OUTER_ITERS + 1):
        # Violation-proportional tolerance, capped: a loose early tolerance
        # lets the subproblem exit at non-stationary points whose violation
        # happens to be small, which derails the multiplier updates.
        inner_tol = max(1e-8, 0.1 * min(float(np.max(np.abs(c_prev))), 1e-2))
        point, iterations, sub_stalled = solve_subproblem(z, nu, sigma, problem, inner_tol)
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

    alpha = float(z[0])
    mu = np.clip(z[1:], 0.0, None)
    mu_bar = np.clip(point.mu_bar, 0.0, None)
    # The convergence tolerance allows budget overshoot up to _EPS; rescale
    # so the reported allocation is strictly feasible.
    mu = mu / max(1.0, mu.sum())
    mu_bar = mu_bar / max(1.0, mu_bar.sum())
    # It also allows pair imbalance up to _EPS, which is not small next to
    # the SNR of a nearly switched-off pair; trim each pair to the smaller
    # of its hop SNRs.  That only lowers powers and keeps min(r1, r2).
    mu, mu_bar = _balance_pairs(problem, alpha, mu, mu_bar)
    allocation = Allocation(alpha=alpha, mu=mu, mu_bar=mu_bar)
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


def _balance_pairs(problem: ReducedProblem, alpha: float, mu: np.ndarray, mu_bar: np.ndarray):
    """Lower the stronger hop of every pair to the SNR of the weaker one."""
    hop1 = problem.a_coeffs * mu
    hop2_coeff = 2.0 * alpha / (1.0 - alpha) * problem.b_coeffs
    hop2 = hop2_coeff * mu_bar
    snr = np.minimum(hop1, hop2)
    mu = np.divide(snr, problem.a_coeffs, out=mu.copy(), where=hop1 > snr)
    mu_bar = np.divide(snr, hop2_coeff, out=mu_bar.copy(), where=hop2 > snr)
    return mu, mu_bar


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


class _Subproblem:
    """What the elimination derives from ``nu``, ``sigma`` and the problem alone.

    ``solve_subproblem`` holds these fixed over every elimination it runs,
    so each term is computed once per subproblem, by the same
    floating-point operations in the same order as inside the elimination.
    """

    __slots__ = (
        "a", "b", "n", "scale", "obj_coeff", "nu1", "nu2", "sig1", "sig2",
        "shift1", "room1", "shift2", "room2", "neg_nu_pair", "sig_pair",
        "half_sig_pair", "shift", "clip_curv",
    )

    def __init__(self, nu: np.ndarray, sigma: np.ndarray, problem: ReducedProblem):
        self.a = a = problem.a_coeffs
        self.b = problem.b_coeffs
        self.n = problem.n_pairs
        self.scale = scale = problem.bandwidth_hz / (2.0 * problem.k_subcarriers)
        self.obj_coeff = scale / _LN2 * a
        self.nu1, self.nu2 = nu1, nu2 = float(nu[0]), float(nu[1])
        self.sig1, self.sig2 = sig1, sig2 = float(sigma[0]), float(sigma[1])
        self.shift1 = nu1 / sig1
        self.room1 = 1.0 + self.shift1
        self.shift2 = nu2 / sig2
        self.room2 = 1.0 + self.shift2
        self.neg_nu_pair = -nu[2:]
        self.sig_pair = sig_pair = sigma[2:]
        self.half_sig_pair = 0.5 * sig_pair
        self.shift = nu[2:] / sig_pair
        self.clip_curv = sig_pair * a * a


def _eliminate(z: np.ndarray, fixed: _Subproblem) -> _ReducedPoint:
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
    n = fixed.n
    alpha = float(z[0])
    mu = z[1:]
    a = fixed.a
    b = fixed.b
    nu1, nu2 = fixed.nu1, fixed.nu2
    sig1, sig2 = fixed.sig1, fixed.sig2
    neg_nu_pair = fixed.neg_nu_pair
    sig_pair = fixed.sig_pair
    scale = fixed.scale

    # Budget 1: slack absorbs everything up to the multiplier shift.
    mu_sum = float(mu.sum())
    s1 = fixed.room1 - mu_sum
    if s1 > 0.0:
        c1 = fixed.shift1
        p1 = 0.0
    else:
        s1 = 0.0
        c1 = mu_sum - 1.0
        p1 = -nu1 + sig1 * c1

    g = 2.0 * alpha / (1.0 - alpha)
    d = g * b
    a_mu = a * mu
    shift = fixed.shift
    q = a_mu - shift
    r = fixed.room2

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
        c2 = fixed.shift2
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
        p_pair = np.where(interior, p_pair, neg_nu_pair + sig_pair * a_mu)

    # Value, gradient and curvature share the intermediates.
    one_amu = 1.0 + a_mu
    log_sum = np.log2(one_amu).sum()
    value = (
        (alpha - 1.0) * scale * log_sum
        + (-nu1 * c1 + 0.5 * sig1 * c1 * c1)
        + (-nu2 * c2 + 0.5 * sig2 * c2 * c2)
        + (neg_nu_pair * c_pair + fixed.half_sig_pair * c_pair * c_pair).sum()
    )

    obj_slope = fixed.obj_coeff / one_amu
    g1 = 2.0 / (1.0 - alpha) ** 2
    grad = np.empty(n + 1)
    grad[0] = scale * log_sum - g1 * (p_pair * (b * mu_bar)).sum()
    grad[1:] = (alpha - 1.0) * obj_slope + p1 + p_pair * a

    h_diag = (1.0 - alpha) * obj_slope * a / one_amu
    if clipped:
        h_diag += np.where(interior, 0.0, fixed.clip_curv)
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
