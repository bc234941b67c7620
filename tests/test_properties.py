"""Properties of the solvers on random reduced problems, searched by hypothesis.

The search is derandomized and keeps no example database, so every run
draws the same problems.  On a failure, hypothesis imports libcst to
explain the example and to write a patch for it, and libcst's import
raises DeprecationWarnings, which the suite turns into errors.  So the
explain phase is left out, and each property ignores libcst's
DeprecationWarnings: raised in the patch writer, one would abort the
whole session instead of reporting the falsifying example.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ehrelay.system import ReducedProblem, achievable_rate, benchmark_allocation
from ehrelay.waterfill import solve as oracle_solve

SEARCH = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=300,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)


@st.composite
def reduced_problems(draw):
    """n in 1..8 pairs, log10 a in [-8, 14], log10 a / b in [-4, 10] and K in 1..64."""
    n = draw(st.integers(1, 8))
    log_a = np.array(draw(st.lists(st.floats(-8.0, 14.0), min_size=n, max_size=n)))
    log_ratio = np.array(draw(st.lists(st.floats(-4.0, 10.0), min_size=n, max_size=n)))
    return ReducedProblem(10.0**log_a, 10.0 ** (log_a - log_ratio), 1000.0, draw(st.integers(1, 64)))


@pytest.mark.filterwarnings("ignore::DeprecationWarning:libcst")
@SEARCH
@given(reduced_problems())
def test_oracle_within_budgets_and_at_least_benchmark(problem):
    sol = oracle_solve(problem)
    assert sol.mu_star.sum() <= 1.0 + 1e-14
    assert sol.mu_bar_star.sum() <= 1.0 + 1e-14
    assert sol.rate_star >= achievable_rate(problem, benchmark_allocation(problem)) * (1.0 - 1e-12)
