"""Per-phase time budget for the test suite.

Each test phase (setup, call, teardown) runs under a ``SIGALRM`` alarm,
so a test that stops making progress fails with a message naming the
budget instead of hanging the whole run.  Where ``SIGALRM`` does not
exist the guard is off.
"""

import signal

import pytest

PHASE_BUDGET_S = 600


def _guarded(phase):
    @pytest.hookimpl(hookwrapper=True)
    def hook(item):
        if not hasattr(signal, "SIGALRM"):
            yield
            return

        def expire(signum, frame):
            pytest.fail(f"{phase} of {item.nodeid} exceeded the {PHASE_BUDGET_S} s phase budget", pytrace=False)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(PHASE_BUDGET_S)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return hook


pytest_runtest_setup = _guarded("setup")
pytest_runtest_call = _guarded("call")
pytest_runtest_teardown = _guarded("teardown")
