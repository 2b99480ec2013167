"""A per-test deadline, so that a test which hangs fails instead of running for ever.

The deadline covers a test's setup, call and teardown together, so a
module fixture's campaign counts against the first test that requests
it. DEADLINE_S is 12x the slowest phase measured: the setup of
tests/test_acceptance.py::test_criterion_1, 75 s on a 2-vCPU host.

At the deadline SIGALRM raises DeadlineExceeded in the main thread, and
pytest reports the test as failed or errored under its own name.
DeadlineExceeded is no Exception, and not pytest.fail's exception either,
so hypothesis does not catch it to shrink the example, and code that
catches Exception lets it through; map_seeds then terminates its pool
workers on the way out. A hang inside a C call that never returns to the
interpreter is beyond its reach, and so is every hang on a platform
without SIGALRM (Windows), where no deadline is armed.

The "mutants" hypothesis profile skips the shrink phase. A run that
only has to fail, as tests/mutants.py's runs on a mutant do, needs the
failing example, not a minimal one; `--hypothesis-profile mutants`
selects it, and without that flag hypothesis's own defaults stand.
"""

import signal

import pytest
from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[phase for phase in Phase if phase is not Phase.shrink])

DEADLINE_S = 900


class DeadlineExceeded(BaseException):
    pass


def _expire(signum, frame):
    raise DeadlineExceeded(f"the test ran past its {DEADLINE_S} s deadline")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if not hasattr(signal, "SIGALRM"):  # no interval timer on this platform
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
