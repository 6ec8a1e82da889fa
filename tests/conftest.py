"""A time limit on every test, so that a change that loops forever fails the
test it hangs in, and the run goes on, instead of stalling the suite."""
import multiprocessing
import signal

import pytest

#: Seconds that one test may take with its fixtures; the slowest test takes
#: about 3 s.
TEST_TIME_LIMIT = 60


@pytest.fixture(autouse=True)
def _time_limit():
    def expire(signum, frame):
        # A `--jobs` pool waits for its workers as the failure unwinds, so
        # they go first.
        for child in multiprocessing.active_children():
            child.kill()
        pytest.fail(f"test ran past its time limit of {TEST_TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
