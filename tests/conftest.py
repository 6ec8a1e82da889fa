"""A time limit on every test, so that a change that loops forever fails the
test it hangs in, and the run goes on, instead of stalling the suite; after
`MAX_TIME_OUTS` tests have run out of time the run stops, so that a loop
every test reaches does not cost each of them the whole limit."""
import multiprocessing
import signal

import pytest

#: Seconds that one test may take with its fixtures; the slowest test takes
#: about 3 s.
TEST_TIME_LIMIT = 60

#: Time-outs after which the run ends, failed.
MAX_TIME_OUTS = 3

_time_outs = 0


@pytest.fixture(autouse=True)
def _time_limit():
    def expire(signum, frame):
        global _time_outs
        # A `--jobs` pool waits for its workers as the failure unwinds, so
        # they go first.
        for child in multiprocessing.active_children():
            child.kill()
        _time_outs += 1
        if _time_outs >= MAX_TIME_OUTS:
            pytest.exit(f"{_time_outs} tests ran past their time limit of {TEST_TIME_LIMIT} s", returncode=1)
        pytest.fail(f"test ran past its time limit of {TEST_TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
