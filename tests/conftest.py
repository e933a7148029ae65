import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

TEST_TIME_LIMIT_S = 60


def _time_limit_exceeded(signum, frame):
    raise TimeoutError(f"test ran longer than {TEST_TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs longer than the limit instead of letting it
    hang the suite.  Where SIGALRM does not exist (Windows) tests run
    without a limit."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _time_limit_exceeded)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
