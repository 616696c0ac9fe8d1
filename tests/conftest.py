import contextlib
import signal

import pytest

from condaalen.simulate import default_scenario, simulate_sample


@pytest.fixture(scope="session")
def sim_sample():
    """Moderate simulated sample shared across test modules."""
    sc = default_scenario(n=150, seed=42)
    return simulate_sample(sc["intensity"], sc["censoring"], 150, 42)


@pytest.fixture(scope="session")
def sim_scenario():
    return default_scenario(n=150, seed=42)


class DeadlineExpired(BaseException):
    """Raised into a call that outlives its deadline; no ``except Exception`` swallows it."""


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` fails a call that hangs instead of hanging the suite."""

    @contextlib.contextmanager
    def within(seconds: float):
        def expire(signum, frame):
            raise DeadlineExpired(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within
