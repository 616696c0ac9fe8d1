import contextlib
import functools
import signal
import types

import pytest

from condaalen.kernels import KernelSpec
from condaalen.simulate import (
    default_scenario,
    default_scenario_json,
    load_scenario,
    simulate_sample,
)


@pytest.fixture(scope="session")
def sim_sample():
    """Moderate simulated sample shared across test modules."""
    sc = default_scenario(n=150, seed=42)
    return simulate_sample(sc["intensity"], sc["censoring"], 150, 42)


@pytest.fixture(scope="session")
def sweep():
    """Samples, kernel spec and points shaped like the benchmark's ``sweep``.

    ``sweep.sample(n, seed)`` draws the default scenario plus an atomic
    covariate ``x2`` in {0, 1} that scales every rate by ``1 + x2 / 2``.
    At each of ``sweep.points`` the atom gives half the subjects zero
    weight.
    """

    @functools.cache
    def sample(n, seed):
        raw = default_scenario_json(n, seed)
        raw["covariates"].append({"law": "discrete", "values": [0.0, 1.0], "probs": [0.5, 0.5]})
        raw["rates"] = {k: f"{v}*(1+0.5*x2)" for k, v in raw["rates"].items()}
        sc = load_scenario(raw)
        return simulate_sample(sc["intensity"], sc["censoring"], n, seed)

    return types.SimpleNamespace(
        sample=sample,
        spec=KernelSpec.for_dims(2, atoms=((), (0.0, 1.0))),
        points=[((i + 0.5) / 8, x2) for x2 in (0.0, 1.0) for i in range(8)],
    )


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
