import pytest
from hypothesis import HealthCheck, settings

from semiprimes.oracle import semiprime_flags

settings.register_profile(
    "package-default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("package-default")


@pytest.fixture(scope="session")
def semi_flags_10k():
    # margin past 10^4 so successor scans near the top stay in range
    return semiprime_flags(10**4 + 200)


@pytest.fixture(scope="session")
def semis_10k(semi_flags_10k):
    return [x for x in range(10**4 + 1) if semi_flags_10k[x]]


@pytest.fixture(scope="session")
def semi_flags_2m():
    # past fifteen SEGMENT widths from 8 and the cubes to 125^3
    return semiprime_flags(2 * 10**6)
