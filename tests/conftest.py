import functools

import pytest
from hypothesis import HealthCheck, settings

import lietriple.algebra
import lietriple.gma

settings.register_profile(
    "exact",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture
def annihilator_checks(monkeypatch):
    """The GMAs whose annihilating conditions are computed, on a cleared cache; a cache hit adds none."""
    monkeypatch.setattr(lietriple.algebra, "_CACHE", {})
    calls = []
    body = lietriple.gma.check_annihilating_conditions.__wrapped__

    @functools.wraps(body)
    def counting(u):
        calls.append(u)
        return body(u)

    # the same qualified name, so the counting version fills the real one's cache entries
    monkeypatch.setattr(lietriple.gma, "check_annihilating_conditions", lietriple.algebra.memoized(counting))
    return calls
