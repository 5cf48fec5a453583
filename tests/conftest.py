import functools

import pytest
from hypothesis import HealthCheck, settings

import lietriple.algebra
import lietriple.catalog
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
def cold_cache(monkeypatch):
    """Start the test with nothing cached; the value empties the cache again when called.

    Every live fact table is emptied in place, and the catalog's named
    entries are set aside until the test ends.
    """

    def clear():
        for table in list(lietriple.algebra._CACHE.values()):
            table.clear()
        monkeypatch.setattr(lietriple.catalog, "_NAMED", {})

    clear()
    return clear


@pytest.fixture
def annihilator_checks(cold_cache, monkeypatch):
    """The GMAs whose annihilating conditions are computed, on a cleared cache; a cache hit adds none."""
    calls = []
    body = lietriple.gma.check_annihilating_conditions.__wrapped__

    @functools.wraps(body)
    def counting(u):
        calls.append(u)
        return body(u)

    # the same qualified name, so the counting version fills the real one's cache entries
    monkeypatch.setattr(lietriple.gma, "check_annihilating_conditions", lietriple.algebra.memoized(counting))
    return calls
