import pytest
from hypothesis import settings

from hlgt import formulas

# Exact polynomial arithmetic has occasional slow examples; judge the
# suite by wall time, not per-example deadlines.
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


@pytest.fixture(autouse=True)
def cold_caches():
    # A result memoized by an earlier test would hide a perturbation that
    # a test installs below the memo, so every test starts cold.
    formulas.clear_caches()
