import pytest

from logsine import quadrature_oracle, zeta_engine
from logsine.exact_core import bernoulli_table


@pytest.fixture(scope="session")
def table_202():
    """Shared Bernoulli table covering every sweep in the suite."""
    return bernoulli_table(202)


def clear_numeric_caches():
    """Empty the zeta table, the series' coefficient table, the pi powers,
    the log-sin node table, and the quadrature result cache and node
    tables built on them."""
    zeta_engine._ZETA_TABLE.clear()
    zeta_engine._BORWEIN_D.clear()
    zeta_engine._PI_POWERS.clear()
    quadrature_oracle._LOGSIN_TABLE.clear()
    quadrature_oracle._FIXED_NODES.clear()
    quadrature_oracle._certified.cache_clear()
    quadrature_oracle._nodes.cache_clear()


@pytest.fixture
def cold_caches():
    """Run the test from empty numeric caches and leave none of its
    entries behind; the test may call the fixture to empty them again."""
    clear_numeric_caches()
    yield clear_numeric_caches
    clear_numeric_caches()
