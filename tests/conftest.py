import pytest

from logsine import (
    _elementary,
    _precision,
    contour_verifier,
    logsine_closed_form,
    quadrature_oracle,
    zeta_engine,
)
from logsine.exact_core import bernoulli_table


@pytest.fixture(scope="session")
def table_202():
    """Shared Bernoulli table covering every sweep in the suite."""
    return bernoulli_table(202)


def clear_numeric_caches():
    """Empty the precision memo, the zeta table, the series' coefficient
    table, the integer table of pi^m, the routines' pi and log 2, the terms
    and sums of the closed form and the legs, the log-sin node table, and the
    quadrature result cache and node tables built on them."""
    _precision._PREC_FOR.clear()
    logsine_closed_form._LOG2_TERM.clear()
    logsine_closed_form._ZETA_TERMS.clear()
    logsine_closed_form._CLOSED_FORM.clear()
    contour_verifier._LEG_R_TERMS.clear()
    contour_verifier._LEG_H_IM.clear()
    _elementary._PI.clear()
    _elementary._LOG2.clear()
    zeta_engine._ZETA_TABLE.clear()
    zeta_engine._BORWEIN_D.clear()
    zeta_engine._PI_FIXED.clear()
    quadrature_oracle._LOGSIN_TABLE.clear()
    quadrature_oracle._certified.cache_clear()
    quadrature_oracle._nodes.cache_clear()


@pytest.fixture
def cold_caches():
    """Run the test from empty numeric caches and leave none of its
    entries behind; the test may call the fixture to empty them again."""
    clear_numeric_caches()
    yield clear_numeric_caches
    clear_numeric_caches()


@pytest.fixture
def node_keys(monkeypatch):
    """The (prec, level) keys the tanh-sinh engine asks the node table
    for, recorded as the test runs: ``_nodes`` is an lru_cache, which does
    not list its keys."""
    keys = set()
    nodes = quadrature_oracle._nodes

    def recording(prec, level):
        keys.add((prec, level))
        return nodes(prec, level)

    recording.cache_clear = nodes.cache_clear  # cold_caches() still empties the table
    monkeypatch.setattr(quadrature_oracle, "_nodes", recording)
    return keys
