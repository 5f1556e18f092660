import pytest

from sparsetrig import approximants as ap


@pytest.fixture
def cold_korner():
    """Empty `analytic_korner`'s build memos, so a test that counts or
    measures one build sees it run."""
    ap._korner_unit.cache_clear()
    ap._korner_build.cache_clear()
