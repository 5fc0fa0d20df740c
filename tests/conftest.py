import pytest

from ddforge import bath, sequences


@pytest.fixture(autouse=True)
def fresh_memos():
    """Each test builds its own schedules and models: no test sees the objects (or their caches) of another."""
    for memo in (sequences._unit_schedule, sequences._udd_block, bath._model):
        memo.cache_clear()
