import pytest

from realz import enumeration, stationary


@pytest.fixture(autouse=True)
def fresh_enumeration_memo(monkeypatch):
    """Every test starts from an empty memo of enumerated spaces and no
    kept translation group, so it builds its spaces and groups itself
    whatever ran before it."""
    monkeypatch.setattr(enumeration, "_MEMO", enumeration._Memo())
    stationary._translation_group.cache_clear()
