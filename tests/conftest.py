import pytest

from realz import enumeration


@pytest.fixture(autouse=True)
def fresh_enumeration_memo(monkeypatch):
    """Every test starts from an empty memo of enumerated spaces, so it
    builds its spaces itself whatever ran before it."""
    monkeypatch.setattr(enumeration, "_MEMO", enumeration._Memo())
