import pytest

from bicomet import table


@pytest.fixture(params=[1, 4, 9])
def small_chunks(request, monkeypatch):
    """Plain text read in chunks of a few bytes, so that record ends,
    multibyte characters and faults fall on chunk edges."""
    monkeypatch.setattr(table, "_CHUNK_BYTES", request.param)
    return request.param
