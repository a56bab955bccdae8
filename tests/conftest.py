import pytest

from bicomet import table


@pytest.fixture(params=[1, 4, 9])
def small_chunks(request, monkeypatch):
    """Text read in chunks of a few bytes, or through the ``csv`` module of
    a few characters, so that record ends, multibyte characters and faults
    fall on chunk edges."""
    monkeypatch.setattr(table, "_CHUNK_BYTES", request.param)
    return request.param
