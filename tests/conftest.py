import pytest

import clipbench.bench as bench
import clipbench.verify as verify


@pytest.fixture(scope="module")
def _streams():
    return {}


@pytest.fixture
def shared_stream(monkeypatch, _streams):
    """Build each stream once per test module for the tests that take this.

    ``_materialize``, as bench and verify call it, reads through one cache
    keyed on its arguments, so a second test asking for the same stream gets
    the buffer the same function built for the first.  Callers only read
    the buffer.
    """
    generate = bench._materialize

    def cached(state, space, count):
        key = (state, space, count)
        if key not in _streams:
            _streams[key] = generate(state, space, count)
        return _streams[key]

    monkeypatch.setattr(bench, "_materialize", cached)
    monkeypatch.setattr(verify, "_materialize", cached)
