"""Fixtures shared by the service tests."""

import pytest

from repro.core import popqc_rounds
from repro.service import server as server_module


@pytest.fixture
def job_stats(monkeypatch):
    """The ``OptimizationStats`` of every job the daemons in this
    process finish, in order (``cache_memo_hits`` is in no frame)."""
    seen = []

    def watched(*args, **kwargs):
        result = yield from popqc_rounds(*args, **kwargs)
        seen.append(result.stats)
        return result

    monkeypatch.setattr(server_module, "popqc_rounds", watched)
    return seen
