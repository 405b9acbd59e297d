"""Fixtures shared by the test modules."""
import pytest

from weaksort import _fork


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n): from then on, `weaksort._fork` allows n processes, so a
    sweep splits into up to n chunks and `_fork.run` keeps up to n children
    alive."""

    def allow(n: int) -> None:
        monkeypatch.setattr(_fork, "cpus", lambda: n)

    return allow
