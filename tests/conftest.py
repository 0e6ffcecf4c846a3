"""Fixtures shared by the test modules."""

import threading
from types import SimpleNamespace

import pytest

from dcvqe import autodiff as ad


@pytest.fixture
def second_core(monkeypatch):
    """``autodiff.linear``'s two-thread split, forced on or off whatever the
    machine and its BLAS thread count: ``second_core.force(True)``. Counts in
    ``splits`` the products that ran on two threads."""
    state = SimpleNamespace(splits=0)
    on_two_threads = ad._on_two_threads
    lock = threading.Lock()  # callers on several threads count

    def counted(here, there):
        with lock:
            state.splits += 1
        on_two_threads(here, there)

    monkeypatch.setattr(ad, "_on_two_threads", counted)
    state.force = lambda on: monkeypatch.setattr(ad, "_two_cores", lambda: on)
    state.force(False)
    return state
