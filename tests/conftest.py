"""Fixtures shared by the test modules."""

import threading
from types import SimpleNamespace

import pytest

from dcvqe import autodiff as ad


@pytest.fixture
def second_core(monkeypatch):
    """The second core forced free or busy, whatever the machine and its BLAS
    thread count: ``second_core.force(True)``. Counts in ``splits`` the calls
    of ``autodiff._each_on_two_threads``, the one primitive that runs work
    on the helper thread: one per product that ``linear`` splits, and two
    (the forwards, then the backwards) per training batch whose videos run
    on two threads."""
    state = SimpleNamespace(splits=0)
    each_on_two_threads = ad._each_on_two_threads
    lock = threading.Lock()  # callers on several threads count

    def counted(*args, **kwargs):
        with lock:
            state.splits += 1
        each_on_two_threads(*args, **kwargs)

    monkeypatch.setattr(ad, "_each_on_two_threads", counted)
    state.force = lambda on: monkeypatch.setattr(ad, "_two_cores", lambda: on)
    state.force(False)
    return state
