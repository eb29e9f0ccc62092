from __future__ import annotations

import os

import pytest


@pytest.fixture
def pin_cpus(monkeypatch):
    """``pin_cpus(k)`` makes the process report k CPUs to
    :func:`arclab.kernel.run_both`, whatever its real affinity."""
    def pin(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    return pin
