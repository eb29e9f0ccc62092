from __future__ import annotations

import os

import arclab  # noqa: F401  first, so its one-thread BLAS default holds when numpy loads
import numpy as np
import pytest


@pytest.fixture
def pin_cpus(monkeypatch):
    """``pin_cpus(k)`` makes the process report k CPUs to
    :func:`arclab.kernel.run_both`, whatever its real affinity."""
    def pin(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    return pin


@pytest.fixture(params=[
    (np.array([-1, 0]), r"label -1 at index 0 is not a class index in \[0, 3\)"),
    (np.array([0, 2, 3]), r"label 3 at index 2 is not a class index in \[0, 3\)"),
    (np.array([1.0, 0.0]), "label 1.0 at index 0 is float64, not an integer class index"),
    (np.array([], dtype=np.int64), "empty batch"),
], ids=["negative", "past_classes", "float", "empty"])
def bad_labels(request):
    """(labels, message): labels for 3 classes that cross-entropy must reject
    with a ShapeError whose message matches. Unchecked, a negative label
    reads from the end of its row, a label past the classes or a float one
    ends in IndexError, and an empty batch averages to NaN."""
    return request.param
