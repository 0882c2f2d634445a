"""Fixtures shared by the test modules."""

import pytest

from enhq import kernels


@pytest.fixture
def python_loops(monkeypatch):
    """Every run in the test steps on dynamics' Python loops, as it does
    where the compiled kernels cannot be built."""
    monkeypatch.setattr(kernels, "load", lambda: None)
