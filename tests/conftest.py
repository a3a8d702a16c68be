"""Shared fixtures for the test suite."""

import pytest


@pytest.fixture(autouse=True)
def _no_budget_from_the_shell(monkeypatch):
    """Each test starts without RCTRS_DISTANCE_BUDGET, whatever the caller's shell sets."""
    monkeypatch.delenv("RCTRS_DISTANCE_BUDGET", raising=False)
