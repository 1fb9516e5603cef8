"""Shared fixtures for the analyzer's tests."""

from pathlib import Path

import pytest

import repro
from repro.analysis import lint_paths

SRC = Path(repro.__file__).parent


@pytest.fixture(scope="session")
def deep_lint():
    """One deep lint of ``src/repro``, shared by every test that reads
    one: the deep phase is the costliest analysis tier-1 runs."""
    return lint_paths([SRC], deep=True)
