"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import peribond


@pytest.fixture
def child_env():
    """Environment for a child Python process that imports the same
    ``peribond`` as the tests, whether that is installed or found through
    pytest's ``pythonpath`` setting."""
    src = str(Path(peribond.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
