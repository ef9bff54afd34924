"""Shared fixtures for the ``repro.check`` tests."""

from pathlib import Path

import pytest

import repro
from repro.check.lint import lint_paths


@pytest.fixture(scope="session")
def package_lint():
    """The package source directory and its lint findings.

    Linting all of ``src/repro`` takes seconds; the library test and
    the ``repro lint`` test both read this one result.
    """
    root = str(Path(repro.__file__).parent)
    return root, lint_paths([root])
