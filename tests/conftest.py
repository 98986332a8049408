"""Shared test set-up: the checkout's src/ on the path of child interpreters.

pyproject.toml puts src/ on pytest's own sys.path; the tests that start
`python -m dynforest` in a subprocess need it on PYTHONPATH as well.
"""

from __future__ import annotations

import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_pythonpath():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield
