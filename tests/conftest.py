"""Session-wide fixtures: tiny task instances shared across test modules.

Tasks are expensive to build (universal joins + cost calibration training),
so they are session-scoped; tests must not mutate them.
"""

from __future__ import annotations

import pytest

from repro.datalake import make_task
# Re-exported so every test module can request it by name.
from tests.helpers import expected_crashes  # noqa: F401


@pytest.fixture(scope="session")
def task_t1():
    return make_task("T1", scale=0.3)


@pytest.fixture(scope="session")
def task_t2():
    return make_task("T2", scale=0.3)


@pytest.fixture(scope="session")
def task_t3():
    return make_task("T3", scale=0.3)


@pytest.fixture(scope="session")
def task_t4():
    return make_task("T4", scale=0.3)


@pytest.fixture(scope="session")
def task_t5():
    return make_task("T5", scale=0.6)
