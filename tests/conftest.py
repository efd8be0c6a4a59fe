from __future__ import annotations

import pytest

from hallforge import ClassRegistry
from hallforge.cache import CACHE_ENV_VAR
from hallforge.quivers import line_quiver, quiver_from_dict


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A fresh directory, named by $HALLFORGE_CACHE for the test's duration."""
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    return tmp_path


@pytest.fixture(scope="session")
def a1_f2() -> ClassRegistry:
    return ClassRegistry(line_quiver(1), 2)


@pytest.fixture(scope="session")
def a1_f3() -> ClassRegistry:
    return ClassRegistry(line_quiver(1), 3)


@pytest.fixture(scope="session")
def a2_f2() -> ClassRegistry:
    return ClassRegistry(line_quiver(2), 2)


@pytest.fixture(scope="session")
def a2_f3() -> ClassRegistry:
    return ClassRegistry(line_quiver(2), 3)


@pytest.fixture(scope="session")
def a3_f2() -> ClassRegistry:
    return ClassRegistry(line_quiver(3), 2)


@pytest.fixture(scope="session")
def kronecker_f2() -> ClassRegistry:
    return ClassRegistry(quiver_from_dict({
        "vertices": ["1", "2"],
        "arrows": [{"src": "1", "dst": "2", "label": "a"},
                   {"src": "1", "dst": "2", "label": "b"}]}), 2)


@pytest.fixture(scope="session")
def d4_f2() -> ClassRegistry:
    return ClassRegistry(quiver_from_dict({
        "vertices": ["1", "2", "3", "c"],
        "arrows": [{"src": v, "dst": "c", "label": f"a{v}"} for v in "123"]}), 2)
