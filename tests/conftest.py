import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from wtits import load_preset


@pytest.fixture(scope="session")
def sl2():
    return load_preset("sl2")


@pytest.fixture(scope="session")
def sl3():
    return load_preset("sl3")


@pytest.fixture(scope="session")
def sl4():
    return load_preset("sl4")


@pytest.fixture(scope="session")
def so24():
    return load_preset("so24")
