import numpy as np
import pytest

from zbsim import ParticleConfig, build_operators

#: Acceptance grid: p in {0, 0.1, ..., 5} (51 points) x delta in {0, ..., 0.9} (10 points).
P_GRID = np.round(np.arange(0, 51) * 0.1, 10)
DELTA_GRID = np.round(np.arange(0, 10) * 0.1, 10)


@pytest.fixture(scope="session")
def ops():
    return build_operators()


@pytest.fixture()
def cfg():
    return ParticleConfig(delta=0.4)
