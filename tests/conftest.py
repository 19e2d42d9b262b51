import numpy as np
import pytest
from hypothesis import settings

# the same examples on every machine, and no per-example timing limit
settings.register_profile("lowdensity", derandomize=True, deadline=None)
settings.load_profile("lowdensity")


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
