import os

import numpy as np
import pytest

# One seed for every randomized property test; override to shake the suite.
SEED = int(os.environ.get("POVM_PURITY_SEED", "271828"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(SEED)


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: signed zeros included, unlike ``==``."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
