import time

import pytest

from radpfd.exact import coefficient_range
from radpfd.saddle import saddle_constants

PREC = 256

# wall-clock seconds of the expensive session sweeps, keyed by fixture name;
# the acceptance suite asserts its runtime budgets against these
SWEEP_SECONDS = {}


@pytest.fixture(scope="session")
def sd():
    return saddle_constants(PREC)


@pytest.fixture(scope="session")
def small_vectors():
    """Exact coefficient vectors for N = 1..30, one incremental sweep."""
    return {vec.N: vec for vec in coefficient_range(1, 30)}


@pytest.fixture(scope="session")
def batch_vectors():
    """Exact coefficient vectors for N = 80..150.

    This is the expensive rational sweep behind the figure and peak
    analyses; computing it once per session keeps the suite tolerable.
    """
    start = time.monotonic()
    vectors = {vec.N: vec for vec in coefficient_range(80, 150)}
    SWEEP_SECONDS["batch_vectors"] = time.monotonic() - start
    return vectors


@pytest.fixture(scope="session")
def mid_vectors():
    """Exact coefficient vectors for N = 1..70 (integral comparison range)."""
    return {vec.N: vec for vec in coefficient_range(1, 70)}
