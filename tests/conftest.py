import os
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

    The figure and peak analyses read this window.  One sweep per
    session divides by a_j for j = 1..150, about 0.5 s on 2 vCPUs of an
    Intel Xeon; c4 asserts its wall time.
    """
    start = time.monotonic()
    vectors = {vec.N: vec for vec in coefficient_range(80, 150)}
    SWEEP_SECONDS["batch_vectors"] = time.monotonic() - start
    return vectors


@pytest.fixture(scope="session")
def mid_vectors():
    """Exact coefficient vectors for N = 1..70 (integral comparison range)."""
    return {vec.N: vec for vec in coefficient_range(1, 70)}


@pytest.fixture
def two_cpus(monkeypatch):
    """Report two usable CPUs, so specfun._split_map forks on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
