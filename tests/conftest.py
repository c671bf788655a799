import time

import pytest
from hypothesis import settings

from cqclab.capacity2 import solve_capacity_2user
from cqclab.capacity3 import solve_capacity_3user

# property tests draw the same examples on every run, with no time limit
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def cap2_timed():
    t0 = time.perf_counter()
    res = solve_capacity_2user()
    return res, time.perf_counter() - t0


@pytest.fixture(scope="session")
def cap2(cap2_timed):
    return cap2_timed[0]


@pytest.fixture(scope="session")
def cap3_rp0():
    return solve_capacity_3user(0.0)


@pytest.fixture(scope="session")
def cap3_rp005():
    return solve_capacity_3user(0.05)


@pytest.fixture(scope="session")
def cap3_rp01():
    return solve_capacity_3user(0.1)
