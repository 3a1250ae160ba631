import pytest
from mpmath import mp

# importing the package leaves mpmath's precision alone, and test modules
# build mpf constants when they are collected, before any fixture runs
mp.prec = 256


@pytest.fixture(autouse=True)
def fixed_precision():
    """Every test runs at the package default precision unless it says otherwise."""
    mp.prec = 256
    yield
    mp.prec = 256
