"""Precision control and exact decimal round trips."""

import mpmath
import pytest
from mpmath import mpf

from dunkldyn.numeric import (
    from_decimal,
    get_precision,
    precision,
    set_precision,
    to_decimal,
)


def test_precision_management():
    assert get_precision() == 256
    with precision(128):
        assert get_precision() == 128
    assert get_precision() == 256
    with pytest.raises(ValueError):
        set_precision(4)


def test_decimal_round_trip_exact():
    values = [mpf(1) / 3, mpf(2) ** 100000, mpf(2) ** -100000, mpf("-0.1"),
              mpmath.exp(mpf(12345)), mpf(0)]
    for x in values:
        assert from_decimal(to_decimal(x)) == x
