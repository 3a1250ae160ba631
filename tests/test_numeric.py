"""Precision control and exact decimal round trips."""

import mpmath
import pytest
from mpmath import mp, mpf

from dunkldyn.numeric import precision, set_precision, to_decimal


def test_precision_management():
    assert mp.prec == 256
    with precision(128):
        assert mp.prec == 128
    assert mp.prec == 256
    with pytest.raises(ValueError):
        set_precision(4)


def test_decimal_round_trip_exact():
    values = [mpf(1) / 3, mpf(2) ** 100000, mpf(2) ** -100000, mpf("-0.1"),
              mpmath.exp(mpf(12345)), mpf(0)]
    for x in values:
        assert mpf(to_decimal(x)) == x
