"""Precision control and exact decimal round trips for mpf values.

All high-precision arithmetic is delegated to mpmath (binary, round-to-nearest,
arbitrary exponent range).  Its exponents are unbounded Python ints, so weights
such as d_n and orbit values are held as plain mpf however large they grow.
The working precision is the ambient mpmath precision; ``set_precision`` /
``precision`` manage it explicitly so results are deterministic for a fixed
precision setting.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import mpmath
from mpmath import mp, mpf

DEFAULT_PRECISION_BITS = 256

mp.prec = DEFAULT_PRECISION_BITS


def set_precision(bits: int) -> None:
    """Set the ambient working precision in binary digits."""
    if bits < 8:
        raise ValueError(f"precision_bits must be >= 8, got {bits}")
    mp.prec = int(bits)


@contextmanager
def precision(bits: int):
    """Temporarily switch the ambient precision."""
    old = mp.prec
    set_precision(bits)
    try:
        yield
    finally:
        mp.prec = old


def decimal_digits(bits: int | None = None) -> int:
    """Decimal digits sufficient for exact binary->decimal->binary round trips."""
    if bits is None:
        bits = mp.prec
    return int(math.ceil(bits * math.log10(2))) + 3


def to_decimal(x) -> str:
    """Serialize an mpf as a decimal string that parses back to the same value."""
    x = mpf(x)
    return mpmath.libmp.to_str(x._mpf_, decimal_digits(), strip_zeros=True)
