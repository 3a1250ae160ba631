"""Default precision and exact decimal round trips for mpf values.

All high-precision arithmetic is delegated to mpmath (binary, round-to-nearest,
arbitrary exponent range).  Its exponents are unbounded Python ints, so weights
such as d_n and orbit values are held as plain mpf however large they grow.
Importing the package leaves mpmath's precision alone: a weight table fixes
the precision of the work done with it (``dunkl.DunklWeights``), and the CLI
runs each command at its ``precision_bits``, whose default is
``DEFAULT_PRECISION_BITS``.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp, mpf

DEFAULT_PRECISION_BITS = 256


def to_decimal(x) -> str:
    """Serialize an mpf as a decimal string that parses back to the same value.

    ceil(prec log10 2) + 3 digits at the working precision prec suffice for
    an exact binary->decimal->binary round trip.
    """
    digits = int(math.ceil(mp.prec * math.log10(2))) + 3
    return mpmath.libmp.to_str(mpf(x)._mpf_, digits, strip_zeros=True)
