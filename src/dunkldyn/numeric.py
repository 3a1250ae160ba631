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

from mpmath import mp, mpf
from mpmath.libmp import normalize, round_nearest, to_str

DEFAULT_PRECISION_BITS = 256


def to_decimal(x) -> str:
    """Serialize x, rounded as mpf(x) rounds it, as a decimal string that parses back to it.

    ceil(prec log10 2) + 3 digits at the working precision prec suffice for
    an exact binary->decimal->binary round trip.  An mpf is rounded by one
    normalise of its tuple; zero and the special values pass as they are.
    """
    prec = mp.prec
    if type(x) is mpf:
        sign, man, exp, bc = v = x._mpf_
        if man:
            v = normalize(sign, man, exp, bc, prec, round_nearest)
    else:
        v = mpf(x)._mpf_
    return to_str(v, int(math.ceil(prec * math.log10(2))) + 3, strip_zeros=True)
