"""Default precision and exact decimal round trips for mpf values.

All high-precision arithmetic is delegated to mpmath (binary, round-to-nearest,
arbitrary exponent range).  Its exponents are unbounded Python ints, so weights
such as d_n and orbit values are held as plain mpf however large they grow.
Importing the package leaves mpmath's precision alone: a weight table fixes
the precision of the work done with it (``dunkl.DunklWeights``), and the CLI
runs each command at its ``precision_bits``, whose default is
``DEFAULT_PRECISION_BITS``.

Two entries that read the ambient precision refuse one below the least at
which their documented accuracy holds (``require_precision``):
``growth.mittag_leffler`` below ``ML_MIN_PREC`` and ``growth.standard_r_grid``
below ``R_GRID_MIN_PREC``.

Three routes mirror internals of one mpmath release, ``MIRRORED_MPMATH``:
``DunklWeights._ln_new``, ``growth._exp_multiples`` and the series reader's
fixed-point path.  Under any other release (``mirrors_mpmath``) each takes its
fallback: ``mpf_log``, ``mpf_exp`` and ``from_str``.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import mpf_log, normalize, round_nearest, to_str

DEFAULT_PRECISION_BITS = 256
# mittag_leffler promises tol = 2^(16 - prec) relative, which is below 1 from 17 bits
ML_MIN_PREC = 17
# from 9 bits the default radius grid strictly increases and each point lies
# within one grid spacing of r_min exp(i step); at 8 bits neither holds
R_GRID_MIN_PREC = 9
MIRRORED_MPMATH = "1.3.0"  # the release whose internals three routes copy

_SHORT_LN_BITS = 96  # float_ln's short log
_SHORT_LN_MIN_PREC = 2 * _SHORT_LN_BITS  # below this precision float_ln takes the prec-bit log
_SHORT_LN_GUARD = 4  # units of the short log's last bit kept clear of a float64 midpoint or edge


def mirrors_mpmath() -> bool:
    """Whether the installed mpmath is the release the mirrored routes were read from."""
    return mpmath.__version__ == MIRRORED_MPMATH


def require_precision(least: int, what: str) -> None:
    """Refuse an ambient precision below least bits, with a one-line ValueError."""
    if mp.prec < least:
        raise ValueError(f"{what} needs at least {least} bits of precision, got {mp.prec}")


def float_ln(x: mpf) -> float:
    """float(mpmath.ln(x)) bit for bit, x an mpf, at the working precision prec.

    That value is V = mpf_log(x, prec), the log of x as it stands (not
    rounded to prec first), rounded to float64 half to even.  For a finite x
    > 0 and prec >= _SHORT_LN_MIN_PREC, S = mpf_log(x, 96) is taken first.
    This relies on mpf_log's accuracy, not on its internals: it works 20 bits
    past the precision asked and rounds to nearest, so its result lies within
    one unit in its last place of ln x.  In units of S's last bit, S is then
    within 1 of ln x, and V within 2^(97 - prec) of it, its own rounding to
    prec bits included.  If the interval of _SHORT_LN_GUARD (4) units around
    S holds no float64 rounding midpoint and no power of two, V lies in the
    same float64 rounding interval as S, so both round to one float64, which
    is S's.  Any other x, S or prec takes mpmath.ln at prec itself.
    """
    sign, man, _, _ = t = x._mpf_
    if man and not sign and mp.prec >= _SHORT_LN_MIN_PREC:
        s_sign, s_man, s_exp, s_bc = mpf_log(t, _SHORT_LN_BITS, round_nearest)
        if s_man and -1000 < s_exp + s_bc < 1000:
            full = s_man << (_SHORT_LN_BITS - s_bc)  # 2^95 <= full < 2^96
            ulp = 1 << (_SHORT_LN_BITS - 53)  # float64's last place, in S's units
            off = full & (ulp - 1)  # S's distance above the float64 below it
            if (abs(2 * off - ulp) > 2 * _SHORT_LN_GUARD
                    and full - (1 << (_SHORT_LN_BITS - 1)) > _SHORT_LN_GUARD
                    and (1 << _SHORT_LN_BITS) - full > _SHORT_LN_GUARD):
                value = math.ldexp(s_man, s_exp)
                return -value if s_sign else value
    return float(mpmath.ln(x))


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
