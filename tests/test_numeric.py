"""Exact decimal round trips, and an import that leaves mpmath's precision alone."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from mpmath import mp, mpf

import dunkldyn
from dunkldyn.cli import _fmt
from dunkldyn.numeric import to_decimal


def test_decimal_round_trip_exact():
    values = [mpf(1) / 3, mpf(2) ** 100000, mpf(2) ** -100000, mpf("-0.1"),
              mpmath.exp(mpf(12345)), mpf(0)]
    for x in values:
        assert mpf(to_decimal(x)) == x


def _to_decimal_mpf(x) -> str:
    """to_decimal through mpf(x): the oracle of its one-normalise tuple path."""
    digits = int(math.ceil(mp.prec * math.log10(2))) + 3
    return mpmath.libmp.to_str(mpf(x)._mpf_, digits, strip_zeros=True)


def _fmt_mpf(x) -> str:
    """cli._fmt through mpf(x) and mpmath.isfinite: the oracle of its tuple path."""
    if isinstance(x, (int, str)):
        return str(x)
    x = mpf(x)
    if not mpmath.isfinite(x):
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
    return _to_decimal_mpf(x)


def _wide_values():
    """mpf values carrying more bits than 256: a plain one, one whose rounding
    carries into a new power of two, and ties broken to even both ways."""
    with mp.workprec(600):
        third, carry = -mpf(1) / 3, mpf(2) ** 300 - 1
    return [third, carry, *(mp.make_mpf((0, (m << 1) | 1, -400, m.bit_length() + 1))
                            for m in ((1 << 256) - 2, (1 << 256) - 1))]


@pytest.mark.parametrize("bits", [53, 256])
def test_formatters_equal_mpf_path(bits):
    with mp.workprec(bits):
        values = [mpf(0), mpmath.inf, -mpmath.inf, mpmath.nan, mpf("-0.1"), -mpf(7) / 3,
                  mpf(2) ** -100000, mpmath.exp(mpf(12345)), mp.pi, 0.1, float("-inf"),
                  float("nan"), 7, -12, 0, "text", *_wide_values()]
        for x in values:
            assert _fmt(x) == _fmt_mpf(x)
            if not isinstance(x, str):
                assert to_decimal(x) == _to_decimal_mpf(x)
        # a wider mpf is written as mpf(x) rounds it
        for x in _wide_values():
            assert mpf(to_decimal(x))._mpf_ == mpf(x)._mpf_ != x._mpf_


def test_import_leaves_precision_alone():
    # a fresh interpreter: this one has long since imported the package
    src = str(Path(dunkldyn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = ("import mpmath, dunkldyn\n"
             "from dunkldyn.growth import R_GRID_MIN\n"
             "prec = mpmath.mp.prec\n"
             "with mpmath.workprec(256):\n"
             "    same = R_GRID_MIN._mpf_ == mpmath.mpf('0.01')._mpf_\n"
             "print(prec, same)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["53", "True"]
