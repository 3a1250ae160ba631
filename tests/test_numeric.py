"""Exact decimal round trips, and an import that leaves mpmath's precision alone."""

import os
import subprocess
import sys
from pathlib import Path

import mpmath
from mpmath import mpf

import dunkldyn
from dunkldyn.numeric import to_decimal


def test_decimal_round_trip_exact():
    values = [mpf(1) / 3, mpf(2) ** 100000, mpf(2) ** -100000, mpf("-0.1"),
              mpmath.exp(mpf(12345)), mpf(0)]
    for x in values:
        assert mpf(to_decimal(x)) == x


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
