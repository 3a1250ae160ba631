"""Exact decimal round trips, an import that leaves mpmath's precision alone, the
float64 log of an mpf, the precision floors and the mpmath version gate."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from mpmath import mp, mpf

import dunkldyn
from dunkldyn import dunkl, growth, numeric, series
from dunkldyn.cli import _fmt
from dunkldyn.construct import build_frequently_hypercyclic
from dunkldyn.dunkl import DunklWeights
from dunkldyn.growth import RateEnvelope, standard_r_grid
from dunkldyn.numeric import float_ln, to_decimal


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


FLOAT_LN_BITS = [64, 128, 256, 1024, 2600]


def _near_float64_ties(bits):
    """mpf x at bits whose ln x lies at, or 1 to 3 units of its 96th bit from, a float64
    midpoint or a power of two, each side, for ln x > 0 and < 0: x = exp(y) rounded
    to bits, so ln x is y to about 2^-bits."""
    ys = []
    with mp.workprec(200):
        for sign in (1, -1):
            mid = mpf(1.5) + mpf(2) ** -53  # halfway between two float64 values
            for k in range(-3, 4):
                ys.append(sign * (mid + k * mpf(2) ** -95))
                ys.append(sign * (2 + abs(k) * mpf(2) ** -94))  # at and above 2
                ys.append(sign * (2 - abs(k) * mpf(2) ** -95))  # at and below 2
    with mp.workprec(bits):
        return [mpmath.exp(y) for y in ys]


def _grid_values(bits):
    """The radii of three grids (the default one, two points, 300 points to 1000),
    radii wider than bits, and the three envelopes' values on them."""
    with mp.workprec(bits):
        grids = [standard_r_grid(), standard_r_grid(points=2),
                 standard_r_grid(r_max=1000, points=300)]
    with mp.workprec(bits + 70):
        wide = [mpf(1) / 3, mpmath.pi * 100, mpmath.exp(-7), mpf(2) ** 300 / 7]
    values = [r for grid in grids for r in grid] + wide
    with mp.workprec(bits):
        for env in (RateEnvelope.log_growth(), RateEnvelope(lambda r: r + 1, "r+1")):
            values += [env(r) for r in values[:len(grids[0])] + wide]
    return values


class TestFloatLn:
    """numeric.float_ln against float(mpmath.ln(x)), its definition."""

    @pytest.mark.parametrize("bits", FLOAT_LN_BITS)
    def test_equals_float_of_the_prec_bit_log(self, bits):
        values = _grid_values(bits) + _near_float64_ties(bits)
        with mp.workprec(bits):
            want = [float(mpmath.ln(x)) for x in values]
            got = [float_ln(x) for x in values]
        assert [math.copysign(1, v) for v in got] == [math.copysign(1, v) for v in want]
        assert got == want

    @pytest.mark.parametrize("bits", [256, 1024, 2600])
    def test_logs_near_a_midpoint_or_a_power_of_two_take_the_prec_bit_log(self, monkeypatch,
                                                                          bits):
        ties, plain = _near_float64_ties(bits), _grid_values(bits)[:256]
        calls = []
        ln = mpmath.ln
        monkeypatch.setattr(mpmath, "ln", lambda x: calls.append(x) or ln(x))
        with mp.workprec(bits):
            for x in ties:
                float_ln(x)
            assert len(calls) == len(ties)
            for x in plain:
                float_ln(x)
        assert len(calls) < len(ties) + 4  # the default grid's logs almost never fall back

    def test_a_log_wider_than_the_precision_rounds_it_twice(self):
        # at 64 bits ln x = mid + 2^-70 rounds to the float64 midpoint mid, which ties
        # to even (1.5); its 96-bit log lies 2^25 units above mid and would round up
        with mp.workprec(200):
            x = mpmath.exp(mpf(1.5) + mpf(2) ** -53 + mpf(2) ** -70)
        with mp.workprec(64):
            assert float(mpmath.ln(x)) == 1.5
            assert float_ln(x) == 1.5

    def test_special_and_negative_values_take_mpmath(self):
        with mp.workprec(256):
            assert float_ln(mpf(1)) == 0.0
            assert float_ln(mpf(0)) == -math.inf
            assert float_ln(mpmath.inf) == math.inf
            assert math.isnan(float_ln(mpmath.nan))
            with pytest.raises(TypeError):
                float_ln(mpf(-2))  # ln -2 is complex, and float() refuses it


def _mirrored_routes_output(tmp_path):
    """A 512-entry table at alpha -0.49, the default grid, and an fhc series read back."""
    w = DunklWeights(mpf("-0.49"), 512)
    table = [w.log_weight(n)._mpf_ for n in range(513)]
    grid = [r._mpf_ for r in standard_r_grid()]
    path = tmp_path / "fhc.series"
    if not path.exists():
        f, _ = build_frequently_hypercyclic(DunklWeights(1, 4096), 2, RateEnvelope.log_growth(), 1)
        series.write_series(f, str(path), 1)
    f, _, _ = series.read_series(str(path))
    return table, grid, [(n, c._mpc_) for n, c in f.items()]


def test_another_mpmath_takes_each_fallback_with_the_same_bits(monkeypatch, tmp_path):
    routed = _mirrored_routes_output(tmp_path)

    def refused(*args):
        raise AssertionError("a mirrored route ran under another mpmath")

    from_str_calls = []

    def counting_from_str(*args):
        from_str_calls.append(args)
        return mpmath.libmp.from_str(*args)

    monkeypatch.setattr(mpmath, "__version__", "1.4.0")
    monkeypatch.setattr(dunkl, "log_taylor_cached", refused)
    monkeypatch.setattr(growth, "_exp_multiples", refused)
    monkeypatch.setattr(series, "from_str", counting_from_str)
    assert not numeric.mirrors_mpmath()
    fallback = _mirrored_routes_output(tmp_path)
    assert fallback == routed
    # every decimal of every line: the nonzero coefficients and the closing zero one
    assert len(from_str_calls) == 2 * (len(routed[2]) + 1)
