"""Truncated series: linear structure, circle evaluation, persistence."""

import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc

from dunkldyn.series import (
    TruncatedSeries,
    exp_truncation,
    read_series,
    write_series,
)


def poly_eval_oracle(coeffs, z):
    """Independent evaluation: plain power sum, no Horner."""
    return sum(mpc(c) * mpc(z) ** n for n, c in coeffs.items())


class TestBasics:
    def test_construction_drops_zeros(self):
        f = TruncatedSeries({0: 1, 3: 0, 5: -2}, trunc_degree=8)
        assert f.n_nonzero() == 2
        assert f.degree() == 5
        assert f.coeff(3) == 0
        assert list(f.items()) == [(0, mpc(1)), (5, mpc(-2))]

    def test_mpc_coefficient_stored_as_given(self):
        c = mpc(mpf(1) / 3, mpf(-2) / 7)
        f = TruncatedSeries({2: c, 5: mpc(4)}, trunc_degree=8)
        assert f.coeff(2)._mpc_ == c._mpc_
        assert f.coeff(5)._mpc_ == mpc(4)._mpc_

    def test_wider_coefficients_rounded_to_working_precision(self):
        with mp.workprec(512):
            x = mpf(1) / 3
            c = mpc(mpf(1) / 7, mpf(-1) / 11)
        assert mp.prec == 256
        f = TruncatedSeries({0: x, 1: c}, trunc_degree=4)
        assert f.coeff(0)._mpc_ == (mpf(x)._mpf_, mpf(0)._mpf_)
        assert f.coeff(0).real != x and f.coeff(0).real.bc <= 256
        # mpc(c) rounds an mpc too; the stored value is the rounded one
        assert f.coeff(1)._mpc_ == mpc(c)._mpc_
        assert f.coeff(1)._mpc_ != c._mpc_

    def test_zero_dropped_and_nan_kept(self):
        f = TruncatedSeries({0: mpc(0), 1: mpc(mpf("nan")), 2: mpf(0)}, trunc_degree=4)
        assert [n for n, _ in f.items()] == [1]
        assert mpmath.isnan(f.coeff(1).real)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            TruncatedSeries({9: 1}, trunc_degree=8)
        with pytest.raises(ValueError):
            TruncatedSeries({-1: 1}, trunc_degree=8)

    def test_zero_series(self):
        z = TruncatedSeries({}, 16)
        assert z.degree() == -1
        assert z.evaluate(mpf(3)) == 0
        assert z.sup_on_disk(mpf(2), 8) == 0

    def test_add_scale(self):
        f = TruncatedSeries({0: 1, 2: 3}, trunc_degree=8)
        g = TruncatedSeries({2: -3, 4: 1}, trunc_degree=8)
        h = f.add(g)
        assert h.coeff(2) == 0 and h.coeff(0) == 1 and h.coeff(4) == 1
        assert f.scale(2).coeff(2) == 6
        with pytest.raises(ValueError):
            f.add(TruncatedSeries({}, 9))


@given(
    st.dictionaries(st.integers(0, 12), st.integers(-50, 50), max_size=8),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
@settings(deadline=None, max_examples=60)
def test_evaluate_matches_power_sum_oracle(coeffs, zr, zi):
    mp.prec = 256
    f = TruncatedSeries(coeffs, trunc_degree=12)
    z = mpc(zr, zi)
    want = poly_eval_oracle(coeffs, z)
    got = f.evaluate(z)
    assert abs(got - want) <= max(mpf(1), abs(want)) * mpf(2) ** -230


@given(
    st.dictionaries(st.integers(0, 10), st.integers(-9, 9), max_size=6),
    st.dictionaries(st.integers(0, 10), st.integers(-9, 9), max_size=6),
)
@settings(deadline=None, max_examples=40)
def test_linearity(ca, cb):
    mp.prec = 256
    f = TruncatedSeries(ca, trunc_degree=10)
    g = TruncatedSeries(cb, trunc_degree=10)
    z = mpc("0.7", "-1.3")
    lhs = f.add(g.scale(3)).evaluate(z)
    rhs = f.evaluate(z) + 3 * g.evaluate(z)
    assert abs(lhs - rhs) <= max(mpf(1), abs(rhs)) * mpf(2) ** -230


def test_evaluate_circle_matches_pointwise():
    f = TruncatedSeries({0: 1, 1: mpc(0, 2), 7: -3}, trunc_degree=16)
    r, m = mpf("1.5"), 12
    vals = f.evaluate_circle(r, m)
    for j in range(m):
        z = r * mpmath.exp(2j * mp.pi * j / m)
        assert abs(vals[j] - f.evaluate(z)) < mpf(2) ** -230


def test_sup_on_disk_dominates_coefficient_bound():
    # max_j |f| over samples >= |c_n| r^n / (n+1 choose ...) is loose; the
    # sharp usable direction is sup >= |f(r)| and sup >= max coefficient term
    # after averaging, checked here through explicit small cases
    f = TruncatedSeries({3: 4}, trunc_degree=8)
    r = mpf(2)
    sup = f.sup_on_disk(r, 16)
    assert abs(sup - 4 * r**3) < mpf(2) ** -220


def test_sup_on_disk_extreme_scale_pruning():
    # a coefficient 2^-100000 below the top must not disturb the sup
    f = TruncatedSeries({0: mpf(2) ** -100000, 5: 1}, trunc_degree=8)
    sup = f.sup_on_disk(mpf(1), 8)
    assert abs(sup - 1) < mpf(2) ** -200


def test_exp_truncation_values():
    f = exp_truncation(20, trunc_degree=32)
    fact = 1
    for n in range(1, 21):
        fact *= n
        assert abs(f.coeff(n) - mpf(1) / fact) < mpf(2) ** -240
    # partial sum at z=1 close to e, off by the tail
    assert abs(f.evaluate(1) - mpmath.e) < mpf(10) ** -19


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        f = TruncatedSeries(
            {0: mpf(1) / 3, 5: mpc(mpf(2) ** -300, mpf("1e100")), 63: -7},
            trunc_degree=64,
        )
        path = tmp_path / "f.series"
        write_series(f, path, mpf("0.5"), precision_bits=256)
        g, alpha, bits = read_series(path)
        assert bits == 256 and alpha == mpf("0.5")
        assert g == f

    def test_round_trip_reevaluates_identically(self, tmp_path):
        rng = random.Random(7)
        coeffs = {rng.randint(0, 128): mpf(rng.uniform(-5, 5)) for _ in range(30)}
        f = TruncatedSeries(coeffs, trunc_degree=128)
        path = tmp_path / "f.series"
        write_series(f, path, 0)
        g, _, _ = read_series(path)
        for _ in range(20):
            z = mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert f.evaluate(z) == g.evaluate(z)

    def test_truncation_order_survives(self, tmp_path):
        f = TruncatedSeries({1: 2}, trunc_degree=100)
        path = tmp_path / "f.series"
        write_series(f, path, 0)
        g, _, _ = read_series(path)
        assert g.trunc_degree == 100

    @pytest.mark.parametrize("bits", [53, 256, 512])
    def test_reader_tuples_equal_mpf_route(self, tmp_path, bits):
        # the reader parses each decimal with from_str at the header's bits; its
        # coefficients must equal mpc(mpf(re), mpf(im)) there, tuple for tuple.
        # Decimal exponents (counting the fraction digits) at or below 400 scale by
        # an exact power of ten, above 400 by mpf_pow_int; zeros and signs included
        pairs = [("0", "-0"), ("1", "0"), ("-1.25", "3.5e-3"), ("0.0", "-7"),
                 ("0.1", "-0.30000000000000000000000000000000000000000000000001"),
                 ("6.02214076e+23", "-1e400"), ("1e401", "-2.5e-401"),
                 ("-7.000000000000000000000000000000000000000000000000001e-350", "9.99e450"),
                 ("12345678901234567890123456789012345678901234567890e-390", "-0.0e5"),
                 ("-3.14159265358979323846264338327950288419716939937510582e-420", "1/3")]
        rows = [f"{n} {re} {im}" for n, (re, im) in enumerate(pairs)]
        path = tmp_path / "f.series"
        path.write_text("\n".join(["dunklseries v1", "alpha=0", f"precision_bits={bits}",
                                   f"n_coeffs={len(rows)}", *rows]) + "\n")
        f, _, got_bits = read_series(path)
        assert got_bits == bits and f.trunc_degree == len(pairs) - 1
        with mp.workprec(bits):
            want = [mpc(mpf(re), mpf(im)) for re, im in pairs]
        assert f.n_nonzero() == sum(1 for c in want if c)
        for n, c in enumerate(want):
            assert f.coeff(n)._mpc_ == c._mpc_

    def test_rejects_malformed_decimal(self, tmp_path):
        path = tmp_path / "bad.series"
        for bad in ("1.5x", "1e", "--2", "0x10"):
            path.write_text(f"dunklseries v1\nalpha=0\nprecision_bits=256\nn_coeffs=1\n0 1 {bad}\n")
            with pytest.raises(ValueError, match=f"^{path}: "):
                read_series(path)

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.series"
        path.write_text("not a series\n")
        with pytest.raises(ValueError):
            read_series(path)
        path.write_text("dunklseries v1\nalpha=0\nprecision_bits=256\nn_coeffs=2\n0 1 0\n")
        with pytest.raises(ValueError):
            read_series(path)
        path.write_text(
            "dunklseries v1\nalpha=0\nprecision_bits=256\nn_coeffs=2\n3 1 0\n1 1 0\n"
        )
        with pytest.raises(ValueError):
            read_series(path)
        path.write_text("dunklseries v1\nalpha=0\nprecision_bits=256\nn_coeffs=1\n0 1/0 0\n")
        with pytest.raises(ValueError, match="denominator 0"):
            read_series(path)
