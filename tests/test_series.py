"""Truncated series: linear structure, circle evaluation, persistence."""

import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc
from mpmath.libmp import from_str, fzero, round_nearest

import dunkldyn.series
from byte_identity import ROWS
from dunkldyn.cli import main
from dunkldyn.series import (
    TruncatedSeries,
    _decimal_reader,
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

    @pytest.mark.parametrize("bits", [8, 53, 256, 2600])
    def test_mpf_coefficient_stored_as_the_mpc_of_it(self, bits):
        # a finite nonzero mpf that fits the precision is stored as (c, 0) directly;
        # wider, zero, infinite and nan values go through mpc(c), and zero is dropped
        rng = random.Random(bits)
        with mp.workprec(bits + 40):
            wide = [mpf(rng.getrandbits(bits + 40) | 1) * mpf(2) ** rng.randint(-300, 300)
                    for _ in range(20)]
        with mp.workprec(bits):
            narrow = [mpf(rng.getrandbits(bits) | 1) * mpf(2) ** rng.randint(-300, 300)
                      for _ in range(20)]
            values = [*narrow, *(-x for x in narrow), *wide, *(-x for x in wide),
                      mpf(rng.uniform(-1, 1)), mpf(0), mpf("inf"), mpf("-inf"), mpf("nan")]
            for c in values:
                f = TruncatedSeries({3: c}, trunc_degree=4)
                want = mpc(c)
                assert f.n_nonzero() == (1 if want else 0)
                assert f.coeff(3)._mpc_ == want._mpc_
        assert any(x._mpf_[3] > bits for x in wide)

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


# ---------------------------------------------------------------------------
# the series reader's decimals: from_str's tuples, mostly without from_str

_READER_BITS = (53, 64, 128, 256, 512)


@pytest.fixture
def fallbacks(monkeypatch):
    """The texts the reader sends to from_str, in order."""
    seen = []

    def counting(text, prec, rnd):
        seen.append(text)
        return from_str(text, prec, rnd)

    monkeypatch.setattr(dunkldyn.series, "from_str", counting)
    return seen


def _leading_digits(num, nd):
    """(d, e) with d the nd leading decimal digits of the integer num > 0, truncated,
    and num = d 10^e + (less than 10^e)."""
    length = int(num.bit_length() * 0.30102999566398) + 1
    while 10 ** (length - 1) > num:
        length -= 1
    while 10**length <= num:
        length += 1
    if length <= nd:
        return num, 0
    return num // 10 ** (length - nd), length - nd


def _scientific(digits: int, e10: int, sign: str = "") -> str:
    """digits 10^e10 written as d.ddde<exponent>, as to_decimal writes it."""
    text = str(digits)
    return f"{sign}{text[0]}.{text[1:] or '0'}e{e10 + len(text) - 1}"


def _random_decimal(rng: random.Random, bits: int) -> str:
    """A decimal whose from_str exponent (fraction digits counted) is at most 400 in
    magnitude, or beyond -400, half of them in to_decimal's layout."""
    n_digits = rng.randint(1, 3 * bits // 10 + 20)
    digits = rng.randint(10 ** (n_digits - 1), 10**n_digits - 1)
    e10 = rng.randint(-400, -1) if rng.random() < 0.5 else rng.randint(-30000, -401)
    sign = rng.choice(("", "-"))
    if rng.random() < 0.5:
        return _scientific(digits, e10, sign)
    point = rng.randint(0, n_digits)
    text = str(digits)
    whole, frac = text[:point] or "0", text[point:]
    return f"{sign}{whole}{'.' + frac if frac else ''}e{e10 + len(frac)}"


@pytest.mark.parametrize("bits", _READER_BITS)
def test_random_decimals_equal_from_str(bits, fallbacks):
    # 4000 decimals per precision, 20k in all, on both sides of from_str's
    # exponent cut at 400.  Only those within 1/32 of a unit in the last place of
    # a midpoint take from_str: at most 1/16 of long random mantissas, and none
    # of a written file's (below)
    rng = random.Random(bits)
    read = _decimal_reader(bits)
    texts = [_random_decimal(rng, bits) for _ in range(4000)]
    assert [read(t) for t in texts] == [from_str(t, bits, round_nearest) for t in texts]
    assert 0 < len(fallbacks) < len(texts) / 12


def _near_midpoints(rng: random.Random, bits: int):
    """(text, midpoint) pairs: decimals at or within a few units of their last digit of
    a rounding midpoint (midpoint True), or of a power of two (False).  The midpoints
    sit in a binade, just below a power of two and just above one."""
    nd_min = int((bits + 8) * 0.30102999566398) + 3
    for _ in range(300):
        e2 = rng.choice((rng.randint(-1300, -bits), rng.randint(-30000, -1300)))
        man = rng.getrandbits(bits - 1) | 1 << (bits - 1)
        kind = rng.randrange(4)
        num, e2 = ((2 * man + 1, e2 - 1), (1, e2), ((1 << bits + 1) - 1, e2 - bits - 1),
                   ((1 << bits) + 1, e2 - bits))[kind]
        # num 2^e2 = num 5^-e2 10^e2, exact in decimal
        digits, e10 = _leading_digits(num * 5 ** -e2, rng.randint(nd_min, nd_min + 30))
        yield _scientific(digits + rng.choice((-2, -1, 0, 0, 1, 2)), e2 + e10,
                          rng.choice(("", "-"))), kind != 1


@pytest.mark.parametrize("bits", _READER_BITS)
def test_decimals_near_midpoints_and_binade_edges(bits, fallbacks):
    # a decimal this close to a midpoint goes to from_str, exact ties (round half
    # to even) included; one this close to a power of two rounds on the fast path
    # to the power of two, from below or above
    rng = random.Random(-bits)
    read = _decimal_reader(bits)
    for text, midpoint in _near_midpoints(rng, bits):
        before = len(fallbacks)
        assert read(text) == from_str(text, bits, round_nearest), text
        assert len(fallbacks) - before == midpoint, text
    # exact ties (2 k + 1) 2^-(bits + 3) with 2 k + 1 of bits + 1 bits, written in full
    ties = [f"{(2 * k + 1) * 5 ** (bits + 3)}e-{bits + 3}"
            for k in range(2 ** (bits - 1), 2 ** (bits - 1) + 4)]
    before = len(fallbacks)
    assert [read(t) for t in ties] == [from_str(t, bits, round_nearest) for t in ties]
    assert len(fallbacks) - before == len(ties)


@pytest.mark.parametrize("bits", _READER_BITS)
def test_texts_outside_the_grammar_go_to_from_str(bits, fallbacks):
    # a sign +, an upper-case E, underscores, non-ASCII digits, a missing digit on
    # either side of the point, the special values and net exponents of at least 0
    # all take from_str; every spelling of zero is its zero, without it
    texts = ["+1.5", "1.5E-3", "1_0", "1_0.5e-3", "\u0661\u0662.5e-3", "\uff11.5", "1.", ".5",
             "-.5e-3", "inf", "-inf", "nan", "1.5e3", "1e401", "2.5e+3", "-7e1", "3.25e2",
             "1234.5e3"]
    read = _decimal_reader(bits)
    assert [read(t) for t in texts] == [from_str(t, bits, round_nearest) for t in texts]
    assert fallbacks == texts
    zeros = ["0", "-0", "0.0", "-0.0", "0.000e-500", "-00.0e7", "0e401"]
    assert [read(t) for t in zeros] == [from_str(t, bits, round_nearest) for t in zeros]
    assert fallbacks == texts


def test_byte_identity_series_files_read_as_from_str(tmp_path, monkeypatch, fallbacks):
    # every .series file that the byte-identity matrix writes: each decimal equals
    # from_str's tuple at the header's bits, and none of them needs from_str
    monkeypatch.chdir(tmp_path)
    for argv in ROWS:
        if argv[0].startswith("build-"):
            assert main(argv) == 0
    paths = sorted(tmp_path.glob("*.series"))
    assert len(paths) == 8
    for path in paths:
        lines = path.read_text().splitlines()
        bits = int(lines[2].removeprefix("precision_bits="))
        texts = [t for line in lines[4:] for t in line.split()[1:]]
        read = _decimal_reader(bits)
        want = [from_str(t, bits, round_nearest) for t in texts]
        assert [read(t) for t in texts] == want
        f, _, _ = read_series(path)
        pairs = [(want[i], want[i + 1]) for i in range(0, len(want), 2)]
        assert [c._mpc_ for _, c in f.items()] == [pair for pair in pairs if pair != (fzero, fzero)]
    assert fallbacks == []
