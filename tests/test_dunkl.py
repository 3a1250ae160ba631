"""Weight tables and operator actions: recurrence vs closed form, dual routes."""

import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import libmp, mp, mpf, mpc

from dunkldyn import dunkl
from dunkldyn.dunkl import DunklWeights, apply_dunkl, apply_dunkl_direct, right_inverse
from dunkldyn.growth import lemma1_ratio, lemma3_on_grid
from dunkldyn.series import TruncatedSeries

ALPHAS = ["-0.49", "0", "0.5", "1", "3"]


def weights_by_integer_recurrence(alpha, n_max):
    """Independent oracle: a_n as exact rationals when alpha is rational."""
    from fractions import Fraction

    alpha = Fraction(alpha) if "." not in str(alpha) else Fraction(str(alpha))
    d = [Fraction(1)]
    for n in range(1, n_max + 1):
        a_n = Fraction(n) if n % 2 == 0 else Fraction(n) + 2 * alpha + 1
        d.append(d[-1] * a_n)
    return d


class TestWeights:
    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            DunklWeights(-0.5, 4)
        with pytest.raises(ValueError):
            DunklWeights(-2, 4)
        DunklWeights(-0.49, 4)

    def test_small_table_against_rational_oracle(self):
        for alpha_s in ["0", "0.5", "1", "3", "-0.25"]:
            w = DunklWeights(mpf(alpha_s), 24)
            oracle = weights_by_integer_recurrence(alpha_s, 24)
            for n in range(25):
                want = mpf(oracle[n].numerator) / oracle[n].denominator
                got = w.weight(n)
                assert abs(got - want) <= want * mpf(2) ** -240

    @pytest.mark.parametrize("alpha_s", ALPHAS)
    def test_gamma_closed_form_matches_recurrence(self, alpha_s):
        w = DunklWeights(mpf(alpha_s), 600)
        for n in range(601):
            lhs = w.log_weight(n)
            rhs = w.gamma_form_log_weight(n)
            assert abs(lhs - rhs) <= max(mpf(1), abs(lhs)) * mpf(2) ** (20 - mp.prec)

    def test_ratio_accessor(self):
        w = DunklWeights(mpf("0.5"), 10)
        # a_1 = 1 + 2(0.5) + 1 = 3, a_2 = 2, a_3 = 3 + 2 = 5, past n_max too
        want = [libmp.from_int(n) for n in (3, 2, 5, 12)]
        assert [w._raw_ratio(n) for n in (1, 2, 3, 12)] == want
        with pytest.raises(IndexError):
            w.log_weight(11)


def eager_table(alpha, n_max):
    """The recurrence written out at the ambient precision: (a_n, ln d_n) lists."""
    alpha = mpf(alpha)
    ratios, log_d = [mpf(0)], [mpf(0)]
    for n in range(1, n_max + 1):
        a_n = mpf(n) if n % 2 == 0 else mpf(n) + (2 * alpha + 1)
        ratios.append(a_n)
        log_d.append(log_d[-1] + mpmath.ln(a_n))
    return ratios, log_d


class TestLazyTable:
    N = 300

    @pytest.mark.parametrize("bits", [53, 256, 1024])
    @pytest.mark.parametrize("alpha_s", ALPHAS + ["0.3"])
    def test_bit_identical_to_eager_recurrence(self, alpha_s, bits):
        with mpmath.workprec(bits):
            ratios, log_d = eager_table(alpha_s, self.N)
            w = DunklWeights(mpf(alpha_s), self.N)
            for n in range(self.N + 1):
                assert w.log_weight(n)._mpf_ == log_d[n]._mpf_
                if n:
                    assert w._raw_ratio(n) == ratios[n]._mpf_

    @pytest.mark.parametrize("bits", [53, 256, 1024])
    @pytest.mark.parametrize("alpha_s", ALPHAS + ["0.3"])
    def test_read_order_and_ambient_precision_do_not_matter(self, alpha_s, bits):
        with mpmath.workprec(bits):
            ratios, log_d = eager_table(alpha_s, self.N)
            w = DunklWeights(mpf(alpha_s), self.N)
        order = list(range(self.N + 1))
        random.Random(bits).shuffle(order)
        for ambient in (bits // 2, 2 * bits):
            with mpmath.workprec(ambient):
                for n in order:
                    assert w.log_weight(n)._mpf_ == log_d[n]._mpf_
                    if n:
                        assert w._raw_ratio(n) == ratios[n]._mpf_

    def test_reading_k_fills_nothing_past_k(self):
        w = DunklWeights(mpf("0.3"), 100)
        filled = lambda: len(w._log_d) - 1
        assert filled() == 0
        w._raw_ratio(90)
        w.gamma_form_log_weight(90)
        assert filled() == 0
        w.log_weight(17)
        assert filled() == 17
        w.log_weight(5)
        assert filled() == 17
        w.weight(40)
        assert filled() == 40
        w.log_weight(100)
        assert filled() == 100

    def test_integer_alpha_takes_one_ln_per_distinct_ratio(self, monkeypatch):
        # alpha = 1: a_n = n + 3 for odd n is the even ratio a_(n+3), so the
        # 300 ratios hold the 150 even integers up to 300 plus 302
        calls = []

        def counting_log(x, prec, rnd):
            calls.append(x)
            return libmp.mpf_log(x, prec, rnd)

        monkeypatch.setattr(dunkl, "mpf_log", counting_log)
        DunklWeights(1, 300).log_weight(300)
        assert len(calls) == len(set(calls)) == 151
        calls.clear()
        DunklWeights(mpf("0.3"), 300).log_weight(300)
        assert len(calls) == 300


class TestFloatLogWeights:
    N = 16384

    @pytest.mark.parametrize("alpha", [mpf(a) for a in ALPHAS] + [mpf(-0.5) + mpf("2e-12")])
    def test_within_8_ulps_of_the_rounded_table(self, alpha):
        w = DunklWeights(alpha, self.N)
        got = w.float_log_weights(self.N)
        assert len(w._log_d) == 1  # the mpf table is not read
        want = np.array([float(w.log_weight(n)) for n in range(self.N + 1)])
        assert got.shape == want.shape and got.dtype == np.float64
        assert got[0] == 0.0
        assert np.all(np.abs(got - want) <= 8 * 2.0**-52 * np.maximum(1.0, np.abs(want)))

    def test_short_prefix_index_range_and_precision(self):
        w = DunklWeights(mpf("0.5"), 64)
        full = w.float_log_weights(64)
        assert np.array_equal(w.float_log_weights(10), full[:11])
        assert np.array_equal(w.float_log_weights(0), [0.0])
        with mpmath.workprec(53):
            assert np.array_equal(w.float_log_weights(64), full)
        for n in (-1, 65):
            with pytest.raises(IndexError):
                w.float_log_weights(n)
        assert len(w._log_d) == 1


def coefficient_bits(f: TruncatedSeries) -> list:
    """(n, raw mpc tuple) of every nonzero coefficient: equal lists are equal bit for bit."""
    return [(n, c._mpc_) for n, c in f.items()]


class TestTablePrecision:
    def test_table_below_ambient_precision_fixes_it(self):
        # a 53-bit table used at ambient 256 computes what it computes at 53
        with mpmath.workprec(53):
            w = DunklWeights(mpf("0.5"), 16)
        f = TruncatedSeries({0: 1, 3: mpf(1) / 3, 9: -2}, trunc_degree=16)
        calls = [lambda: apply_dunkl(f, w, 2), lambda: apply_dunkl_direct(f, w, 2),
                 lambda: right_inverse(f, w, 3)]
        ambient = [coefficient_bits(call()) for call in calls]
        assert mp.prec == 256
        with mpmath.workprec(53):
            assert ambient == [coefficient_bits(call()) for call in calls]
        # and rounds to 53 bits, not to the ambient 256
        assert coefficient_bits(apply_dunkl(f, w, 2)) != coefficient_bits(
            apply_dunkl(f, DunklWeights(mpf("0.5"), 16), 2))

    def test_methods_read_at_table_precision(self):
        # a 512-bit table read at ambient 53 gives its 512-bit values, not 53-bit ones;
        # the raw-tuple loops of the lemma ratios take that precision from the table too
        reads = (lambda w: w.log_weight(5), lambda w: w.weight(5),
                 lambda w: w.gamma_form_log_weight(5), lambda w: lemma1_ratio(5, w),
                 lambda w: lemma3_on_grid([mpf("0.5")], 2, w)[0])
        with mpmath.workprec(512):
            w = DunklWeights(mpf("0.5"), 200)
            want = [read(w)._mpf_ for read in reads]
        with mpmath.workprec(53):
            got = [read(w) for read in reads]
            assert mp.prec == 53
        assert [v._mpf_ for v in got] == want
        assert all(400 < v.man.bit_length() <= 512 for v in got)

    def test_table_above_working_precision_serves(self):
        with mpmath.workprec(512):
            w = DunklWeights(mpf("0.5"), 16)
        f = TruncatedSeries({0: 1, 3: mpf(1) / 3, 9: -2}, trunc_degree=16)
        g = apply_dunkl(f, w, 2)
        want = apply_dunkl_direct(f, w, 2)
        for n in range(17):
            assert abs(g.coeff(n) - want.coeff(n)) <= abs(want.coeff(n)) * mpf(2) ** (8 - mp.prec)
        back = apply_dunkl(right_inverse(f, w, 3), w, 3)
        for n in range(17):
            assert abs(back.coeff(n) - f.coeff(n)) <= abs(f.coeff(n)) * mpf(2) ** (8 - mp.prec)


def _apply_dunkl_mpf(f, w, k):
    """apply_dunkl in mpf and mpc operators: the oracle its raw-tuple loop must equal bit for bit."""
    with mpmath.workprec(w.precision_bits):
        table = {i - k: c * mpmath.exp(w.log_weight(i) - w.log_weight(i - k))
                 for i, c in f.items() if i >= k}
        return TruncatedSeries(table, f.trunc_degree)


def _apply_dunkl_direct_mpf(f, w, k):
    """apply_dunkl_direct in mpf and mpc operators: the oracle its raw-tuple loop must equal
    bit for bit."""
    with mpmath.workprec(w.precision_bits):
        two_alpha_plus_1 = 2 * w.alpha + 1
        out = f
        for _ in range(k):
            out = TruncatedSeries(
                {i - 1: c * (mpf(i) if i % 2 == 0 else mpf(i) + two_alpha_plus_1)
                 for i, c in out.items() if i >= 1}, f.trunc_degree)
        return out


class TestRawLoops:
    @pytest.mark.parametrize("bits", [53, 256, 512])
    @pytest.mark.parametrize("alpha_s", ALPHAS)
    def test_weight_equals_exp_of_log_weight(self, alpha_s, bits):
        with mpmath.workprec(bits):
            w = DunklWeights(mpf(alpha_s), 600)
            want = [mpmath.exp(w.log_weight(n))._mpf_ for n in range(601)]
        assert [w.weight(n)._mpf_ for n in range(601)] == want
        assert w.weight(-1) == 0

    @pytest.mark.parametrize("bits", [128, 256])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_apply_dunkl_equals_mpf_operators(self, k, bits):
        rng = random.Random(k)
        for alpha_s in ALPHAS:
            with mpmath.workprec(bits):
                w = DunklWeights(mpf(alpha_s), 160)
            coeffs = {n: mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * mpf(10) ** rng.randint(-40, 40)
                      for n in rng.sample(range(161), 60)}
            f = TruncatedSeries(coeffs, trunc_degree=160)
            assert coefficient_bits(apply_dunkl(f, w, k)) == coefficient_bits(
                _apply_dunkl_mpf(f, w, k))

    @pytest.mark.parametrize("ambient", [None, 1024], ids=["at-table", "table-below-ambient"])
    @pytest.mark.parametrize("bits", [128, 256, 512])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_apply_dunkl_direct_equals_mpf_operators(self, k, bits, ambient):
        # the coefficients carry twice the table's bits, so the first step rounds them
        rng = random.Random(k)
        for alpha_s in ALPHAS + ["0.3"]:
            with mpmath.workprec(bits):
                w = DunklWeights(mpf(alpha_s), 0)  # the direct route reads no weight
            with mpmath.workprec(2 * bits):
                coeffs = {i: mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 3
                          * mpf(10) ** rng.randint(-40, 40) for i in rng.sample(range(161), 60)}
                f = TruncatedSeries(coeffs, trunc_degree=160)
            with mpmath.workprec(ambient or bits):
                got = apply_dunkl_direct(f, w, k)
            assert coefficient_bits(got) == coefficient_bits(_apply_dunkl_direct_mpf(f, w, k))

    @pytest.mark.parametrize("bits", [128, 256, 512])
    @pytest.mark.parametrize("n", [1, 2, 3, 40])
    def test_right_inverse_equals_mpf_operators(self, n, bits):
        # the coefficients carry twice the table's bits, so the product rounds
        rng = random.Random(n)
        for alpha_s in ALPHAS:
            with mpmath.workprec(bits):
                w = DunklWeights(mpf(alpha_s), 200)
            with mpmath.workprec(2 * bits):
                coeffs = {i: mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 3
                          * mpf(10) ** rng.randint(-40, 40) for i in rng.sample(range(161), 60)}
                f = TruncatedSeries(coeffs, trunc_degree=200)
            with mpmath.workprec(bits):
                want = [(i + n, (c * mpmath.exp(w.log_weight(i) - w.log_weight(i + n)))._mpc_)
                        for i, c in f.items()]
            assert coefficient_bits(right_inverse(f, w, n)) == want


class TestOperator:
    def test_monomial_action(self):
        # L^k z^n = (d_n / d_{n-k}) z^{n-k}; L^k z^n = 0 for k > n
        w = DunklWeights(mpf("0.5"), 16)
        f = TruncatedSeries({5: 1}, trunc_degree=16)
        g = apply_dunkl(f, w, 2)
        assert g.degree() == 3
        want = mpmath.exp(w.log_weight(5) - w.log_weight(3))
        assert abs(g.coeff(3) - want) < want * mpf(2) ** -240
        assert apply_dunkl(f, w, 6).degree() == -1
        assert apply_dunkl(f, w, 5).coeff(0) != 0

    def test_one_step_formula(self):
        # L(z^2) = 2z regardless of alpha parity shift; L(z) = (2 alpha + 2)
        w = DunklWeights(0, 8)
        g = apply_dunkl(TruncatedSeries({2: 1}, trunc_degree=8), w)
        assert g.degree() == 1 and abs(g.coeff(1) - 2) < mpf(2) ** -250
        w2 = DunklWeights(mpf("0.5"), 8)
        h = apply_dunkl(TruncatedSeries({1: 1}, trunc_degree=8), w2)
        assert h.degree() == 0 and abs(h.coeff(0) - 3) < mpf(2) ** -250

    @given(
        st.dictionaries(st.integers(0, 32), st.integers(-20, 20), max_size=10),
        st.integers(0, 6),
        st.sampled_from(ALPHAS),
    )
    @settings(deadline=None, max_examples=50)
    def test_table_route_equals_direct_route(self, coeffs, k, alpha_s):
        mp.prec = 256
        w = DunklWeights(mpf(alpha_s), 64)
        f = TruncatedSeries(coeffs, trunc_degree=64)
        a = apply_dunkl(f, w, k)
        b = apply_dunkl_direct(f, w, k)
        assert a.trunc_degree == b.trunc_degree
        for n in range(65):
            ca, cb = a.coeff(n), b.coeff(n)
            scale = max(abs(ca), abs(cb))
            if scale == 0:
                continue
            assert abs(ca - cb) <= scale * mpf(2) ** (30 - mp.prec)

    def test_right_inverse_is_right_inverse(self):
        w = DunklWeights(mpf("1"), 64)
        f = TruncatedSeries({0: 2, 3: -1, 7: mpf("0.25")}, trunc_degree=64)
        for n in (1, 2, 5):
            g = right_inverse(f, w, n)
            back = apply_dunkl(g, w, n)
            for i in range(65):
                assert abs(back.coeff(i) - f.coeff(i)) <= max(
                    mpf(1), abs(f.coeff(i))
                ) * mpf(2) ** -230

    def test_right_inverse_overflow_guard(self):
        w = DunklWeights(0, 64)
        f = TruncatedSeries({60: 1}, trunc_degree=64)
        with pytest.raises(ValueError):
            right_inverse(f, w, 5)

    def test_table_too_short(self):
        w = DunklWeights(0, 4)
        f = TruncatedSeries({6: 1}, trunc_degree=8)
        with pytest.raises(ValueError):
            apply_dunkl(f, w, 1)

