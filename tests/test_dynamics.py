"""Orbit diagnostics at the origin and the growth-constant sweep."""

import mpmath
import pytest
from mpmath import mp, mpf

from dunkldyn import dynamics
from dunkldyn.construct import BuilderConfig, build_hypercyclic
from dunkldyn.dunkl import DunklWeights
from dunkldyn.dynamics import (
    OrbitReport,
    Thm3bReport,
    orbit_at_zero,
    thm3b_bound_check,
    windowed_c_star,
)
from dunkldyn.growth import RateEnvelope, standard_r_grid
from dunkldyn.series import TruncatedSeries, exp_truncation


class TestOrbitAtZero:
    def test_monomial_spike(self):
        # z^10 / d_10 has orbit value exactly 1 at step 10 and 0 elsewhere
        w = DunklWeights(mpf("0.5"), 64)
        f = TruncatedSeries({10: mpmath.exp(-w.log_weight(10))}, trunc_degree=64)
        report = orbit_at_zero(f, w, 64)
        assert report.sup_index == 10
        assert abs(report.orbit_sup() - 1) < mpf(2) ** -240
        for n, v in enumerate(report.values):
            if n == 10:
                continue
            assert v == 0

    def test_coefficient_identity(self):
        # v_n = c_n * d_n, checked against an independent weight recurrence
        w = DunklWeights(1, 64)
        coeffs = {0: mpf(3), 3: mpf("-0.25"), 7: mpf("1e-40"), 12: mpf(2) ** 100}
        f = TruncatedSeries(dict(coeffs), trunc_degree=64)
        report = orbit_at_zero(f, w, 16)
        d = mpf(1)
        for n in range(17):
            if n > 0:
                d *= n if n % 2 == 0 else n + 2 * 1 + 1
            if n in coeffs:
                want = coeffs[n] * d
                got = report.values[n]
                assert abs(got - want) <= abs(want) * mpf(2) ** -200
            else:
                assert report.values[n] == 0

    def test_zero_function(self):
        w = DunklWeights(0, 32)
        f = TruncatedSeries({}, trunc_degree=32)
        report = orbit_at_zero(f, w, 32)
        assert report.orbit_sup() == 0
        assert report.bounded

    def test_growing_orbit_not_bounded(self):
        # constant coefficients against Dunkl weights blow up like d_n
        w = DunklWeights(0, 128)
        f = TruncatedSeries({n: mpf(1) for n in range(129)}, trunc_degree=128)
        report = orbit_at_zero(f, w, 128)
        assert not report.bounded
        assert report.sup_index == 128

    def test_sup_tie_guard(self):
        # a rise of ln|v| below 2^(20-prec) is a tie, one above it a new supremum
        w = DunklWeights(0, 8)
        tol = mpf(2) ** (20 - mp.prec)

        def orbit_through(targets):  # c_n = target / d_n, so v_n = target up to rounding
            f = TruncatedSeries({n: t / w.weight(n) for n, t in targets.items()}, trunc_degree=8)
            return orbit_at_zero(f, w, 8)

        assert orbit_through({0: mpf(1), 2: 1 + tol / 2}).sup_index == 0
        assert orbit_through({0: mpf(1), 2: 1 + tol / 2, 5: -(1 + 3 * tol)}).sup_index == 5

    @pytest.mark.parametrize("n", [1, 17, 64])
    def test_cross_check_catches_corrupted_weight(self, n):
        # the operator route steps f with the recurrence factors, not the
        # d_n table, so one bad ln d_n entry must show up at step n
        w = DunklWeights(mpf("0.5"), 128)
        f = exp_truncation(128, 128)
        orbit_at_zero(f, w, 100)
        w._log_d[n] += mpf(2) ** -180
        with pytest.raises(RuntimeError, match=f"orbit cross-check failed at n={n}:"):
            orbit_at_zero(f, w, 100)

    def test_table_below_ambient_precision_fixes_it(self):
        # a 128-bit table used at ambient 256 computes what it computes at 128
        with mpmath.workprec(128):
            w = DunklWeights(mpf("0.5"), 128)
        f = exp_truncation(128, 128)
        grid = standard_r_grid(1, 50, 8)
        calls = [lambda: orbit_at_zero(f, w, 100).values,
                 lambda: thm3b_bound_check(f, w, grid, 40),
                 lambda: windowed_c_star(f, w, grid, (20, 50))]
        ambient = [call() for call in calls]
        with mpmath.workprec(128):
            at_table = [call() for call in calls]
        assert mp.prec == 256
        assert [v._mpf_ for v in ambient[0]] == [v._mpf_ for v in at_table[0]]
        assert ambient[1] == at_table[1]  # the report's mpf fields compare by value
        assert [c._mpf_ for c in ambient[2]] == [c._mpf_ for c in at_table[2]]

    def test_horizon_validation(self):
        w = DunklWeights(0, 32)
        f = TruncatedSeries({0: mpf(1)}, trunc_degree=16)
        with pytest.raises(ValueError):
            orbit_at_zero(f, w, 17)
        with pytest.raises(ValueError):
            orbit_at_zero(TruncatedSeries({0: mpf(1)}, trunc_degree=64), w, 48)

    def test_report_values_length(self):
        w = DunklWeights(0, 32)
        f = TruncatedSeries({2: mpf(5)}, trunc_degree=32)
        report = orbit_at_zero(f, w, 20)
        assert len(report.values) == 21


class TestThm3b:
    def test_constant_function_peak(self):
        # M_1(1, r) = 1, so the sweep maximizes r^(a+1) e^(-r) at r = a+1
        w = DunklWeights(0, 64)
        f = TruncatedSeries({0: mpf(1)}, trunc_degree=64)
        report = thm3b_bound_check(f, w, standard_r_grid(0.01, 10, 32), 16)
        assert abs(report.c_star - mpmath.exp(-1)) < mpf("1e-30")
        assert abs(report.r_peak - 1) < mpf("1e-30")
        assert report.consistent
        assert abs(report.orbit_sup - 1) < mpf(2) ** -240

    @pytest.mark.parametrize("shrink_bits, consistent", [(39, True), (41, False)])
    def test_consistency_margin(self, monkeypatch, shrink_bits, consistent):
        # for f = 1 the chain is tight at n = 0 (|v_0| = C_star e^x / x^x at
        # x = 1), so a bound lowered by 2^(b-prec) fails exactly when b > 40
        true_ratio = dynamics.lemma1_ratio
        shrink = 1 - mpf(2) ** (shrink_bits - mp.prec)
        monkeypatch.setattr(dynamics, "lemma1_ratio", lambda n, w: true_ratio(n, w) * shrink)
        w = DunklWeights(0, 64)
        f = TruncatedSeries({0: mpf(1)}, trunc_degree=64)
        report = thm3b_bound_check(f, w, standard_r_grid(0.01, 10, 32), 16)
        assert report.consistent is consistent

    def test_built_function_consistent(self):
        w = DunklWeights(0, 4096)
        env = RateEnvelope.log_growth()
        f, plan = build_hypercyclic(w, env, 2)
        report = thm3b_bound_check(f, w, standard_r_grid(), 600)
        assert report.consistent
        assert report.n_checked == 600

    def test_windowed_ladder_increasing(self):
        w = DunklWeights(0, 4096)
        env = RateEnvelope.log_growth()
        f, plan = build_hypercyclic(w, env, 4)
        ladder = windowed_c_star(
            f, w, standard_r_grid(), (mpf(50), mpf(100), mpf(200), mpf(400))
        )
        assert len(ladder) == 4
        for a, b in zip(ladder, ladder[1:]):
            assert b > a
        assert all(c > 0 for c in ladder)

    def test_windowed_matches_full_sweep_at_top(self):
        # the last window spans the whole grid, so it agrees with the
        # unwindowed constant up to the horizon cap
        w = DunklWeights(mpf("0.5"), 4096)
        env = RateEnvelope.log_growth()
        f, plan = build_hypercyclic(w, env, 2)
        grid = standard_r_grid()
        full = thm3b_bound_check(f, w, grid, int(mpf(400) - mpf("0.5") - 1))
        ladder = windowed_c_star(f, w, grid, (mpf(400),))
        assert abs(ladder[0] - full.c_star) <= full.c_star * mpf("1e-25")
