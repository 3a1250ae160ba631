"""Orbit diagnostics at the origin and the growth-constant sweep."""

import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from dunkldyn import dynamics
from dunkldyn.construct import build_frequently_hypercyclic, build_hypercyclic
from dunkldyn.dunkl import DunklWeights
from dunkldyn.dynamics import orbit_at_zero, thm3b_bound_check, windowed_c_star
from dunkldyn.growth import RateEnvelope, lemma1_ratio, standard_r_grid
from dunkldyn.means import MeanParams, means_on_grid
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

    @pytest.mark.parametrize("bits", [128, 256, 512])
    def test_values_equal_mpf_operators(self, bits):
        # real coefficients by their real part, complex ones by modulus, zeros as 0
        with mpmath.workprec(bits):
            w = DunklWeights(mpf("0.5"), 96)
        coeffs = {0: mpf(3), 1: mpc(0, 2), 4: mpf("-0.25"), 9: mpc(1, -1) / 7,
                  30: mpf(10) ** -40, 77: mpf(2) ** 100 / 3, 96: mpf(5)}
        f = TruncatedSeries(coeffs, trunc_degree=96)
        report = orbit_at_zero(f, w, 80)
        with mpmath.workprec(bits):
            want = [mpf(0)._mpf_] * 81
            for n, c in f.items():
                if n <= 80:
                    c = mpmath.re(c) if mpmath.im(c) == 0 else abs(c)
                    want[n] = (c * mpmath.exp(w.log_weight(n)))._mpf_
        assert [v._mpf_ for v in report.values] == want

    def test_fills_the_table_only_to_the_top_nonzero_degree(self):
        # d_n is read only where c_n != 0; the operator cross-check never reads it
        w = DunklWeights(0, 4096)
        f = TruncatedSeries({0: mpf(1), 5: mpf(2), 300: mpf(-1), 3000: mpf(4)}, trunc_degree=4096)
        orbit_at_zero(f, w, 2000)
        assert len(w._log_d) == 301

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
        for call in (lambda: orbit_at_zero(f, w, -1),
                     lambda: thm3b_bound_check(f, w, standard_r_grid(mpf(1), mpf(10), 4), -1)):
            with pytest.raises(ValueError, match="N must be >= 0, got -1"):
                call()

    def test_report_values_length(self):
        w = DunklWeights(0, 32)
        f = TruncatedSeries({2: mpf(5)}, trunc_degree=32)
        report = orbit_at_zero(f, w, 20)
        assert len(report.values) == 21


def dense_sup_scan(values, N) -> tuple:
    """(sup_index, bounded) by a scan of every n <= N: the oracle of orbit_at_zero's
    scan of the support alone."""
    tie = mpmath.exp(mpf(2) ** (20 - mp.prec))
    sup_index, running, last_new_sup = 0, abs(values[0]), 0
    for n in range(1, N + 1):
        v = abs(values[n])
        if v > running * tie:
            running, sup_index, last_new_sup = v, n, n
    return sup_index, last_new_sup <= (3 * N) // 4


@given(
    st.dictionaries(st.integers(0, 40),
                    st.tuples(st.integers(0, 1), st.integers(-2, 2), st.integers(18, 22),
                              st.integers(-1, 7)),
                    max_size=12),
    st.integers(0, 40),
)
@settings(deadline=None, max_examples=100)
def test_support_scan_equals_dense_scan(targets, N):
    # |v_n| = 2^g (1 + m 2^(e-prec)) up to rounding, so rises straddle the tie
    # guard's 2^(20-prec); phase -1 is a real coefficient, 0..7 a complex one at
    # that multiple of pi/4
    mp.prec = 256
    w = DunklWeights(mpf("0.5"), 40)
    coeffs = {}
    for n, (g, m, e, phase) in targets.items():
        v = mpf(2) ** g * (1 + m * mpf(2) ** (e - mp.prec))
        unit = mpf(-1) if phase < 0 else mpmath.expjpi(mpf(phase) / 4)
        coeffs[n] = unit * v / w.weight(n)
    report = orbit_at_zero(TruncatedSeries(coeffs, trunc_degree=40), w, N)
    assert (report.sup_index, report.bounded) == dense_sup_scan(report.values, N)


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


# ---------------------------------------------------------------------------
# the exhaustive C_star sweep, M_1 at every radius: the oracle of the pruned one

WINDOWS = (mpf(50), mpf(100), mpf(200), mpf(400))


def _swept_terms(f, alpha, radii) -> list:
    results = means_on_grid(f, radii, MeanParams(1))
    return [res.value * r ** (alpha + 1) / mpmath.exp(r) for r, res in zip(radii, results)]


def augmented_radii_sorted(r_grid, alpha, N) -> list:
    """dynamics._radius_union's radii by plain sorted(): the oracle of its integer-keyed sort."""
    return sorted({mpf(r) for r in r_grid} | {n + alpha + 1 for n in range(N + 1)})


@pytest.mark.parametrize("alpha_s", ["-0.49", "0", "0.3", "3"])
def test_augmented_radii_sort_equals_plain_sorted(alpha_s):
    # grid points within a 256-bit ulp of each n + alpha + 1, at its float64
    # rounding and one float64 step either side: their float64 values tie, and
    # the union must still come out in sorted()'s order, each n + alpha + 1 once
    alpha = mpf(alpha_s)
    N = 60
    grid = []
    for n in range(N + 1):
        x = n + alpha + 1
        near = float(x)
        grid += [x * (1 - mpf(2) ** -255), x * (1 + mpf(2) ** -255), mpf(near),
                 mpf(math.nextafter(near, math.inf)), mpf(math.nextafter(near, -math.inf))]
    got, is_grid, n_opt = dynamics._radius_union(grid, alpha, N)
    assert len({float(r) for r in got}) < len(got)  # float64 ties do occur
    assert [r._mpf_ for r in got] == [r._mpf_ for r in augmented_radii_sorted(grid, alpha, N)]
    grid_bits = {mpf(r)._mpf_ for r in grid}
    assert is_grid.tolist() == [r._mpf_ in grid_bits for r in got]
    assert [n for n in n_opt.tolist() if n <= N] == list(range(N + 1))
    assert all(got[i] == n + alpha + 1 for i, n in enumerate(n_opt.tolist()) if n <= N)


def exhaustive_thm3b(f, w, r_grid, N) -> tuple:
    """(c_star, r_peak, consistent) of thm3b_bound_check from M_1 at every radius."""
    radii = augmented_radii_sorted(r_grid, w.alpha, N)
    terms = _swept_terms(f, w.alpha, radii)
    peak = max(range(len(radii)), key=terms.__getitem__)  # first maximum
    margin = mpmath.exp(mpf(2) ** (40 - mp.prec))
    consistent = all(abs(v) <= terms[peak] * lemma1_ratio(n, w) * margin
                     for n, v in enumerate(orbit_at_zero(f, w, N).values) if v != 0)
    return terms[peak], radii[peak], consistent


def exhaustive_windowed(f, w, r_grid, r_maxes) -> tuple:
    """windowed_c_star from M_1 at every radius of the windows' union."""
    windows = []
    for r_max in r_maxes:
        N = min(max(0, int(mpmath.floor(r_max - w.alpha - 1))), f.trunc_degree)
        windows.append(augmented_radii_sorted([r for r in r_grid if r <= r_max], w.alpha, N))
    radii = sorted(set().union(*windows))
    terms = dict(zip(radii, _swept_terms(f, w.alpha, radii)))
    return tuple(max(terms[r] for r in window) for window in windows)


def _assert_matches_exhaustive(f, w, r_grid, N, r_maxes):
    report = thm3b_bound_check(f, w, r_grid, N)
    assert (report.c_star, report.r_peak, report.consistent) == exhaustive_thm3b(f, w, r_grid, N)
    assert windowed_c_star(f, w, r_grid, r_maxes) == exhaustive_windowed(f, w, r_grid, r_maxes)


@pytest.fixture(scope="module")
def hc_build():
    w = DunklWeights(0, 4096)
    f, _ = build_hypercyclic(w, RateEnvelope.log_growth(), 12)
    return f, w


class TestPrunedSweep:
    """The pruned sweep gives the exhaustive sweep's C_star, r_peak and verdict, bit for bit."""

    def test_hc_build(self, hc_build):
        f, w = hc_build
        _assert_matches_exhaustive(f, w, standard_r_grid(points=64), 398, WINDOWS)

    def test_prime_degree_fhc(self):
        # degree 4079 is prime, so the M_1 samples take the split transform
        w = DunklWeights(1, 4096)
        f, _ = build_frequently_hypercyclic(w, mpf(2), RateEnvelope.log_growth(), 3)
        assert f.degree() == 4079
        _assert_matches_exhaustive(f, w, standard_r_grid(points=64), 397, WINDOWS)

    @pytest.mark.parametrize("name", ["exp", "spike", "constant", "zero"])
    def test_special_profiles(self, name):
        # exp: a near-flat profile, where the brackets overlap over many radii
        w = DunklWeights(mpf("0.5"), 256)
        f = {"exp": exp_truncation(256, 256),
             "spike": TruncatedSeries({40: mpf(2) ** -160}, trunc_degree=256),
             "constant": TruncatedSeries({0: mpc(3, -4)}, trunc_degree=256),
             "zero": TruncatedSeries({}, trunc_degree=256)}[name]
        _assert_matches_exhaustive(f, w, standard_r_grid(points=32), 200, WINDOWS)

    def test_windows_in_any_order(self, hc_build):
        # descending, repeated, and one window (r_max 1.5) whose horizon is N = 0
        f, w = hc_build
        r_maxes = (mpf(400), mpf(50), mpf(50), mpf("1.5"), mpf(200))
        grid = standard_r_grid(points=64)
        assert windowed_c_star(f, w, grid, r_maxes) == exhaustive_windowed(f, w, grid, r_maxes)

    def test_hc_sweep_reaches_few_radii(self, hc_build, monkeypatch):
        # the growth-sweep job: 464 radii in the windows, a handful sampled
        f, w = hc_build
        swept = []

        def spy(f, radii, params):
            swept.extend(radii)
            return means_on_grid(f, radii, params)

        monkeypatch.setattr(dynamics, "means_on_grid", spy)
        windowed_c_star(f, w, standard_r_grid(points=64), WINDOWS)
        assert 0 < len(swept) <= 10


@given(
    st.dictionaries(st.integers(0, 48),
                    st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-40, 40)),
                    min_size=1, max_size=5),
    st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6),
    st.sampled_from(["0", "0.5", "3"]),
    st.integers(0, 48),
    st.data(),
)
@settings(deadline=None, max_examples=30)
def test_pruned_sweep_matches_exhaustive_on_sparse_series(coeffs, radii, alpha, N, data):
    mp.prec = 256
    f = TruncatedSeries({n: mpc(a, b) * mpf(10) ** e for n, (a, b, e) in coeffs.items()},
                        trunc_degree=48)
    w = DunklWeights(mpf(alpha), 48)
    r_grid = sorted({mpf(r) for r in radii})
    # windows in any order, repeats allowed; a grid point below alpha + 2 has N = 0
    r_maxes = data.draw(st.lists(st.sampled_from(r_grid), min_size=1, max_size=4))
    _assert_matches_exhaustive(f, w, r_grid, N, r_maxes)
