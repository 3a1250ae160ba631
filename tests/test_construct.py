"""Builders and their verifiers: enumeration, placements, schedules, plans."""

import bisect
import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import (from_int, fzero, mpf_add, mpf_div, round_down, round_nearest,
                          round_up, to_float)

from dunkldyn import construct, growth
from dunkldyn.construct import (
    _BUDGET_TIGHTEN,
    _FILLER_BASE_DEGREE,
    _FILLER_CAP_DEGREE,
    _FILLER_RATIO,
    _FILLER_SAT,
    _SHADOW_SAFETY,
    MAX_DEGREE,
    R_BUILD,
    BuilderConfig,
    ConstructionPlan,
    FhcSchedule,
    InfeasibleConstruction,
    _NormKernel,
    _calibrate_fillers,
    _div_int,
    _phi_at,
    build_frequently_hypercyclic,
    build_hypercyclic,
    density_decay_check,
    enumerate_targets,
    frequency_report,
    poly_label,
    poly_normalize,
    poly_to_series,
    read_plan,
    verify_orbit_hits,
    write_plan,
)
from dunkldyn.dunkl import DunklWeights, apply_dunkl, right_inverse
from dunkldyn.growth import RateEnvelope, rate_exponent, standard_r_grid
from dunkldyn.means import P_INF, _log_abs_and_phase
from dunkldyn.series import TruncatedSeries, write_series

F = Fraction

# the first twelve targets of the default enumeration, frozen
ENUM_GOLDEN = [
    (),
    (F(1),),
    (F(-1),),
    (F(0), F(1)),
    (F(1), F(1)),
    (F(-1), F(1)),
    (F(0), F(-1)),
    (F(1), F(-1)),
    (F(-1), F(-1)),
    (F(0), F(0), F(1)),
    (F(1), F(0), F(1)),
    (F(-1), F(0), F(1)),
]


class TestEnumeration:
    def test_first_twelve_golden(self):
        got = [enumerate_targets(i) for i in range(1, 13)]
        assert got == ENUM_GOLDEN

    def test_no_duplicates_early(self):
        seen = set()
        for i in range(1, 151):
            q = enumerate_targets(i)
            assert q not in seen
            seen.add(q)

    def test_early_stage_is_height_one(self):
        # the enumeration walks height stages in order, so every early
        # target has coefficients in {0, 1, -1} and degree at most 8
        for i in range(2, 151):
            q = enumerate_targets(i)
            assert len(q) <= 9
            assert all(c in (F(0), F(1), F(-1)) for c in q)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            enumerate_targets(0)


class TestPolyHelpers:
    def test_normalize_trims(self):
        assert poly_normalize([F(1), F(0), F(0)]) == (F(1),)
        assert poly_normalize([]) == ()

    def test_label(self):
        assert poly_label((F(-1), F(0), F(1))) == "z^2-1"
        assert poly_label(()) == "0"
        assert poly_label((F(1, 2),)) == "1/2"

    def test_to_series(self):
        f = poly_to_series((F(1, 2), F(-3)), 16)
        assert f.trunc_degree == 16
        assert abs(f.coeff(0) - mpf("0.5")) < mpf(2) ** -250
        assert abs(f.coeff(1) + 3) < mpf(2) ** -250


def _block_log_norm_mpf(w, env, a, r_grid, poly, m):
    """Working-precision reference: ln sup_r [sum_i |c_i| r^{m+i}] r^a / (env(r) e^r).

    c_i = q_i d_i / d_{m+i} are the coefficients of S^m poly; every step is
    an mpf operation, one radius at a time.
    """
    logc = [
        (m + i, mpmath.ln(abs(mpf(c.numerator)) / c.denominator)
         + w.log_weight(i) - w.log_weight(m + i))
        for i, c in enumerate(poly)
        if c != 0
    ]
    best = mpf("-inf")
    for r in r_grid:
        lr = mpmath.ln(r)
        total = mpmath.fsum(mpmath.exp(lc + deg * lr) for deg, lc in logc)
        best = max(best, mpmath.ln(total) + mpf(a) * lr - mpmath.ln(env(r)) - r)
    return best


def _shadow_ub(poly, gap, w, r):
    """Working-precision reference: coefficient-sum bound for sup_{|z|=r} |S^gap poly|."""
    r = mpf(r)
    total = mpf(0)
    for i, c in enumerate(poly):
        if c != 0:
            total += (abs(mpf(c.numerator)) / c.denominator) * mpmath.exp(
                w.log_weight(i) - w.log_weight(i + gap)
            ) * r ** (i + gap)
    return total


class TestNormKernel:
    TARGETS = [(F(1),), (F(0), F(-1)), (F(-1), F(0), F(1)), (F(1), F(-1), F(0), F(2, 3))]

    @pytest.mark.parametrize("alpha_s", ["-0.49", "0", "0.5", "1", "3"])
    def test_block_norms_match_mpf_reference(self, alpha_s):
        w = DunklWeights(mpf(alpha_s), 1024)
        env = RateEnvelope.log_growth()
        grid = standard_r_grid()
        kernel = _NormKernel(w.float_log_weights(1024), map(env, grid), w.alpha + 1, grid)
        ms = [1, 57, 144, 431, 1000]
        for q in self.TARGETS:
            got = kernel.block_log_norms(q, np.array(ms))
            for m, g in zip(ms, got):
                want = _block_log_norm_mpf(w, env, w.alpha + 1, grid, q, m)
                assert abs(g - float(want)) <= 1e-10

    @pytest.mark.parametrize("alpha_s", ["-0.49", "0", "0.5", "1", "3"])
    def test_one_point_grid_is_shadow_over_phi(self, alpha_s):
        # at the one radius R the penalty (alpha+1) ln R - ln env(R) - R is
        # -ln Phi(R), so the block bound is ln(shadow bound / Phi(R)): test (c)
        w = DunklWeights(mpf(alpha_s), 1024)
        env = RateEnvelope.log_growth()
        r_build = mpf(R_BUILD)
        kernel = _NormKernel(w.float_log_weights(1024), (env(r_build),), w.alpha + 1, (r_build,))
        gaps = [1, 9, 57, 400]
        for q in self.TARGETS:
            got = kernel.block_log_norms(q, np.array(gaps))
            for gap, g in zip(gaps, got):
                want = mpmath.ln(_shadow_ub(q, gap, w, R_BUILD) / _phi_at(env, w, mpf(R_BUILD)))
                assert abs(g - float(want)) <= 1e-10

    def test_factor_table_is_monomial_block_norm(self):
        # g[nu] is the grid bound of the monomial S^nu 1 = z^nu / d_nu
        w = DunklWeights(mpf("0.5"), 512)
        grid = standard_r_grid()
        env = RateEnvelope.log_growth()
        kernel = _NormKernel(w.float_log_weights(512), map(env, grid), 2, grid)
        nus = np.arange(1, 513, 37)
        got = np.log(kernel.factor_table()[nus])
        assert np.allclose(got, kernel.block_log_norms((F(1),), nus), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("points", [None, 16])
    @pytest.mark.parametrize("alpha_s", ["-0.49", "0", "1", "3"])
    def test_factor_table_equals_the_three_operation_table(self, alpha_s, points):
        # ln d_nu taken off after the max over r gives the same bits as taking it
        # off every entry first, on the kernels both builders make (hc: a = alpha
        # + 1 on the grid and on the one point R; fhc: a = the fhc_upper rate)
        w = DunklWeights(mpf(alpha_s), 4096)
        env = RateEnvelope.log_growth()
        grid = standard_r_grid() if points is None else standard_r_grid(points=points)
        logd = w.float_log_weights(4096)
        r_build = mpf(R_BUILD)
        kernels = [_NormKernel(logd, map(env, grid), w.alpha + 1, grid),
                   _NormKernel(logd, (env(r_build),), w.alpha + 1, (r_build,)),
                   _NormKernel(logd, map(env, grid), rate_exponent(2, w.alpha, "fhc_upper"), grid)]
        for kernel in kernels:
            nu = np.arange(logd.size)
            logs = nu[:, None] * kernel.ln_r[None, :] + kernel.pen[None, :] - logd[:, None]
            log_g = np.max(logs, axis=1)
            want = np.where(log_g > -745.0, np.exp(np.maximum(log_g, -745.0)), 0.0)
            assert np.array_equal(kernel.factor_table(), want)

    def test_scan_returns_smallest_admissible_m(self):
        # brute force with the mpf reference: every block sits at the first m
        # past its predecessor whose norm bound fits eps_k / _BUDGET_TIGHTEN and
        # whose shadow on the previous block fits eps_k Phi(R) / _SHADOW_SAFETY
        w = DunklWeights(mpf(0), 512)
        env = RateEnvelope.log_growth()
        cfg = BuilderConfig(r_grid=standard_r_grid(points=24), saturate_envelope=False)
        f, plan = build_hypercyclic(w, env, 6, cfg, trunc_degree=512)
        r_build = mpf(R_BUILD)
        shadow_cap = _phi_at(env, w, r_build) / _SHADOW_SAFETY
        lo, shadow_rejections = 1, 0
        for k, q in enumerate(plan.targets, start=1):
            eps = mpf(2) ** -k
            m = lo
            while q:
                fits = (_block_log_norm_mpf(w, env, w.alpha + 1, cfg.grid(), q, m)
                        <= mpmath.ln(eps / _BUDGET_TIGHTEN))
                if fits and k > 1:
                    gap = m - plan.positions[k - 2]
                    fits = _shadow_ub(q, gap, w, r_build) <= eps * shadow_cap
                    shadow_rejections += not fits
                if fits:
                    break
                m += 1
            assert plan.positions[k - 1] == m
            lo = m + max(len(q), 1)
        # both tests bind somewhere, and one search spans more than one chunk
        assert shadow_rejections > 0
        assert max(b - a for a, b in zip(plan.positions, plan.positions[1:])) > 64


@pytest.mark.parametrize("build", [
    lambda w, env: build_hypercyclic(w, env, 1),
    lambda w, env: build_frequently_hypercyclic(w, 2, env, 1),
], ids=["hc", "fhc"])
def test_builders_refuse_a_decaying_envelope(build):
    # the growth check of validate_on on the build grid is the builders' envelope check
    env = RateEnvelope(lambda r: 1 / (1 + r), "1/(1+r)")
    with pytest.raises(ValueError, match="not growing"):
        build(DunklWeights(0, 4096), env)


class TestHypercyclicBuilder:
    # positions of the default K = 12 build (fillers, standard grid, trunc 4096)
    POSITIONS_GOLDEN = {
        "-0.49": (361, 425, 434, 441, 454, 461, 467, 475, 483, 490, 499, 509),
        "0": (361, 420, 431, 445, 455, 461, 467, 474, 482, 489, 498, 507),
        "0.5": (361, 424, 433, 450, 458, 464, 470, 477, 485, 492, 500, 509),
        "1": (361, 430, 438, 455, 462, 468, 474, 481, 488, 495, 503, 512),
        "3": (361, 457, 462, 477, 483, 489, 495, 502, 509, 516, 524, 532),
    }

    @pytest.mark.parametrize("alpha_s", sorted(POSITIONS_GOLDEN))
    def test_default_build_positions_golden(self, alpha_s):
        w = DunklWeights(mpf(alpha_s), 4096)
        f, plan = build_hypercyclic(w, RateEnvelope.log_growth(), 12)
        assert plan.positions == self.POSITIONS_GOLDEN[alpha_s]

    def test_build_fills_the_mpf_table_only_under_its_blocks(self):
        # the norm kernel takes ln d_n in float64 from the closed form; only
        # the blocks' mpf coefficients (right_inverse) read the mpf table
        w = DunklWeights(0, 4096)
        f, plan = build_hypercyclic(w, RateEnvelope.log_growth(), 12)
        assert len(w._log_d) <= plan.positions[-1] + MAX_DEGREE + 1

    def test_single_block_golden_position(self):
        # target "1", alpha 0, no envelope fillers: the block lands at 144,
        # the first degree whose weighted norm fits eps_1/8 on the grid
        w = DunklWeights(0, 4096)
        env = RateEnvelope.log_growth()
        cfg = BuilderConfig(targets=[(F(1),)], saturate_envelope=False)
        f, plan = build_hypercyclic(w, env, 1, cfg)
        assert plan.positions == (144,)
        assert plan.filler_degrees == ()
        assert f.n_nonzero() == 1
        want = mpmath.exp(-w.log_weight(144))
        assert abs(f.coeff(144) - want) <= want * mpf(2) ** -240

    def test_table_below_ambient_precision_fixes_it(self):
        # a 128-bit table used at ambient 256 builds and verifies what it does at 128
        with mpmath.workprec(128):
            w = DunklWeights(0, 1024)
        env = RateEnvelope.log_growth()

        def build_and_verify():
            f, plan = build_hypercyclic(w, env, 3, trunc_degree=1024)
            return _coefficient_bits(f), plan, verify_orbit_hits(f, plan, w)

        ambient = build_and_verify()
        with mpmath.workprec(128):
            at_table = build_and_verify()
        assert mp.prec == 256
        assert ambient[0] == at_table[0]
        assert ambient[1] == at_table[1] and ambient[2] == at_table[2]  # mpf fields by value
        assert [g._mpf_ for g in ambient[1].filler_coeffs] == [
            g._mpf_ for g in at_table[1].filler_coeffs]

    def test_single_block_budgets(self):
        w = DunklWeights(0, 4096)
        env = RateEnvelope.log_growth()
        cfg = BuilderConfig(targets=[(F(1),)], saturate_envelope=False)
        f, plan = build_hypercyclic(w, env, 1, cfg)
        report = verify_orbit_hits(f, plan, w)
        assert report.all_passed()
        # the only block reproduces its target up to the noise floor
        assert report.deltas[0] <= report.noise_floors[0]

    def test_residual_that_vanishes_at_every_sample_fails(self):
        # adding S^(m_1) g makes the residual c (z^512 / 2^512 - 1) + rounding,
        # which is 0 at all 512 points R e^(2 pi i j / 512) of |z| = R = 2
        # but has sup 2c there, so a maximum over those samples cannot see it
        w = DunklWeights(0, 4096)
        cfg = BuilderConfig(targets=[(F(1),)], saturate_envelope=False)
        f, plan = build_hypercyclic(w, RateEnvelope.log_growth(), 1, cfg)
        c = mpf("1e-10")
        g = TruncatedSeries({0: -c, 512: c / mpf(2) ** 512}, f.trunc_degree)
        report = verify_orbit_hits(f.add(right_inverse(g, w, plan.positions[0])), plan, w)
        assert report.passed == (False,)
        assert abs(report.deltas[0] - 2 * c) <= c * mpf("1e-60")

    def test_three_block_build_verifies(self):
        w = DunklWeights(mpf("0.5"), 4096)
        env = RateEnvelope.log_growth()
        cfg = BuilderConfig(saturate_envelope=False)
        f, plan = build_hypercyclic(w, env, 3, cfg)
        assert len(plan.positions) == 3
        assert all(b > a for a, b in zip(plan.positions, plan.positions[1:]))
        report = verify_orbit_hits(f, plan, w)
        assert report.all_passed()

    def test_infeasible_reports_achieved(self):
        w = DunklWeights(0, 256)
        env = RateEnvelope.log_growth()
        with pytest.raises(InfeasibleConstruction) as exc:
            build_hypercyclic(w, env, 12, trunc_degree=256)
        assert 0 <= exc.value.achieved < 12

    def test_plan_rejects_overlap(self):
        with pytest.raises(ValueError):
            ConstructionPlan(
                targets=((F(1),), (F(1),)),
                indices=(None, None),
                positions=(10, 10),
                budgets=(mpf("0.5"), mpf("0.25")),
                alpha=mpf(0),
                trunc_degree=64,
                r_build=2.0,
                filler_degrees=(),
                filler_coeffs=(),
            )

    def test_fillers_present_by_default(self):
        w = DunklWeights(0, 4096)
        env = RateEnvelope.log_growth()
        f, plan = build_hypercyclic(w, env, 2)
        assert plan.filler_degrees
        assert max(plan.filler_degrees) < min(plan.positions)
        # every filler coefficient is positive and present in the series
        for P, gamma in zip(plan.filler_degrees, plan.filler_coeffs):
            assert gamma > 0
            assert abs(f.coeff(P) - gamma) <= gamma * mpf(2) ** -240


def _calibrate_fillers_reference(w, env, r_grid):
    """Working-precision reference for ``_calibrate_fillers``: every point in mpf.

    Per ramp degree P it takes the mode exp((P + alpha + 1) ln r - r) at every
    point, gamma as the smallest (cap - running) / mode over the points where
    the mode is at least 1% of its peak, and adds gamma * mode to the running
    total at every point.
    """
    ramp = []
    P = _FILLER_CAP_DEGREE
    while P >= _FILLER_BASE_DEGREE:
        ramp.append(P)
        nxt = math.floor(P / _FILLER_RATIO)
        P = nxt if nxt < P else P - 1
    points = sorted(set(float(r) for r in r_grid)
                    | {float(P + w.alpha + 1) for P in ramp})
    points = [mpf(repr(r)) for r in points]
    ln_points = [mpmath.ln(r) for r in points]
    cap = [mpf(_FILLER_SAT) * env(r) for r in points]
    running = [mpf(0)] * len(points)
    significance = mpf("0.01")
    placed = []
    for P in ramp:
        exponent = P + w.alpha + 1
        mode = [mpmath.exp(exponent * ln_r - r) for ln_r, r in zip(ln_points, points)]
        peak = max(mode)
        gamma = None
        for mv, cv, rv in zip(mode, cap, running):
            if mv < peak * significance:
                continue  # the new mode is immaterial this far from its peak
            room = (cv - rv) / mv
            if gamma is None or room < gamma:
                gamma = room
        if gamma is None or gamma <= 0:
            continue
        placed.append((P, gamma))
        running = [rv + gamma * mv for rv, mv in zip(running, mode)]
    placed.sort()
    return tuple(P for P, _ in placed), tuple(g for _, g in placed)


def _coefficient_bits(f: TruncatedSeries) -> list:
    """(n, raw mpc tuple) of every nonzero coefficient: equal lists are equal bit for bit."""
    return [(n, c._mpc_) for n, c in f.items()]


def _log_env(env, grid):
    return np.array([float(mpmath.ln(env(r))) for r in grid])


def _sampled_envelope():
    """Piecewise-linear phi through five samples, clamped outside them."""
    xs = [mpf("0.001"), mpf(1), mpf(10), mpf(100), mpf(2000)]
    ys = [mpf(1), mpf("1.5"), mpf(2), mpf(4), mpf(9)]

    def fn(r):
        if r <= xs[0]:
            return ys[0]
        if r >= xs[-1]:
            return ys[-1]
        i = bisect.bisect_right(xs, r)
        t = (r - xs[i - 1]) / (xs[i] - xs[i - 1])
        return ys[i - 1] + t * (ys[i] - ys[i - 1])

    return RateEnvelope(fn, "sampled[5]")


KERNEL_BITS = [64, 128, 256, 1024, 2600]


def _kernel_grids(bits):
    """The default grid, a 2-point grid, a 300-point grid to r = 1000, and the default
    grid taken at bits + 70, so that its radii are wider than bits."""
    with mp.workprec(bits):
        grids = [standard_r_grid(), standard_r_grid(points=2),
                 standard_r_grid(r_max=1000, points=300)]
    with mp.workprec(bits + 70):
        grids.append(standard_r_grid())
    return grids


def _kernel_envelopes():
    return [RateEnvelope.log_growth(), RateEnvelope(lambda r: mpmath.sqrt(r) + 1, "sqrt(r)+1"),
            _sampled_envelope()]


class TestEnvelopeAndKernelInputs:
    """The envelope calls and the kernel's float64 inputs against the expressions
    they replace, bit for bit."""

    @pytest.mark.parametrize("bits", KERNEL_BITS)
    def test_envelope_values_equal_their_mpf_expressions(self, bits):
        grids = _kernel_grids(bits)
        radii = [r for grid in grids for r in grid] + [mpf(3), 2.5, "0.7", mpmath.pi]
        with mp.workprec(bits):
            for env in _kernel_envelopes():
                want = [mpf(env._fn(mpf(r)))._mpf_ for r in radii]
                assert [env(r)._mpf_ for r in radii] == want, env
                for grid in grids:
                    assert ([v._mpf_ for v in env.validate_on(grid)]
                            == [mpf(env._fn(mpf(r)))._mpf_ for r in grid])
            ln_e_plus = [mpmath.ln(mpmath.e + r)._mpf_ for r in map(mpf, radii)]
            assert [growth._ln_e_plus(mpf(r))._mpf_ for r in radii] == ln_e_plus

    def test_ln_e_plus_of_a_radius_below_minus_e_is_complex(self):
        # as mpmath.ln(mpmath.e + r) is, so an envelope call refuses it as before
        r = mpf(-5)
        assert growth._ln_e_plus(r) == mpmath.ln(mpmath.e + r)
        with pytest.raises(TypeError):
            RateEnvelope.log_growth()(r)

    @pytest.mark.parametrize("bits", KERNEL_BITS)
    def test_kernel_inputs_equal_their_mpf_expressions(self, bits):
        alphas = ["-0.49", "0", "0.5", "1", "3"] if bits <= 1024 else ["0.5"]
        for grid in _kernel_grids(bits):
            with mp.workprec(bits):
                for env in _kernel_envelopes():
                    env_vals = env.validate_on(grid)
                    ln_r = np.array([float(mpmath.ln(r)) for r in grid])
                    log_env = np.array([float(mpmath.ln(v)) for v in env_vals])
                    r_vals = np.array([float(r) for r in grid])
                    for alpha_s in alphas:
                        a = mpf(alpha_s) + 1
                        kernel = _NormKernel(np.zeros(1), env_vals, a, grid)
                        assert np.array_equal(kernel.ln_r, ln_r)
                        assert np.array_equal(kernel.log_env, log_env)
                        assert np.array_equal(kernel.r, r_vals)
                        assert np.array_equal(kernel.pen, float(a) * ln_r - log_env - r_vals)

    @pytest.mark.parametrize("points", [256, 2])
    def test_fillers_from_the_kernels_float_grid_equal_those_from_the_mpf_grid(self, points):
        w = DunklWeights(mpf("0.5"), 64)
        env = RateEnvelope.log_growth()
        grid = standard_r_grid(points=points)
        kernel = _NormKernel(w.float_log_weights(64), env.validate_on(grid), w.alpha + 1, grid)
        got = _calibrate_fillers(w, env, kernel.r, kernel.log_env)
        want = _calibrate_fillers(w, env, grid, _log_env(env, grid))
        assert got[0] == want[0]
        assert [g._mpf_ for g in got[1]] == [g._mpf_ for g in want[1]]


class TestFillerCalibration:
    """The float64-screened filler ladder against the all-points mpf reference."""

    @pytest.mark.parametrize("prec", [53, 256, 1024])
    @pytest.mark.parametrize("alpha_s", ["-0.49", "0", "0.5", "1", "3"])
    def test_bit_identical_to_reference(self, prec, alpha_s):
        w = DunklWeights(mpf(alpha_s), 64)
        envs = [RateEnvelope.log_growth(), _sampled_envelope()]
        with mp.workprec(prec):
            for env in envs:
                for points in (256, 64, 8, 2):
                    grid = standard_r_grid(points=points)
                    got = _calibrate_fillers(w, env, grid, _log_env(env, grid))
                    want = _calibrate_fillers_reference(w, env, grid)
                    assert got[0] == want[0]
                    assert [g._mpf_ for g in got[1]] == [g._mpf_ for g in want[1]]
                    if env is not envs[0]:
                        break  # one grid is enough for the sampled envelope

    @pytest.mark.parametrize("points", [256, 8])
    def test_wider_screen_margins_change_no_bit(self, monkeypatch, points):
        # wider margins only send more points to mpf: a 3-nat margin puts the
        # points near the 1% cutoff through the mpf test, a 0.9 slack most
        # significant points through the mpf room
        w = DunklWeights(mpf("0.5"), 64)
        env = RateEnvelope.log_growth()
        grid = standard_r_grid(points=points)
        want = _calibrate_fillers(w, env, grid, _log_env(env, grid))
        monkeypatch.setattr(construct, "_SCREEN_MARGIN", 3.0)
        monkeypatch.setattr(construct, "_SCREEN_SLACK", 0.9)
        got = _calibrate_fillers(w, env, grid, _log_env(env, grid))
        assert got[0] == want[0]
        assert [g._mpf_ for g in got[1]] == [g._mpf_ for g in want[1]]

    @pytest.mark.parametrize("alpha_s", ["-0.49", "0", "3"])
    @pytest.mark.parametrize("points", [256, 2])
    def test_running_total_stays_within_one_percent_of_cap(self, alpha_s, points):
        # the total in placement order (largest degree first), at the
        # calibration points and on a dense linear grid up past the last peak
        w = DunklWeights(mpf(alpha_s), 64)
        env = RateEnvelope.log_growth()
        grid = standard_r_grid(points=points)
        degrees, coeffs = _calibrate_fillers(w, env, grid, _log_env(env, grid))
        assert len(degrees) >= 5
        radii = {float(r) for r in grid} | {float(P + w.alpha + 1) for P in degrees}
        radii |= {float(r) for r in mpmath.linspace(mpf("0.01"), 500, 400)}
        for x in sorted(radii):
            r = mpf(repr(x))
            running = mpf(0)
            for P, gamma in sorted(zip(degrees, coeffs), reverse=True):
                running = running + gamma * mpmath.exp((P + w.alpha + 1) * mpmath.ln(r) - r)
            assert running <= mpf("1.01") * _FILLER_SAT * env(r)


class TestPlanPersistence:
    def test_hc_plan_round_trip(self, tmp_path):
        w = DunklWeights(mpf("0.5"), 4096)
        env = RateEnvelope.log_growth()
        f, plan = build_hypercyclic(w, env, 2)
        path = tmp_path / "p.plan"
        write_plan(plan, path)
        back = read_plan(path)
        assert isinstance(back, ConstructionPlan)
        assert back == plan

    def test_fhc_plan_round_trip(self, tmp_path):
        w = DunklWeights(1, 4096)
        env = RateEnvelope.log_growth()
        f, schedule = build_frequently_hypercyclic(w, 2, env, 2)
        path = tmp_path / "s.plan"
        write_plan(schedule, path)
        back = read_plan(path)
        assert isinstance(back, FhcSchedule)
        assert back == schedule

    def test_file_text_frozen(self, tmp_path):
        # the exact dunklplan v1 and dunklseries v1 text: a codec change that
        # moves one byte of either format fails here
        with mp.workprec(64):
            hc = ConstructionPlan(
                targets=((), (F(1, 2), F(0), F(-3)), (F(1),)),
                indices=(1, None, 2),
                positions=(40, 41, 50),
                budgets=(mpf("0.5"), mpf("0.25"), mpf("0.125")),
                alpha=mpf("0.5"),
                trunc_degree=64,
                r_build=2.0,
                filler_degrees=(4, 7),
                filler_coeffs=(mpf(1) / 3, mpf("0.375")),
            )
            fhc = FhcSchedule(
                targets=((F(1),), (F(0), F(-1, 3))),
                indices=(2, None),
                block_width=8,
                m_0=17,
                trunc_degree=256,
                alpha=mpf(1),
                p=P_INF,
                norm_budget=0.75,
            )
            f = TruncatedSeries({0: mpf(1) / 3, 2: mpc(-2, "0.5"), 5: mpc(0, 1)},
                                trunc_degree=8)
            write_plan(hc, tmp_path / "hc.plan")
            write_plan(fhc, tmp_path / "fhc.plan")
            write_series(f, tmp_path / "f.series", mpf("0.25"))
            assert read_plan(tmp_path / "hc.plan") == hc
            assert read_plan(tmp_path / "fhc.plan") == fhc
        assert (tmp_path / "hc.plan").read_text() == (
            "dunklplan v1\nkind=hc\nalpha=0.5\nprecision_bits=64\ntrunc_degree=64\n"
            "r_build=2.0\nn_targets=3\n"
            "target 1 40 0.5\ntarget -1 41 0.25 1/2 0 -3\ntarget 2 50 0.125 1\n"
            "n_fillers=2\nfiller 4 0.33333333333333333334237\nfiller 7 0.375\n")
        assert (tmp_path / "fhc.plan").read_text() == (
            "dunklplan v1\nkind=fhc\nalpha=1.0\nprecision_bits=64\ntrunc_degree=256\n"
            "block_width=8\nm_0=17\np=inf\nnorm_budget=0.75\nn_targets=2\n"
            "target 2 1\ntarget -1 0 -1/3\n")
        assert (tmp_path / "f.series").read_text() == (
            "dunklseries v1\nalpha=0.25\nprecision_bits=64\nn_coeffs=4\n"
            "0 0.33333333333333333334237 0.0\n2 -2.0 0.5\n5 0.0 1.0\n8 0.0 0.0\n")

    def test_plan_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.plan"
        path.write_text("dunklplan v1\nkind=nope\n")
        with pytest.raises(ValueError):
            read_plan(path)


class TestFhcSchedule:
    def _schedule(self, J=3, B=8):
        return FhcSchedule(
            targets=tuple(enumerate_targets(j) for j in range(2, J + 2)),
            indices=tuple(range(2, J + 2)),
            block_width=B,
            m_0=10,
            trunc_degree=2048,
            alpha=mpf(0),
            p=mpf(2),
            norm_budget=1.0,
        )

    def test_positions_disjoint_across_targets(self):
        s = self._schedule()
        seen = {}
        for j in range(1, 4):
            for n in s.positions(j):
                assert n not in seen
                seen[n] = j

    def test_positions_match_target_for(self):
        s = self._schedule()

        def target_for(n):
            # the residue rule: n = m_0 + k B serves target v_2(k) + 1, if there is one
            off = n - s.m_0
            if off <= 0 or off % s.block_width:
                return None
            k = off // s.block_width
            j = (k & -k).bit_length()
            return j if j <= len(s.targets) else None

        for j in range(1, 4):
            for n in s.positions(j):
                assert target_for(n) == j
        assert target_for(s.m_0) is None
        assert target_for(s.m_0 + 3) is None
        # every placement of some target within the horizon is one of positions()
        placed = {n for j in range(1, 4) for n in s.positions(j)}
        assert placed == {n for n in range(s.trunc_degree - s.block_width + 1)
                          if target_for(n) is not None}

    def test_nominal_density(self):
        s = self._schedule()
        assert s.nominal_density(1) == F(1, 16)
        assert s.nominal_density(3) == F(1, 64)
        # empirical position count over the horizon is close to nominal
        horizon = s.trunc_degree - s.block_width - s.m_0
        for j in (1, 2, 3):
            count = len(s.positions(j))
            assert abs(count - horizon * s.nominal_density(j)) <= 2


class TestFhcBuilder:
    def test_m0_golden_p2(self):
        w = DunklWeights(1, 4096)
        env = RateEnvelope.log_growth()
        f, s = build_frequently_hypercyclic(w, 2, env, 3)
        assert s.m_0 == 183
        assert s.block_width == 8

    def test_m0_golden_alpha0_p2(self):
        w = DunklWeights(0, 4096)
        f, s = build_frequently_hypercyclic(w, 2, RateEnvelope.log_growth(), 3)
        assert s.m_0 == 3

    def test_m0_golden_pinf(self):
        w = DunklWeights(1, 4096)
        env = RateEnvelope.log_growth()
        f, s = build_frequently_hypercyclic(w, P_INF, env, 3)
        assert s.m_0 == 1

    def test_table_below_ambient_precision_fixes_it(self):
        # a 128-bit table used at ambient 256 builds what it builds at 128
        with mpmath.workprec(128):
            w = DunklWeights(1, 4096)
        env = RateEnvelope.log_growth()

        def build_and_count():
            f, schedule = build_frequently_hypercyclic(w, 2, env, 1)
            report = frequency_report(f, schedule, w, 256, mpf("0.1"), 1)
            return _coefficient_bits(f), schedule, report

        ambient = build_and_count()
        with mpmath.workprec(128):
            at_table = build_and_count()
        assert mp.prec == 256
        assert ambient == at_table

    def test_block_width_must_clear_degrees(self):
        w = DunklWeights(0, 4096)
        env = RateEnvelope.log_growth()
        cfg = BuilderConfig(block_width=1)
        with pytest.raises(InfeasibleConstruction):
            build_frequently_hypercyclic(w, 2, env, 3, cfg=cfg)

    def test_infeasible_at_tiny_truncation(self):
        w = DunklWeights(mpf("-0.49"), 4096)
        env = RateEnvelope.log_growth()
        with pytest.raises(InfeasibleConstruction):
            build_frequently_hypercyclic(w, 1, env, 3, trunc_degree=96)

    @pytest.mark.parametrize("bits, trunc, alphas", [
        (64, 1024, ["-0.49", "0", "0.5", "1", "3"]),
        (128, 1024, ["-0.49", "0", "0.5", "1", "3"]),
        (256, 4096, ["-0.49", "0", "0.5", "1", "3"]),
        (1024, 1024, ["-0.49", "0", "0.5", "1", "3"]),
        (2600, 512, ["-0.49", "1"]),
    ])
    def test_one_loop_assembly_equals_the_per_block_right_inverse(self, bits, trunc, alphas):
        env = RateEnvelope.log_growth()
        with mp.workprec(bits):
            for alpha_s in alphas:
                w = DunklWeights(mpf(alpha_s), trunc)
                f, s = build_frequently_hypercyclic(w, 2, env, 3, trunc_degree=trunc)
                coeffs = {}
                for j, q in enumerate(s.targets, start=1):
                    target = poly_to_series(q, trunc)
                    for n in s.positions(j):
                        block = dict(right_inverse(target, w, n).items())
                        assert coeffs.keys().isdisjoint(block)
                        coeffs.update(block)
                assert _coefficient_bits(f) == _coefficient_bits(TruncatedSeries(coeffs, trunc))

    def test_coefficients_follow_schedule(self):
        w = DunklWeights(1, 4096)
        env = RateEnvelope.log_growth()
        f, s = build_frequently_hypercyclic(w, 2, env, 2)
        # block for target j starts exactly at every scheduled position
        for j in (1, 2):
            q = s.targets[j - 1]
            for n in list(s.positions(j))[:10]:
                for i, c in enumerate(q):
                    if c == 0:
                        continue
                    want = (mpf(c.numerator) / c.denominator) * mpmath.exp(
                        w.log_weight(i) - w.log_weight(n + i)
                    )
                    got = f.coeff(n + i)
                    assert abs(got - want) <= abs(want) * mpf(2) ** -230


def _row_hits(f, s, w, n, eps, R):
    """The report's per-target verdicts on row n: the count step from N_window n - 1 to n."""
    before, after = (frequency_report(f, s, w, N, eps, R).counts for N in (n - 1, n))
    return [b - a for a, b in zip(before, after)]


def _coefficient_sums(f, s, w, n, R):
    """sum_k |a_k - q_k| R^k of Lambda^n f - Q_j for each target, at working precision."""
    g = apply_dunkl(f, w, n)
    return [mpmath.fsum(abs(c) * R**k
                        for k, c in g.add(poly_to_series(q, f.trunc_degree).scale(-1)).items())
            for q in s.targets]


class TestFrequencyReport:
    def test_hits_match_full_precision_subsample(self):
        w = DunklWeights(1, 4096)
        env = RateEnvelope.log_growth()
        f, s = build_frequently_hypercyclic(w, 2, env, 2)
        eps, R = mpf("0.1"), mpf(1)
        # rows m_0 + 8 and m_0 + 24 hit target 1, m_0 + 16 hits target 2, m_0 + 5 hits none
        verdicts = []
        for n in [s.m_0 + 8, s.m_0 + 16, s.m_0 + 24, s.m_0 + 5]:
            want = [int(S < eps) for S in _coefficient_sums(f, s, w, n, R)]
            assert _row_hits(f, s, w, n, eps, R) == want
            verdicts.append(want)
        assert verdicts == [[1, 0], [0, 1], [1, 0], [0, 0]]

    def test_hit_that_circle_samples_alias_is_not_counted(self):
        # Lambda^n g = c (z^64 - 1), so f + g adds that to Lambda^n f - Q_1.  On |z| = 1
        # that term vanishes at all 64 roots of unity, so a 64-sample maximum
        # keeps row n a hit; its coefficient sum 2c = 0.4 is above eps
        w = DunklWeights(1, 4096)
        f, s = build_frequently_hypercyclic(w, 2, RateEnvelope.log_growth(), 1)
        eps, R, c = mpf("0.1"), mpf(1), mpf("0.2")
        n = s.positions(1)[0]
        assert _row_hits(f, s, w, n, eps, R) == [1]
        f = f.add(right_inverse(TruncatedSeries({0: -c, 64: c}, f.trunc_degree), w, n))  # f + g
        diff = apply_dunkl(f, w, n).add(poly_to_series(s.targets[0], f.trunc_degree).scale(-1))
        roots = [R * mpmath.expj(2 * mpmath.pi * k / 64) for k in range(64)]
        assert max(abs(diff.evaluate(z)) for z in roots) < eps
        assert _coefficient_sums(f, s, w, n, R)[0] > eps
        assert _row_hits(f, s, w, n, eps, R) == [0]

    def test_densities_near_nominal(self):
        w = DunklWeights(1, 4096)
        env = RateEnvelope.log_growth()
        f, s = build_frequently_hypercyclic(w, 2, env, 3)
        report = frequency_report(f, s, w, 2048, mpf("0.1"), mpf(1))
        for j in range(3):
            assert report.densities[j] >= report.nominal[j] / 2

    def test_window_validation(self):
        w = DunklWeights(1, 4096)
        env = RateEnvelope.log_growth()
        f, s = build_frequently_hypercyclic(w, 2, env, 1)
        with pytest.raises(ValueError):
            frequency_report(f, s, w, 5000, mpf("0.1"), mpf(1))


def _dense_frequency_counts(f, schedule, w, N_window, eps, R):
    """Hit counts by coefficient sums over the dense (N_window + 1) x (trunc + 1) matrix."""
    width = f.trunc_degree + 1
    entries = list(f.items())
    mat = np.zeros((N_window + 1, width), dtype=np.complex128)
    logd = np.array([float(w.log_weight(n)) for n in range(width)])
    for s, c in entries:
        rows = np.arange(1, min(N_window, s) + 1)
        if rows.size == 0:
            continue
        logs = float(mpmath.ln(abs(c)) + w.log_weight(s)) - logd[s - rows]
        vals = np.where(logs > -745.0, np.exp(np.maximum(logs, -745.0)), 0.0)
        mat[rows, s - rows] = complex(c / abs(c)) * vals
    powers = float(R) ** np.arange(width)
    counts = []
    for q in schedule.targets:
        diff = mat[1:].copy()
        diff[:, :len(q)] -= [float(c) for c in q]
        sums = np.abs(diff) @ powers
        counts.append(int(np.sum(sums < float(eps))))
    return tuple(counts)


class TestFrequencyScatter:
    """frequency_report's row blocks against the dense matrix."""

    @pytest.fixture(scope="class")
    def small_build(self):
        # alpha near -1/2 puts m_0 at 15, so the first 64 rows already hold hits;
        # trunc 1024 keeps R^1024 finite at R = 1.5, and the schedule's horizon
        # is widened so that N_window = 2048 passes its check (rows past the
        # series degree are zero)
        w = DunklWeights(mpf("-0.49"), 1024)
        f, s = build_frequently_hypercyclic(w, 2, RateEnvelope.log_growth(), 3,
                                            trunc_degree=1024)
        return f, dataclasses.replace(s, trunc_degree=4096), w

    @pytest.mark.parametrize("N_window", [64, 2048])
    @pytest.mark.parametrize("rows", [16, 48, 64])  # rows per block; 48 leaves a short last one
    @pytest.mark.parametrize("R_s", ["0.5", "1", "1.5"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_counts_equal_dense_matmul(self, small_build, monkeypatch, kind, R_s, rows, N_window):
        f, s, w = small_build
        if kind == "complex":
            f = f.scale(mpc(1, "0.05"))
        monkeypatch.setattr(construct, "_BLOCK_ELEMENTS", rows * f.n_nonzero())
        R = mpf(R_s)
        for eps_s in ("0.01", "0.1", "1"):
            got = frequency_report(f, s, w, N_window, mpf(eps_s), R).counts
            assert got == _dense_frequency_counts(f, s, w, N_window, mpf(eps_s), R)

    @pytest.fixture(scope="class")
    def fhc_build(self):
        # the fhc command's defaults: alpha 1, p 2, trunc 4096, three targets
        w = DunklWeights(1, 4096)
        f, s = build_frequently_hypercyclic(w, 2, RateEnvelope.log_growth(), 3)
        return f, s, w

    @pytest.mark.parametrize("bits", [64, 256, 512])
    @pytest.mark.parametrize("kind", ["fhc", "wide"])
    def test_log_terms_and_phases_equal_mpf_operators(self, fhc_build, kind, bits):
        # ln(|c_s| d_s) and c_s/|c_s| as frequency_report forms them from the shared
        # helper, against the same quantities in mpf and mpc operators
        f = fhc_build[0]
        if kind == "wide":  # complex, magnitudes near 1e+-300
            rng = random.Random(bits)
            f = TruncatedSeries({n: mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                 * mpf(10) ** rng.choice((-300, 300)) for n in range(0, 4096, 7)},
                                trunc_degree=4096)
        with mp.workprec(bits):
            w = DunklWeights(1, 4096)
            log_abs, phase = _log_abs_and_phase(list(f.items()))
            log_top = np.array([to_float(mpf_add(la, w.log_weight(s)._mpf_, bits, round_nearest),
                                         rnd=round_nearest)
                                for (s, _), la in zip(f.items(), log_abs)])
            want_log_top = np.array([float(mpmath.ln(abs(c)) + w.log_weight(s))
                                     for s, c in f.items()])
            want_phase = np.array([complex(c / abs(c)) for _, c in f.items()])
        assert np.array_equal(log_top, want_log_top)
        assert np.array_equal(phase, want_phase)

    def test_logd_is_the_float_of_each_table_entry(self, fhc_build, monkeypatch):
        # on a fresh alpha = 1 table of 4096 entries, as the frequency command makes it
        f, s, _ = fhc_build
        views = []
        float_view = DunklWeights._float_view
        monkeypatch.setattr(DunklWeights, "_float_view",
                            lambda w, n: views.append(float_view(w, n)) or views[-1])
        w = DunklWeights(1, 4096)
        assert frequency_report(f, s, w, 2048, mpf("0.1"), mpf(1)).counts == (117, 58, 29)
        assert len(views) == 1
        assert np.array_equal(views[0], [float(w.log_weight(n)) for n in range(4097)])

    def test_peak_memory_at_fhc_defaults(self, fhc_build):
        f, s, w = fhc_build
        tracemalloc.start()
        try:
            report = frequency_report(f, s, w, 2048, mpf("0.1"), mpf(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.counts == (117, 58, 29)
        assert peak < 24 * 2**20

    def test_peak_memory_does_not_grow_with_window(self, fhc_build):
        # rows run in blocks of bounded size
        f, s, w = fhc_build
        peaks = []
        for N_window in (512, 4088):
            tracemalloc.start()
            try:
                frequency_report(f, s, w, N_window, mpf("0.1"), mpf(1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_r_above_one_at_full_truncation(self, fhc_build):
        # (trunc + 1) ln R is 1661 at R = 1.5, yet no term formed exceeds e^1.4
        f, s, w = fhc_build
        R, eps = mpf("1.5"), mpf("0.1")
        assert frequency_report(f, s, w, 2048, eps, R).counts == (117, 58, 29)
        n = s.positions(1)[0]
        want = [int(S < eps) for S in _coefficient_sums(f, s, w, n, R)]
        assert _row_hits(f, s, w, n, eps, R) == want == [1, 0, 0]

    @pytest.mark.parametrize("R_s", ["1000", "inf", "nan", "-1"])
    def test_rejects_r_that_overflows_or_is_not_finite(self, fhc_build, R_s):
        # at R = 1000 a term of Lambda^n f passes e^709; the threshold is R ~ 721
        f, s, w = fhc_build
        with pytest.raises(ValueError):
            frequency_report(f, s, w, 2048, mpf("0.1"), mpf(R_s))

    def test_rejects_table_shorter_than_series(self):
        f = TruncatedSeries({40: 1}, trunc_degree=64)
        s = FhcSchedule(((F(1),),), (2,), 8, 1, 4096, mpf(1), 2, 1.0)
        with pytest.raises(ValueError, match="weight table too short: need d_64, table ends at 32"):
            frequency_report(f, s, DunklWeights(1, 32), 16, mpf("0.1"), mpf(1))

    @pytest.mark.parametrize("N_window", [0, -1])
    def test_rejects_empty_window(self, N_window):
        w = DunklWeights(1, 64)
        f = TruncatedSeries({40: 1}, trunc_degree=64)
        s = FhcSchedule(((F(1),),), (2,), 8, 1, 4096, mpf(1), 2, 1.0)
        with pytest.raises(ValueError):
            frequency_report(f, s, w, N_window, mpf("0.1"), mpf(1))

    @pytest.mark.parametrize("eps", [0, -1, mpf("nan")])
    def test_rejects_eps_that_no_sum_can_beat(self, eps):
        # no coefficient sum is below eps <= 0, so every count would read 0
        w = DunklWeights(1, 64)
        f = TruncatedSeries({40: 1}, trunc_degree=64)
        s = FhcSchedule(((F(1),),), (2,), 8, 1, 4096, mpf(1), 2, 1.0)
        with pytest.raises(ValueError, match="eps must be > 0"):
            frequency_report(f, s, w, 16, eps, mpf(1))


def _density_decay_mpf(f, w, q, M):
    """density_decay_check's loop in mpf operators at the table's precision: the
    oracle of its raw-tuple loop, which must equal it bit for bit."""
    with mp.workprec(w.precision_bits):
        q = mpf(q)
        sigma, events = [], []
        running, event_count = mpf(0), 0
        coeffs = dict(f.items())
        for n in range(1, M + 1):
            c = coeffs.get(n)
            if c is not None:
                v = mpmath.exp(mpmath.ln(abs(c)) + w.log_weight(n))
                running += v**q
                if v > 1:
                    event_count += 1
            sigma.append(running / n)
            events.append(mpf(event_count) / n)
        slack = mpf(2) ** (24 - mp.prec)
        holds = all(e <= s + slack for e, s in zip(events, sigma))
    return [s._mpf_ for s in sigma], [e._mpf_ for e in events], holds


def _raw(man: int, exp: int) -> tuple:
    """The normalised raw tuple of man 2^exp, man > 0."""
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return (0, man, exp + zeros, man.bit_length())


DIVIDER_BITS = [8, 12, 16, 24, 53, 64, 256]


class TestExactDivider:
    @pytest.mark.parametrize("bits", DIVIDER_BITS)
    def test_equals_mpf_div_on_random_tuples(self, bits):
        # the loop's operands (prec bits), wider ones, and divisors up to 2^13
        rng = random.Random(bits)
        for _ in range(3000):
            width = rng.choice([1, 2, bits, bits, bits + rng.randint(1, 40)])
            t = _raw(rng.getrandbits(width) | 1 << (width - 1), rng.randint(-300, 60))
            m = rng.choice([rng.randint(1, 16), rng.randint(1, 8192), 1 << rng.randint(0, 13)])
            assert _div_int(t, m, bits) == mpf_div(t, from_int(m), bits, round_nearest)

    @pytest.mark.parametrize("bits", DIVIDER_BITS)
    def test_equals_mpf_div_at_and_beside_ties(self, bits):
        # t = m j with j odd of bits + 1 bits: t / m = j lies halfway between two
        # neighbours at bits, where half to even and half away from zero part;
        # t +- 1 sits just beside the tie, decided by the remainder alone
        rng = random.Random(-bits)
        ties = 0
        for _ in range(1500):
            m = rng.randint(3, 4096) | 1
            j = rng.getrandbits(bits + 1) | 1 << bits | 1
            for offset in (0, 1, -1):
                t = _raw(m * j + offset, rng.randint(-80, 20))
                got = _div_int(t, m, bits)
                assert got == mpf_div(t, from_int(m), bits, round_nearest)
                if offset == 0:
                    ties += 1
                    up = mpf_div(t, from_int(m), bits, round_up)
                    down = mpf_div(t, from_int(m), bits, round_down)
                    assert up != down and got in (up, down)
        assert ties == 1500

    def test_zero_inf_and_nan_come_back_as_mpf_div_gives_them(self):
        for t in (fzero, mpf("inf")._mpf_, mpf("nan")._mpf_):
            for m in (1, 2, 3, 4096):
                assert _div_int(t, m, 53) == mpf_div(t, from_int(m), 53, round_nearest)


class TestDensityDecay:
    @pytest.mark.parametrize("bits", [64, 256])
    def test_equals_mpf_operators(self, bits):
        # real and complex coefficients, events on both sides of |c_n| d_n = 1,
        # and an fhc build, at q = 1, 1.5 and 2
        with mp.workprec(bits):
            w = DunklWeights(1, 4096)
            small = TruncatedSeries(
                {1: mpc(1, -2), 3: -mpmath.exp(-w.log_weight(3)) / 3,
                 7: mpc(0, 5) * mpmath.exp(-w.log_weight(7)), 8: mpf(10) ** -40,
                 20: mpmath.exp(-w.log_weight(20))}, trunc_degree=64)
            fhc, _ = build_frequently_hypercyclic(w, 2, RateEnvelope.log_growth(), 1,
                                                  cfg=BuilderConfig(block_width=2))
        for f, M in ((small, 64), (fhc, 2048)):
            for q in (1, mpf("1.5"), 2):
                got = density_decay_check(f, w, q, M)
                sigma, events, holds = _density_decay_mpf(f, w, q, M)
                assert [s._mpf_ for s in got.sigma] == sigma
                assert [e._mpf_ for e in got.event_density] == events
                assert got.bound_holds == holds

    def test_bound_test_past_its_fast_path_equals_mpf_operators(self):
        # every d_n = 1 at 8 bits, so v = |c_n|: c_1 lifts the sum to about 520, where
        # adding v = 1.5 no longer moves it (half an ulp is 2), and the next 999 events
        # lift the count past the sum; from there RN(count) > sum, the density may
        # exceed sigma, and the bound test is formed in full at every m
        with mp.workprec(8):
            w = DunklWeights(0, 1024)
            w._log_d = [fzero] * 1025
            f = TruncatedSeries({1: mpf(520), **{n: mpf(1.5) for n in range(2, 1001)}},
                                trunc_degree=1024)
        got = density_decay_check(f, w, 1, 1024)
        sigma, events, holds = _density_decay_mpf(f, w, 1, 1024)
        assert [s._mpf_ for s in got.sigma] == sigma
        assert [e._mpf_ for e in got.event_density] == events
        assert got.bound_holds is holds is True  # the slack is 2^16 at 8 bits
        above = [e > s for e, s in zip(got.event_density, got.sigma)]
        assert any(above) and not all(above)

    def test_nan_sum_fails_the_bound_as_the_mpf_operators_do(self):
        # a nan coefficient makes every later sigma nan: RN(count) <= sum is false, and
        # the full test e <= s + slack is false too
        w = DunklWeights(0, 64)
        f = TruncatedSeries({3: 1, 5: mpf("nan"), 9: 2}, trunc_degree=64)
        got = density_decay_check(f, w, 2, 64)
        sigma, events, holds = _density_decay_mpf(f, w, 2, 64)
        assert [s._mpf_ for s in got.sigma] == sigma
        assert [e._mpf_ for e in got.event_density] == events
        assert got.bound_holds is holds is False

    def test_sparse_build_sigma_vanishes(self):
        w = DunklWeights(0, 4096)
        env = RateEnvelope.log_growth()
        cfg = BuilderConfig(targets=[(F(1),)], saturate_envelope=False)
        f, plan = build_hypercyclic(w, env, 1, cfg)
        report = density_decay_check(f, w, 2, 2048)
        assert report.final_sigma() < mpf("0.01")
        assert report.bound_holds

    def test_fhc_build_sigma_bounded_below(self):
        w = DunklWeights(0, 4096)
        env = RateEnvelope.log_growth()
        cfg = BuilderConfig(block_width=2)
        f, s = build_frequently_hypercyclic(w, 2, env, 1, cfg=cfg)
        report = density_decay_check(f, w, 2, 2048)
        assert report.final_sigma() >= mpf("0.1")
        assert report.bound_holds

    def test_event_density_below_sigma(self):
        # an orbit event contributes at least 1 to the sigma sum
        w = DunklWeights(0, 64)
        f = TruncatedSeries(
            {5: 2 * mpmath.exp(-w.log_weight(5)), 9: mpmath.exp(-w.log_weight(9))},
            trunc_degree=64,
        )
        report = density_decay_check(f, w, 1, 64)
        for sigma, events in zip(report.sigma, report.event_density):
            assert events <= sigma + mpf(2) ** -200
        assert report.bound_holds

    def test_q_domain(self):
        w = DunklWeights(0, 64)
        f = TruncatedSeries({0: 1}, trunc_degree=64)
        with pytest.raises(ValueError):
            density_decay_check(f, w, 3, 32)
        with pytest.raises(ValueError):
            density_decay_check(f, w, 2, 128)


    def test_rejects_short_table(self):
        f = TruncatedSeries({40: 1}, trunc_degree=64)
        with pytest.raises(ValueError, match="need d_64, table ends at 32"):
            density_decay_check(f, DunklWeights(0, 32), 2, 64)

    def test_table_below_ambient_precision_fixes_it(self):
        # a 128-bit table used at ambient 256 computes what it computes at 128
        f = TruncatedSeries({3: mpf(1) / 3, 40: 1}, trunc_degree=64)
        with mp.workprec(128):
            w = DunklWeights(0, 64)
        ambient = density_decay_check(f, w, mpf("1.5"), 64)
        with mp.workprec(128):
            at_table = density_decay_check(f, w, mpf("1.5"), 64)
        assert mp.prec == 256
        assert [s._mpf_ for s in ambient.sigma] == [s._mpf_ for s in at_table.sigma]
        assert [e._mpf_ for e in ambient.event_density] == [
            e._mpf_ for e in at_table.event_density]
