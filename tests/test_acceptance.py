"""End-to-end acceptance checks.

Each test prints one verdict line (PASS/FAIL with a short detail) and then
asserts, so a full run shows eleven lines under -s. Golden values were frozen
by a first calibration run at 256 bits; later runs may not drift from them by
more than 1%.
"""

import random
import time

import mpmath
import pytest
from mpmath import mp, mpf

from dunkldyn.cli import main
from dunkldyn.construct import (
    BuilderConfig,
    build_frequently_hypercyclic,
    build_hypercyclic,
    density_decay_check,
    frequency_report,
    poly_to_series,
    verify_orbit_hits,
)
from dunkldyn.dunkl import DunklWeights, apply_dunkl, apply_dunkl_direct
from dunkldyn.dynamics import thm3b_bound_check, windowed_c_star
from dunkldyn.growth import (
    RateEnvelope,
    barnes_asymptotic,
    growth_profile,
    lemma1_ratio,
    lemma3_on_grid,
    mittag_leffler,
    rate_exponent,
    standard_r_grid,
)
from dunkldyn.means import MeanParams, P_INF, hausdorff_young_on_grid
from dunkldyn.series import TruncatedSeries, exp_truncation, write_series
from fractions import Fraction as F

ALPHA_MATRIX = ("-0.49", "0", "0.5", "1", "3")

# ratio band over n <= 5000, first calibration run, per alpha: (min, max)
LEMMA1_BAND = {
    "-0.49": ("2.3476286232", "2.53803678363"),
    "0": ("2.71828182846", "3.69452804947"),
    "0.5": ("2.43952253514", "3.69834513572"),
    "1": ("1.57090100817", "2.97563509973"),
    "3": ("0.0655065493588", "0.379937687303"),
}

# sup of the kernel mean ratio over 256 log-spaced radii in [0.1, 200]
LEMMA3_SUP = {
    ("1", "-0.49"): "0.987617399698",
    ("1", "0"): "0.797385413973",
    ("1", "1"): "1.58680696615",
    ("1", "3"): "37.1419492202",
    ("1.5", "-0.49"): "0.546459860107",
    ("1.5", "0"): "0.367272115386",
    ("1.5", "1"): "1.03104223419",
    ("1.5", "3"): "116.764615415",
    ("2", "-0.49"): "0.323700317725",
    ("2", "0"): "0.179419190876",
    ("2", "1"): "0.710544743982",
    ("2", "3"): "389.338349877",
}


def _verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {num:2d} {label}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _fit_slope(xs, ys):
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = sum((x - xbar) ** 2 for x in xs)
    return num / den


@pytest.fixture(scope="module")
def hc_builds():
    """K = 12 constructions at the critical exponent, both test alphas."""
    mp.prec = 256
    env = RateEnvelope.log_growth()
    out = {}
    for alpha_s in ("0", "0.5"):
        w = DunklWeights(mpf(alpha_s), 4096)
        t0 = time.time()
        f, plan = build_hypercyclic(w, env, 12)
        out[alpha_s] = (f, plan, w, time.time() - t0)
    return out


@pytest.fixture(scope="module")
def fhc_builds():
    """J = 3 schedule constructions at alpha = 1 for p = 2 and p = inf."""
    mp.prec = 256
    env = RateEnvelope.log_growth()
    w = DunklWeights(mpf(1), 4096)
    out = {}
    for label, p in (("2", mpf(2)), ("inf", P_INF)):
        f, schedule = build_frequently_hypercyclic(w, p, env, 3)
        out[label] = (f, schedule, w)
    return out


def test_01_operator_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(20260825)
    tol = mpf(2) ** (30 - 256)
    worst = mpf(0)
    count = 0
    for alpha_s in ALPHA_MATRIX:
        w = DunklWeights(mpf(alpha_s), 160)
        for _ in range(40):
            degree = rng.randint(0, 128)
            coeffs = {n: mpf(rng.uniform(-1, 1)) for n in range(degree + 1)}
            f = TruncatedSeries(coeffs, trunc_degree=160)
            k = rng.randint(1, 3)
            via_table = apply_dunkl(f, w, k)
            via_direct = apply_dunkl_direct(f, w, k)
            count += 1
            for n in range(degree - k + 1):
                a, b = via_table.coeff(n), via_direct.coeff(n)
                if b == 0:
                    assert a == 0
                    continue
                worst = max(worst, abs(a - b) / abs(b))
    elapsed = time.time() - t0
    ok = worst <= tol and count == 200 and elapsed < 60
    _verdict(1, "operator oracle equivalence", ok,
             f"200 polynomials, worst rel err {mpmath.nstr(worst, 3)}, {elapsed:.1f}s")


def test_02_weight_consistency():
    worst = mpf(0)
    for alpha_s in ALPHA_MATRIX:
        w = DunklWeights(mpf(alpha_s), 4096)
        for n in range(4097):
            a = w.log_weight(n)
            b = w.gamma_form_log_weight(n)
            worst = max(worst, abs(a - b) / max(1, abs(a)))
    ok = worst <= mpf(2) ** -236
    _verdict(2, "weight consistency", ok, f"closed form vs recurrence {mpmath.nstr(worst, 3)}")


def test_03_lemma1_band():
    drift = mpf("0.01")
    ok = True
    details = []
    for alpha_s in ALPHA_MATRIX:
        w = DunklWeights(mpf(alpha_s), 5000)
        ratios = [lemma1_ratio(n, w) for n in range(5001)]
        lo, hi = min(ratios), max(ratios)
        glo, ghi = mpf(LEMMA1_BAND[alpha_s][0]), mpf(LEMMA1_BAND[alpha_s][1])
        here = (
            abs(lo / glo - 1) <= drift
            and abs(hi / ghi - 1) <= drift
            and all(mpmath.isfinite(x) and x > 0 for x in (lo, hi))
        )
        # the reciprocal then sits inside the reciprocal band as well
        here = here and 1 / hi >= 1 / (ghi * (1 + drift)) and 1 / lo <= (1 + drift) / glo
        ok = ok and here
        details.append(f"a={alpha_s}: [{mpmath.nstr(lo, 6)}, {mpmath.nstr(hi, 6)}]")
    _verdict(3, "lemma1 ratio band", ok, "; ".join(details))


def test_04_lemma3_bound():
    grid = standard_r_grid(mpf("0.1"), mpf(200), 256)
    drift = mpf("0.01")
    ok = True
    worst_drift = mpf(0)
    for q_s in ("1", "1.5", "2"):
        for alpha_s in ("-0.49", "0", "1", "3"):
            w = DunklWeights(mpf(alpha_s), 1024)
            sup = max(lemma3_on_grid(grid, mpf(q_s), w))
            golden = mpf(LEMMA3_SUP[(q_s, alpha_s)])
            rel = abs(sup / golden - 1)
            worst_drift = max(worst_drift, rel)
            ok = ok and mpmath.isfinite(sup) and rel <= drift
    _verdict(4, "lemma3 kernel bound", ok,
             f"12 (q, alpha) combos, worst golden drift {mpmath.nstr(worst_drift, 3)}")


def test_05_asymptotic_ratio_and_residual():
    t0 = time.time()
    radii = [mpf(10) ** (4 + mpf(k) / 4) for k in range(5)]
    ok = True
    notes = []
    for ml_s in ("1", "2"):
        for beta_s in ("0", "1"):
            ml, beta = mpf(ml_s), mpf(beta_s)
            residuals = []
            for r in radii:
                ratio = mittag_leffler(r, ml, mpf(1), beta) / barnes_asymptotic(
                    r, ml, mpf(1), beta
                )
                ok = ok and mpf("0.95") <= ratio <= mpf("1.05")
                residuals.append(abs(ratio - 1))
            if max(residuals) < mpf("1e-40"):
                # leading term is exact to working precision here; decay is
                # faster than any power of r
                notes.append(f"({ml_s},{beta_s}): exact")
                continue
            slope = _fit_slope(
                [mpmath.log(r) for r in radii],
                [mpmath.log(v) for v in residuals],
            )
            ok = ok and slope < 0 and abs(slope + 1 / ml) <= mpf("0.15")
            notes.append(f"({ml_s},{beta_s}): slope {mpmath.nstr(slope, 4)}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    _verdict(5, "kernel sum asymptotics", ok, "; ".join(notes) + f", {elapsed:.1f}s")


def test_06_hausdorff_young():
    rng = random.Random(424242)
    polys = []
    for _ in range(100):
        degree = rng.randint(0, 64)
        polys.append(
            TruncatedSeries(
                {n: mpf(rng.uniform(-1, 1)) for n in range(degree + 1)},
                trunc_degree=128,
            )
        )
    radii = (mpf("0.5"), mpf(1), mpf(5))
    ok = True
    worst_margin = mpf("inf")
    for p_s in ("1.25", "1.5", "2"):
        params = MeanParams(mpf(p_s))
        for f in polys:
            for r in radii:
                res = hausdorff_young_on_grid(f, [r], params)[0]
                worst_margin = min(worst_margin, res.margin / res.rhs)
                ok = ok and res.margin >= -mpf("1e-6") * res.rhs
                if p_s == "2":
                    ok = ok and abs(res.margin) <= mpf("1e-30") * res.rhs
    _verdict(6, "coefficient-mean inequality", ok,
             f"900 checks, worst margin/rhs {mpmath.nstr(worst_margin, 3)}")


def test_07_hypercyclic_build_end_to_end(hc_builds):
    t0 = time.time()
    ok = True
    notes = []
    build_seconds = 0.0
    for alpha_s, (f, plan, w, dt) in hc_builds.items():
        build_seconds += dt
        report = verify_orbit_hits(f, plan, w)
        # each delta_k is a coefficient sum, so it dominates the residual's
        # sampled sup up to rounding (where the terms line up at a sample, as
        # for a one-term residual, the two differ in the last bits), and shadow
        # test (c) keeps it under half the budget
        ulps = 1 + mpf(2) ** (20 - w.precision_bits)
        for q, m_k, delta, budget, floor in zip(plan.targets, plan.positions, report.deltas,
                                                report.budgets, report.noise_floors):
            residual = apply_dunkl(f, w, m_k).add(poly_to_series(q, f.trunc_degree).scale(-1))
            ok = ok and residual.sup_on_disk(report.r, 512) <= delta * ulps
            ok = ok and delta <= budget / 2 + floor
        a = rate_exponent(P_INF, mpf(alpha_s), "hc")
        profile = growth_profile(f, P_INF, a, RateEnvelope.log_growth(),
                                 standard_r_grid())
        ok = ok and report.all_passed() and profile.satisfied_from is not None
        notes.append(
            f"a={alpha_s}: budgets ok={report.all_passed()}, "
            f"profile from index {profile.satisfied_from}"
        )
    elapsed = time.time() - t0 + build_seconds
    ok = ok and elapsed < 300
    _verdict(7, "hypercyclic build (K=12)", ok, "; ".join(notes) + f", {elapsed:.1f}s")


def test_08_growth_constant_windows(hc_builds, fhc_builds):
    windows = (mpf(50), mpf(100), mpf(200), mpf(400))
    grid = standard_r_grid()
    ok = True
    notes = []
    for alpha_s, (f, plan, w, _) in hc_builds.items():
        ladder = windowed_c_star(f, w, grid, windows)
        increasing = all(b > a for a, b in zip(ladder, ladder[1:]))
        ok = ok and increasing
        notes.append(
            f"a={alpha_s}: " + " < ".join(mpmath.nstr(c, 6) for c in ladder)
        )
    # the per-step inequality must hold for every function this suite tests
    tested = []
    for alpha_s, (f, plan, w, _) in hc_builds.items():
        tested.append((f, w, 600))
    for label, (f, schedule, w) in fhc_builds.items():
        tested.append((f, w, 600))
    w0 = DunklWeights(mpf(0), 4096)
    tested.append((exp_truncation(256, 4096), w0, 200))
    w_half = DunklWeights(mpf("0.5"), 64)
    spike = TruncatedSeries({10: mpmath.exp(-w_half.log_weight(10))}, trunc_degree=64)
    tested.append((spike, w_half, 16))
    consistent_all = True
    for f, w, N in tested:
        report = thm3b_bound_check(f, w, grid, N)
        consistent_all = consistent_all and report.consistent
    ok = ok and consistent_all
    _verdict(8, "windowed growth constants", ok,
             "; ".join(notes) + f"; inequality on {len(tested)} functions: "
             f"{consistent_all}")


def test_09_frequent_build_end_to_end(fhc_builds):
    ok = True
    notes = []
    for label, (f, schedule, w) in fhc_builds.items():
        report = frequency_report(f, schedule, w, 2048, mpf("0.1"), mpf(1))
        dens_ok = all(
            d >= nom / 2 for d, nom in zip(report.densities, report.nominal)
        )
        p = P_INF if label == "inf" else mpf(label)
        a = rate_exponent(p, mpf(1), "fhc_upper")
        profile = growth_profile(f, p, a, RateEnvelope.log_growth(),
                                 standard_r_grid())
        ok = ok and dens_ok and profile.satisfied_from is not None
        ratios = ", ".join(
            mpmath.nstr(mpf(d) / mpf(nom), 3)
            for d, nom in zip(report.densities, report.nominal)
        )
        notes.append(f"p={label}: density/nominal [{ratios}], "
                     f"profile from {profile.satisfied_from}")
    _verdict(9, "frequent build (J=3)", ok, "; ".join(notes))


def test_10_density_decay_split():
    # a single-block build for target q contributes the fixed constant
    # sum_i (|q_i| d_i)^2 to m * sigma_m, so the 0.01 bar at m = 2048 admits
    # degree-2 targets at alpha = 0 (constant 17) but not at alpha = 0.5
    # (constant 37); the tested family respects that, and sigma_m -> 0 is
    # checked separately for every build through the 1/m decay law
    env = RateEnvelope.log_growth()
    ok = True
    worst_sparse = mpf(0)
    sparse_family = {
        "0": [(F(1),), (F(-1),), (F(0), F(1)), (F(-1), F(0), F(1))],
        "0.5": [(F(1),), (F(-1),), (F(0), F(1))],
    }
    decay_builds = []
    for alpha_s, targets in sparse_family.items():
        w = DunklWeights(mpf(alpha_s), 4096)
        for target in targets:
            cfg = BuilderConfig(targets=[target], saturate_envelope=False)
            f, plan = build_hypercyclic(w, env, 1, cfg)
            report = density_decay_check(f, w, 2, 2048)
            worst_sparse = max(worst_sparse, report.final_sigma())
            ok = ok and report.final_sigma() < mpf("0.01") and report.bound_holds
            decay_builds.append(report)
    w_half = DunklWeights(mpf("0.5"), 4096)
    cfg = BuilderConfig(targets=[(F(-1), F(0), F(1))], saturate_envelope=False)
    f, plan = build_hypercyclic(w_half, env, 1, cfg)
    decay_builds.append(density_decay_check(f, w_half, 2, 2048))
    # every sparse build halves sigma between m = 1024 and m = 2048: the
    # block sits far below 1024, so m * sigma_m is eventually constant
    decay_ok = all(
        r.sigma[2047] <= mpf("0.51") * r.sigma[1023] and r.bound_holds
        for r in decay_builds
    )
    ok = ok and decay_ok
    w0 = DunklWeights(mpf(0), 4096)
    f, schedule = build_frequently_hypercyclic(
        w0, 2, env, 1, cfg=BuilderConfig(block_width=2)
    )
    fhc_report = density_decay_check(f, w0, 2, 2048)
    ok = (
        ok
        and fhc_report.final_sigma() >= mpf("0.1")
        and fhc_report.bound_holds
    )
    _verdict(10, "density decay split", ok,
             f"7 sparse builds sigma_2048 <= {mpmath.nstr(worst_sparse, 3)}, "
             f"1/m decay on 8: {decay_ok}, "
             f"periodic build sigma_2048 = {mpmath.nstr(fhc_report.final_sigma(), 3)}")


def test_11_cli_determinism(tmp_path):
    jobs = []
    out_w = tmp_path / "w.csv"
    jobs.append((["weights", "--n", "64", "--alpha", "0.5", "-o", str(out_w)],
                 [out_w]))
    f = TruncatedSeries({2: mpf(1), 0: mpf("0.25")}, trunc_degree=16)
    inp = tmp_path / "in.series"
    write_series(f, str(inp), mpf(0), precision_bits=256)
    out_a = tmp_path / "a.csv"
    jobs.append((["apply", "--input", str(inp), "--k", "1", "-o", str(out_a)],
                 [out_a, tmp_path / "a.series"]))
    out_m = tmp_path / "m.csv"
    jobs.append((["means", "--input", str(inp), "-o", str(out_m),
                  "--r-min", "0.5", "--r-max", "4", "--r-points", "6"],
                 [out_m]))
    out_h = tmp_path / "hy.csv"
    jobs.append((["verify-hy", "--count", "5", "--max-degree", "16", "--p", "1.5",
                  "--seed", "3", "-o", str(out_h)], [out_h]))
    out_b = tmp_path / "b.csv"
    jobs.append((["build-fhc", "--targets", "1", "--alpha", "1", "-o", str(out_b)],
                 [out_b, tmp_path / "b.series", tmp_path / "b.plan"]))
    ok = True
    for argv, artifacts in jobs:
        assert main(argv) == 0
        first = [p.read_bytes() for p in artifacts]
        assert main(argv) == 0
        second = [p.read_bytes() for p in artifacts]
        ok = ok and first == second
    _verdict(11, "CLI determinism", ok, f"{len(jobs)} subcommands byte-identical")
